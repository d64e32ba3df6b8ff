"""Brute-force candidate-wall enumerator, from the definition.

A witness w = vtilde(r, c1, e) with |r| <= rank_bound and every c1
coordinate within c1_bound is kept when w and v - w are nonzero and not
proportional, both have discriminant >= 0, the wall through v and w meets
the region, and somewhere on that meet Z(w) = t * Z(v) with 0 < |t| < 1.

The e grid is finite because |t| < 1 forces |Re Z(w)| <= max |Re Z(v)|
over the region, and Re Z(w) = -w2 + q*w0.  Every grid point inside that
envelope is tested against the full definition; there is no other pruning.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from checks import region_corners
from exact import charge, cross3, disc, primitive

F = Fraction


def _clip(region, wall):
    """Meet of the wall line with the region: None or a pair of end points."""
    a, b, c = wall
    if region[0] == "segment":
        P, Q = region[1], region[2]
        f0 = a + b * P[0] + c * P[1]
        f1 = a + b * Q[0] + c * Q[1]
        if f0 == 0 and f1 == 0:
            return (P, Q)
        if f0 * f1 > 0:
            return None
        lam = F(f0, 1) / (f0 - f1)
        X = (P[0] + lam * (Q[0] - P[0]), P[1] + lam * (Q[1] - P[1]))
        return (X, X)
    _, s_lo, s_hi, q_lo, q_hi = region
    pts = set()
    for s0 in (s_lo, s_hi):  # vertical edges
        if c != 0:
            q = -(a + b * s0) / F(c)
            if q_lo <= q <= q_hi:
                pts.add((s0, q))
        elif a + b * s0 == 0:
            pts.update({(s0, q_lo), (s0, q_hi)})
    for q0 in (q_lo, q_hi):  # horizontal edges
        if b != 0:
            s = -(a + c * q0) / F(b)
            if s_lo <= s <= s_hi:
                pts.add((s, q0))
        elif a + c * q0 == 0:
            pts.update({(s_lo, q0), (s_hi, q0)})
    if not pts:
        return None
    # points of one line: lexicographic order runs along the line
    return (min(pts), max(pts))


def _ratio_below_one(v, w, X0, X1):
    """Some point of [X0, X1] has Z(w) = t Z(v) with 0 < |t| < 1.

    On the wall the charges are real-proportional, so |t| < 1 is
    g = |Z(v)|^2 - |Z(w)|^2 > 0, a quadratic along the clip; its maximum
    on [0, 1] sits at an end or at the vertex.
    """
    zv0, zw0 = charge(X0[0], X0[1], v), charge(X0[0], X0[1], w)
    zv1, zw1 = charge(X1[0], X1[1], v), charge(X1[0], X1[1], w)
    dv = (zv1[0] - zv0[0], zv1[1] - zv0[1])
    dw = (zw1[0] - zw0[0], zw1[1] - zw0[1])
    if zw0 == (0, 0) and dw == (0, 0):
        return False  # t = 0 all along the clip

    def dot(x, y):
        return x[0] * y[0] + x[1] * y[1]

    g0 = dot(zv0, zv0) - dot(zw0, zw0)
    g1 = 2 * (dot(zv0, dv) - dot(zw0, dw))
    g2 = dot(dv, dv) - dot(dw, dw)
    if X0 == X1:
        return g0 > 0
    best = max(g0, g0 + g1 + g2)
    if g2 < 0:
        lam = -g1 / (2 * g2)
        if 0 < lam < 1:
            best = max(best, g0 + g1 * lam + g2 * lam * lam)
    return best > 0


def brute_walls(surface, v, region, rank_bound, c1_bound):
    """Set of (wall coefficients, witness) pairs by exhaustive search."""
    v = tuple(F(x) for x in v)
    corners = region_corners(region)
    envelope = max(abs(charge(s, q, v)[0]) for s, q in corners)
    q_lo = min(q for _, q in corners)
    q_hi = max(q for _, q in corners)
    found = set()
    for r in range(-rank_bound, rank_bound + 1):
        for c1 in product(range(-c1_bound, c1_bound + 1), repeat=surface.rank):
            c1 = [F(c) for c in c1]
            w0, w1, offset = surface.vtilde(r, c1, 0)
            base = surface.pair(c1, c1) / 2 + offset
            lo = min(q_lo * w0, q_hi * w0) - envelope
            hi = max(q_lo * w0, q_hi * w0) + envelope
            for k in range(math.ceil(lo - base), math.floor(hi - base) + 1):
                w = (w0, w1, base + k)
                u = (v[0] - w0, v[1] - w1, v[2] - w[2])
                if w == (0, 0, 0) or u == (0, 0, 0):
                    continue
                line = cross3(v, w)
                if line == (0, 0, 0):
                    continue  # proportional: no wall
                if disc(w) < 0 or disc(u) < 0:
                    continue
                wall = primitive(line)
                clip = _clip(region, wall)
                if clip is None or not _ratio_below_one(v, w, *clip):
                    continue
                found.add((wall, w))
    return found
