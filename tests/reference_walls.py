"""Reference copy of the generate-and-test wall enumeration.

The bodies below are the enumeration and region clips as they stood
before wall enumeration decided "wall meets region" from corner signs in
closed form: every witness in the Bogomolov/envelope k-range is built,
canonicalised through ``wall_of`` and clipped against the region.  Tests
compare the production ``enumerate_candidate_walls`` against this copy.
Pass the region classes defined here to ``enumerate_candidate_walls`` in
this module, since it calls their ``wall_clip``.  ``walk_filter`` is the
destabilization walk's choice of splits as it stood before the scan took
the split rule, applied to a public enumeration over a segment.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as _iterproduct

from walland.errors import PreconditionError, ZeroChargeError
from walland.lattice import SurfaceLattice, VTilde, discriminant
from walland.plane import PlaneLine
from walland.stability import StabPoint, wall_of
from walland.walls import CandidateWall, EnumerationBounds


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _charge(s: Fraction, q: Fraction, x: VTilde):
    """Raw charge components at an arbitrary parameter pair."""
    return (-x.v2 + q * x.v0, x.v1 - s * x.v0)


def _line_eval(wall: PlaneLine, s: Fraction, q: Fraction) -> Fraction:
    # affine evaluation; eval_point on a PlanePoint carries the
    # canonicalization scale and would skew crossing parameters
    a, b, c = wall.coeffs
    return a + b * s + c * q


class SegmentRegion:
    """Closed segment between two stability parameters."""

    def __init__(self, P: StabPoint, Q: StabPoint):
        self.P = P
        self.Q = Q

    def corners(self):
        return (self.P, self.Q)

    def q_bounds(self):
        return (min(self.P.q, self.Q.q), max(self.P.q, self.Q.q))

    def point_at(self, t: Fraction):
        return (
            self.P.s + t * (self.Q.s - self.P.s),
            self.P.q + t * (self.Q.q - self.P.q),
        )

    def wall_clip(self, wall: PlaneLine):
        """Meet of the wall line with the segment.

        Returns None, ("point", [(s, q)]) or ("span", [(s0,q0), (s1,q1)]).
        """
        f0 = _line_eval(wall, self.P.s, self.P.q)
        f1 = _line_eval(wall, self.Q.s, self.Q.q)
        if f0 == 0 and f1 == 0:
            return ("span", [(self.P.s, self.P.q), (self.Q.s, self.Q.q)])
        if f0 * f1 > 0:
            return None
        t = Fraction(f0, f0 - f1)
        return ("point", [self.point_at(t)])


class BoxRegion:
    """Axis-aligned closed box strictly above the parabola."""

    def __init__(self, s_lo, s_hi, q_lo, q_hi):
        self.s_lo, self.s_hi = _frac(s_lo), _frac(s_hi)
        self.q_lo, self.q_hi = _frac(q_lo), _frac(q_hi)
        if self.s_lo > self.s_hi or self.q_lo > self.q_hi:
            raise PreconditionError("empty box region")
        # max of s^2/2 over [s_lo, s_hi] sits at a corner
        for s in (self.s_lo, self.s_hi):
            StabPoint.make(s, self.q_lo)

    def corners(self):
        return tuple(
            StabPoint.make(s, q)
            for s in (self.s_lo, self.s_hi)
            for q in (self.q_lo, self.q_hi)
        )

    def q_bounds(self):
        return (self.q_lo, self.q_hi)

    def wall_clip(self, wall: PlaneLine):
        a, b, c = (Fraction(x) for x in wall.coeffs)
        if b == 0 and c == 0:
            return None  # line at infinity misses the affine box
        if c != 0:
            base = (Fraction(0), Fraction(-a, c))
        else:
            base = (Fraction(-a, b), Fraction(0))
        dvec = (c, -b)
        lo, hi = None, None  # parameter interval along base + tau*dvec

        def clamp(p0, d, lo_lim, hi_lim, lo, hi):
            if d == 0:
                if lo_lim <= p0 <= hi_lim:
                    return lo, hi
                return (Fraction(1), Fraction(0))  # empty marker
            t0 = (lo_lim - p0) / d
            t1 = (hi_lim - p0) / d
            if t0 > t1:
                t0, t1 = t1, t0
            lo = t0 if lo is None or t0 > lo else lo
            hi = t1 if hi is None or t1 < hi else hi
            return lo, hi

        lo, hi = clamp(base[0], dvec[0], self.s_lo, self.s_hi, lo, hi)
        if lo is not None and hi is not None and lo > hi:
            return None
        lo, hi = clamp(base[1], dvec[1], self.q_lo, self.q_hi, lo, hi)
        if lo is None or hi is None:
            # wall parallel to both axes cannot happen; both unclamped means
            # the line is constant in the box in each axis separately
            return None
        if lo > hi:
            return None
        p_lo = (base[0] + lo * dvec[0], base[1] + lo * dvec[1])
        p_hi = (base[0] + hi * dvec[0], base[1] + hi * dvec[1])
        if lo == hi:
            return ("point", [p_lo])
        return ("span", [p_lo, p_hi])


def _region_re_envelope(region, v: VTilde) -> Fraction:
    """Max of |Re Z(v)| over the region (linear, so corners suffice)."""
    best = Fraction(0)
    for c in region.corners():
        re, _ = _charge(c.s, c.q, v)
        if abs(re) > best:
            best = abs(re)
    return best


def _proportional(v: VTilde, w: VTilde) -> bool:
    return (
        v.v1 * w.v2 - v.v2 * w.v1 == 0
        and v.v2 * w.v0 - v.v0 * w.v2 == 0
        and v.v0 * w.v1 - v.v1 * w.v0 == 0
    )


def _ratio_at(s, q, v: VTilde, w: VTilde):
    """t with Z(w) = t * Z(v) at (s, q), or None."""
    re_v, im_v = _charge(s, q, v)
    re_w, im_w = _charge(s, q, w)
    if re_v == 0 and im_v == 0:
        return None
    t = im_w / im_v if im_v != 0 else re_w / re_v
    if re_w == t * re_v and im_w == t * im_v:
        return t
    return None


def _span_test_params(p0, p1, v: VTilde, w: VTilde):
    """Rational test parameters along an affine clip p0 -> p1.

    Breakpoints are the roots of the linear charge components and of the
    ratio-equals-plus-minus-one combinations; together with interval
    midpoints they decide existence questions for the ratio exactly.
    """
    ds, dq = p1[0] - p0[0], p1[1] - p0[1]

    def lin(x: VTilde):
        re0, im0 = _charge(p0[0], p0[1], x)
        re1, im1 = _charge(p0[0] + ds, p0[1] + dq, x)
        return (re0, re1 - re0), (im0, im1 - im0)

    (rv, drv), (iv, div_) = lin(v)
    (rw, drw), (iw, diw) = lin(w)
    cuts = {Fraction(0), Fraction(1)}
    for a, b in (
        (rv, drv),
        (iv, div_),
        (rw, drw),
        (iw, diw),
        (rw - rv, drw - drv),
        (rw + rv, drw + drv),
        (iw - iv, diw - div_),
        (iw + iv, diw + div_),
    ):
        if b != 0:
            t = -a / b
            if 0 < t < 1:
                cuts.add(t)
    grid = sorted(cuts)
    params = list(grid)
    for a, b in zip(grid, grid[1:]):
        params.append((a + b) / 2)
    return sorted(params)


def _destab_exists(v: VTilde, w: VTilde, clip) -> bool:
    """Is w numerically destabilizing somewhere on the clip?

    Sign-agnostic: requires Z(w) = t * Z(v) with t != 0 and t^2 < 1 at
    some point of the clip, so both w and v - w carve out proper pieces
    of the charge regardless of heart orientation.
    """
    kind, pts = clip
    if kind == "point":
        params = [Fraction(0)]
        p0 = pts[0]
        p1 = pts[0]
    else:
        p0, p1 = pts
        params = _span_test_params(p0, p1, v, w)
    for t in params:
        s = p0[0] + t * (p1[0] - p0[0])
        q = p0[1] + t * (p1[1] - p0[1])
        ratio = _ratio_at(s, q, v, w)
        if ratio is not None and ratio != 0 and ratio * ratio < 1:
            return True
    return False


def enumerate_candidate_walls(
    v: VTilde, region, rank_bound: int, c1_bound: int, L: SurfaceLattice
):
    """All potential walls of v meeting the region, with integral witnesses.

    Witness characters w = (r', c', e') run over |r'| <= rank_bound and
    |c' coords| <= c1_bound; e' is confined to the integrality grid inside
    an exact envelope (|Re Z(w)| cannot exceed |Re Z(v)| anywhere a ratio
    in (-1, 1) is achieved), which keeps every search finite.  Kept are w
    with discriminant(w) >= 0, discriminant(v - w) >= 0, the wall meeting
    the region, and the ratio condition achieved somewhere on the meet.
    """
    bounds = EnumerationBounds(int(rank_bound), int(c1_bound))
    if v.is_zero:
        raise ZeroChargeError("zero character has no walls")
    found = {}
    H, D = L.H, L.D
    H2 = L.pair(H, H)
    DD = L.pair(D, D)
    q_lo, q_hi = region.q_bounds()
    envelope = _region_re_envelope(region, v)
    for r in range(-bounds.rank_bound, bounds.rank_bound + 1):
        w0 = H2 * r
        env_lo = min(q_lo * w0, q_hi * w0) - envelope
        env_hi = max(q_lo * w0, q_hi * w0) + envelope
        for coords in _iterproduct(
            range(-bounds.c1_bound, bounds.c1_bound + 1), repeat=L.rank
        ):
            c = L.divisor(coords)
            w1 = L.pair(H, c)
            # w2 = base + k over integers k: integrality of e' plus twist shift
            base = L.pair(c, c) / 2 - L.pair(D, c) + Fraction(r) * DD / 2
            k_lo = env_lo - base
            k_hi = env_hi - base
            # Bogomolov constraints are linear in k once w0, u0 are fixed
            if w0 > 0:
                k_hi = min(k_hi, w1 * w1 / (2 * w0) - base)
            elif w0 < 0:
                k_lo = max(k_lo, w1 * w1 / (2 * w0) - base)
            u0, u1 = v.v0 - w0, v.v1 - w1
            if u0 > 0:
                k_lo = max(k_lo, v.v2 - base - u1 * u1 / (2 * u0))
            elif u0 < 0:
                k_hi = min(k_hi, v.v2 - base - u1 * u1 / (2 * u0))
            for k in range(math.ceil(k_lo), math.floor(k_hi) + 1):
                w = VTilde(w0, w1, base + k)
                if w.is_zero:
                    continue
                u = v - w
                if u.is_zero or _proportional(v, w):
                    continue
                if discriminant(w) < 0 or discriminant(u) < 0:
                    continue
                wall = wall_of(v, w)
                clip = region.wall_clip(wall)
                if clip is None:
                    continue
                if not _destab_exists(v, w, clip):
                    continue
                found.setdefault(wall.coeffs, {})[w.as_tuple()] = w
    out = []
    for coeffs in sorted(found):
        ws = found[coeffs]
        out.append(
            CandidateWall(
                PlaneLine(coeffs), tuple(ws[key] for key in sorted(ws))
            )
        )
    return out


def walk_filter(v: VTilde, start: StabPoint, Q: StabPoint, candidates):
    """(wall coeffs, kept witnesses, crossing) the walk split along.

    candidates is a public enumeration of v over the segment from start to
    Q.  A wall is kept when it crosses the segment strictly inside it,
    f0 * f1 < 0 at the two ends, and a witness when 0 < n*d < d^2 at the
    crossing, with n / d = Re Z(w) / Re Z(v) on a vertical wall and
    Im Z(w) / Im Z(v) elsewhere; walls with no kept witness are dropped.
    """
    out = []
    for cand in candidates:
        f0 = _line_eval(cand.wall, start.s, start.q)
        f1 = _line_eval(cand.wall, Q.s, Q.q)
        if f0 * f1 >= 0:
            continue
        t = Fraction(f0, f0 - f1)
        s, q = start.s + t * (Q.s - start.s), start.q + t * (Q.q - start.q)
        part = 0 if cand.wall.is_vertical else 1
        d = _charge(s, q, v)[part]
        kept = []
        for w in cand.witnesses:
            n = _charge(s, q, w)[part]
            if 0 < n * d < d * d:
                kept.append(w)
        if kept:
            out.append((cand.wall.coeffs, tuple(kept), t))
    return out
