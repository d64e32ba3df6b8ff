"""Output checkers for the four workloads.

Each checker recomputes what an output claims from the definitions, with
the exact helpers in `exact.py` and `surface.py`, and raises `CheckFailed`
on the first disagreement.  Outputs are read in the form the program
prints them (`to_dict()` documents), so the checks also pin the format.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from exact import (
    CheckFailed,
    Quad,
    charge,
    check_lift_of,
    check_within_half_turn,
    cross3,
    disc,
    lift_cmp,
    lift_from_json,
    primitive,
    require,
    same_ray,
    sign,
)

F = Fraction


def _vec(strings):
    return tuple(F(x) for x in strings)


def _point(doc):
    return (F(doc["s"]), F(doc["q"]))


def _on_line(coeffs, x, y):
    return sign(coeffs[0] + coeffs[1] * x + coeffs[2] * y) == 0


def _on_parabola(x, y):
    return sign(2 * y - x * x) == 0


def _qpoint(doc):
    return (Quad.from_json(doc[0]), Quad.from_json(doc[1]))


# ---------------------------------------------------------------------------
# destab-walk
# ---------------------------------------------------------------------------


def check_interval(P, Q, v, doc):
    """The phase window: chord endpoints on the parabola, lifts near the anchor."""
    chord = cross3(v, (1, P[0], P[1]))
    A, B = _qpoint(doc["A"]), _qpoint(doc["B"])
    for X in (A, B):
        require(_on_parabola(*X), "interval endpoint off the parabola")
        require(_on_line(chord, *X), "interval endpoint off the chord through v and P")
    require(sign(A[0] - B[0]) < 0, "interval endpoints not ordered by s")
    anchor = (0, charge(P[0], P[1], v))
    lo, hi = lift_from_json(doc["lo"]), lift_from_json(doc["hi"])
    require(lift_cmp(lo, hi) <= 0, "interval lo above hi")
    ends = {"A": A, "B": B}
    for key, lift in (("lo", lo), ("hi", hi)):
        X = ends[doc["labels"][key]]
        dx, dy = X[0] - Q[0], X[1] - Q[1]
        # the endpoint phase seen from Q points along +-i*(X - Q)
        require(sign(lift[1][0] * dx + lift[1][1] * dy) == 0, f"{key} ray not along i*(X - Q)")
        require(lift[0] % 2 == 0, f"{key}: odd half-turn count")
        check_within_half_turn(lift, anchor, f"interval {key}")
    return lo, hi


def check_walk(P, Q, v, interval_doc, tree_doc):
    """Every split, crossing and leaf of a destabilization tree.

    Returns the number of nodes in the (expanded) tree.
    """
    lo, hi = check_interval(P, Q, v, interval_doc)
    require(_vec(tree_doc["char"]) == v, "root character is not v")
    require(F(tree_doc["t_start"]) == 0, "root does not start at P")
    return _check_node(P, Q, tree_doc, lo, hi)


def _check_node(P, Q, node, lo, hi):
    char = _vec(node["char"])
    t0 = F(node["t_start"])
    leaf = lift_from_json(node["leaf_lift"])
    check_lift_of(leaf, charge(Q[0], Q[1], char), "leaf lift")
    require(
        lift_cmp(lo, leaf) <= 0 and lift_cmp(leaf, hi) <= 0,
        f"leaf lift of {char} outside the phase window",
    )
    nodes = 1
    last_t = t0
    for ev in node["events"]:
        t = F(ev["t"])
        require(last_t < t < 1, f"event time {t} not increasing inside ({t0}, 1)")
        last_t = t
        R = _point(ev["R"])
        require(
            R == (P[0] + t * (Q[0] - P[0]), P[1] + t * (Q[1] - P[1])),
            "crossing point R is not on PQ at time t",
        )
        wall = tuple(int(c) for c in ev["wall"])
        require(_on_line(wall, *R), "crossing point R is not on its wall")
        require(
            wall[0] * char[0] + wall[1] * char[1] + wall[2] * char[2] == 0,
            "wall misses the parent's plane point",
        )
        zc = charge(R[0], R[1], char)
        norm = zc[0] * zc[0] + zc[1] * zc[1]
        require(norm != 0, "parent charge vanishes at R")
        require(ev["splits"], "event without splits")
        for sp in ev["splits"]:
            w, u = _vec(sp["w"]), _vec(sp["u"])
            require(tuple(a + b for a, b in zip(w, u)) == char, "w + u differs from the parent")
            zw = charge(R[0], R[1], w)
            require(zw[0] * zc[1] - zw[1] * zc[0] == 0, "Z(w) not real-proportional to Z(parent)")
            lam = (zw[0] * zc[0] + zw[1] * zc[1]) / norm
            require(0 < lam < 1, f"Z(w) = {lam} Z(parent), not in (0, 1)")
            require(disc(w) >= 0 and disc(u) >= 0, "split part with negative discriminant")
            for part, child in ((w, sp["w_node"]), (u, sp["u_node"])):
                require(_vec(child["char"]) == part, "child node carries another character")
                require(F(child["t_start"]) == t, "child does not start at the crossing")
                nodes += _check_node(P, Q, child, lo, hi)
    return nodes


# ---------------------------------------------------------------------------
# wall-scan
# ---------------------------------------------------------------------------


class WitnessGrid:
    """Which projected characters are integral inside the enumeration box."""

    def __init__(self, S, rank_bound, c1_bound):
        self.cells = {}
        for r in range(-rank_bound, rank_bound + 1):
            for c1 in product(range(-c1_bound, c1_bound + 1), repeat=S.rank):
                c1 = [F(c) for c in c1]
                # twisted ch2 of (r, c1, e) is e + offset; e runs over c1^2/2 + Z
                w0, w1, offset = S.vtilde(r, c1, 0)
                base = S.pair(c1, c1) / 2 + offset
                self.cells.setdefault((w0, w1), set()).add(base - (base.numerator // base.denominator))

    def contains(self, w) -> bool:
        residues = self.cells.get((w[0], w[1]))
        if not residues:
            return False
        return w[2] - (w[2].numerator // w[2].denominator) in residues


def region_corners(region):
    if region[0] == "segment":
        return [region[1], region[2]]
    _, s_lo, s_hi, q_lo, q_hi = region
    return [(s, q) for s in (s_lo, s_hi) for q in (q_lo, q_hi)]


def check_scan(grid, v, region, walls_doc):
    """Each wall passes through v and meets the region; witnesses are sound."""
    corners = region_corners(region)
    seen = set()
    for cw in walls_doc:
        wall = tuple(int(c) for c in cw["wall"])
        require(wall == primitive(wall), "wall coefficients not canonical")
        require(wall not in seen, "wall listed twice")
        seen.add(wall)
        require(
            wall[0] * v[0] + wall[1] * v[1] + wall[2] * v[2] == 0,
            "wall misses v's plane point",
        )
        values = [wall[0] + wall[1] * s + wall[2] * q for s, q in corners]
        require(min(values) <= 0 <= max(values), "wall misses the region")
        require(cw["witnesses"], "wall without witnesses")
        for ws in cw["witnesses"]:
            w = _vec(ws)
            u = tuple(a - b for a, b in zip(v, w))
            require(
                wall[0] * w[0] + wall[1] * w[1] + wall[2] * w[2] == 0,
                "wall misses the witness's plane point",
            )
            require(grid.contains(w), f"witness {w} is not integral inside the bounds")
            require(disc(w) >= 0, "witness fails Bogomolov")
            require(disc(u) >= 0, "complement of the witness fails Bogomolov")


def scan_as_set(walls_doc):
    return {
        (tuple(int(c) for c in cw["wall"]), _vec(ws))
        for cw in walls_doc
        for ws in cw["witnesses"]
    }


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _heart_fails(P, v):
    re, im = charge(P[0], P[1], v)
    return not (im > 0 or (im == 0 and re < 0))


def check_certificate_doc(surface, P, ch, doc):
    """Check a `walland ext2` document: a certificate, or a confirmed failure.

    Returns the branch path, e.g. "DualReduction>SegmentsIntersect", or
    "Failure:<reason>".
    """
    r, c1, e = ch
    v = surface.vtilde(r, c1, e)
    if "certificate" in doc:
        return _check_cert(surface, P, ch, v, doc["certificate"])
    require(doc.get("error") == "CertificateFailure", f"unexpected document {sorted(doc)}")
    return "Failure:" + _check_failure(surface, P, ch, doc["message"], doc["payload"])


def _check_base(surface, P, ch, v, data):
    """P, Q, v, vK of a left-branch document, recomputed."""
    require(_point(data["P"]) == P, "P differs")
    require(_vec(data["v"]) == v, "v differs from the projection of ch")
    HH = surface.pair(surface.H, surface.H)
    delta = surface.pair(surface.H, surface.K) / HH
    Qs = P[0] + delta
    Q = (Qs, P[1] - P[0] * P[0] / 2 + Qs * Qs / 2)
    require(_point(data["Q"]) == Q, "Q is not P slid along its parabola by H.K/H^2")
    vK = surface.vtilde(*surface.tensor_K(*ch))
    require(_vec(data["vK"]) == vK, "vK is not the projection of ch tensor K")
    return Q, vK


def _chords(P, Q, v, vK):
    return cross3(v, (1, P[0], P[1])), cross3(vK, (1, Q[0], Q[1]))


def _check_chord_points(data, chord1, chord2):
    for key, chord in (("A", chord1), ("B", chord1), ("Ap", chord2), ("Bp", chord2)):
        X = _qpoint(data[key])
        require(_on_parabola(*X), f"{key} off the parabola")
        require(_on_line(chord, *X), f"{key} off its chord")
    for a, b in (("A", "B"), ("Ap", "Bp")):
        require(sign(_qpoint(data[a])[0] - _qpoint(data[b])[0]) < 0, f"{a}, {b} not ordered")


def _check_cert(surface, P, ch, v, cert):
    branch = cert["branch"]
    data = cert["data"]
    if branch == "NearbyStability":
        require(v[0] != 0 and P[0] == v[1] / v[0], "nearby branch away from the boundary")
        require(_point(data["P"]) == P and _vec(data["v"]) == v, "nearby data differs")
        P2 = _point(data["P_perturbed"])
        require(P2[1] == P[1] and 2 * P2[1] > P2[0] * P2[0], "perturbed point invalid")
        require((P2[0] < P[0]) == (v[0] > 0) and P2[0] != P[0], "perturbed to the wrong side")
        return branch + ">" + _check_cert(surface, P2, ch, v, cert["inner"])
    if branch == "DualReduction":
        require(v[0] != 0 and P[0] > v[1] / v[0], "dual branch on the left side")
        r, c1, e = ch
        mirror = (r, [-c for c in c1], e)
        S2 = surface.with_twist([-d for d in surface.D])
        P2 = (-P[0], P[1])
        v2 = S2.vtilde(*mirror)
        flipped = _heart_fails(P2, v2)
        if flipped:
            mirror = (-r, [c for c in c1], -e)
            v2 = tuple(-x for x in v2)
        require(_point(data["P"]) == P and _vec(data["v"]) == v, "dual data differs")
        require(_point(data["P_mirror"]) == P2, "P_mirror is not (-s, q)")
        require(_vec(data["v_mirror"]) == v2, "v_mirror is not the dual (r, -c1, e) under -D")
        require(data["shift_normalized"] is flipped, "shift normalization flag wrong")
        return branch + ">" + _check_cert(S2, P2, mirror, v2, cert["inner"])
    require(v[0] == 0 or P[0] < v[1] / v[0], "left branch on the right side")
    Q, vK = _check_base(surface, P, ch, v, data)
    chord1, chord2 = _chords(P, Q, v, vK)
    _check_chord_points(data, chord1, chord2)
    if branch == "SegmentsIntersect":
        R = _point(data["R"])
        require(_on_line(chord1, *R) and _on_line(chord2, *R), "R is not on both chords")
        require(2 * R[1] > R[0] * R[0], "R is not strictly above the parabola")
        if primitive(chord1) == primitive(chord2):
            lo, hi = _overlap(data)
            require(sign(R[0] - lo) > 0 and sign(hi - R[0]) > 0, "R outside the chord overlap")
        lam_v = lift_from_json(data["phase_at_R"])
        lam_k = lift_from_json(data["twisted_phase_at_R"])
        check_lift_of(lam_v, charge(R[0], R[1], v), "phase at R")
        check_lift_of(lam_k, charge(R[0], R[1], vK), "twisted phase at R")
        check_within_half_turn(lam_v, (0, charge(P[0], P[1], v)), "phase at R")
        check_within_half_turn(lam_k, (0, charge(Q[0], Q[1], vK)), "twisted phase at R")
        require(lift_cmp(lam_v, lam_k) > 0, "phase at R does not exceed the twisted phase")
        return branch
    require(branch == "PhaseDominance", f"unknown branch {branch}")
    require(not _chords_meet_above(data, chord1, chord2), "chords meet above the parabola")
    lo, _ = check_interval(P, Q, v, data["interval"])
    lam_k = lift_from_json(data["twisted_phase"])
    require(lam_k[0] == 0 and same_ray(lam_k[1], charge(Q[0], Q[1], vK)), "twisted phase wrong")
    require(lift_cmp(lam_k, lo) < 0, "twisted phase not strictly below the window")
    return branch


def _overlap(data):
    """Signed length of the common part of two chords on one line."""
    A, Ap = _qpoint(data["A"])[0], _qpoint(data["Ap"])[0]
    B, Bp = _qpoint(data["B"])[0], _qpoint(data["Bp"])[0]
    lo = A if sign(A - Ap) >= 0 else Ap
    hi = B if sign(B - Bp) <= 0 else Bp
    return lo, hi


def _chords_meet_above(data, chord1, chord2):
    """Do the two chords share a point strictly above q = s^2/2?"""
    if primitive(chord1) == primitive(chord2):
        lo, hi = _overlap(data)
        return sign(hi - lo) > 0
    h = cross3(chord1, chord2)
    if h[0] == 0:
        return False
    x, y = F(h[1], h[0]), F(h[2], h[0])
    return 2 * y > x * x


def _left_level(surface, P, ch):
    """Follow the nearby and dual reductions down to the left-branch level."""
    while True:
        r, c1, e = ch
        v = surface.vtilde(r, c1, e)
        if v[0] == 0 or P[0] < v[1] / v[0]:
            return surface, P, ch, v
        if P[0] == v[1] / v[0]:
            # sideways by 1, 1/2, 1/4, ... until strictly above the parabola
            step, eps = (-1 if v[0] > 0 else 1), F(1)
            while 2 * P[1] <= (P[0] + step * eps) ** 2:
                eps /= 2
            P = (P[0] + step * eps, P[1])
            continue
        surface = surface.with_twist([-d for d in surface.D])
        P = (-P[0], P[1])
        ch = (r, [-c for c in c1], e)
        if _heart_fails(P, surface.vtilde(*ch)):
            ch = (-r, list(c1), -e)


def _check_failure(surface, P, ch, message, payload):
    """Confirm the reason of a CertificateFailure from its payload."""
    surface, P, ch, v = _left_level(surface, P, ch)
    require(_vec(payload["v"]) == v and _point(payload["P"]) == P, "payload is not the left level")
    if message.startswith("character chord degenerates"):
        require(v[0] == 0 and v[1] == 0, "chord called degenerate for v0, v1 not both 0")
        return "chord degenerates"
    if message.startswith("chords touch only on the parabola"):
        Q, vK = _check_base(surface, P, ch, v, payload)
        chord1, chord2 = _chords(P, Q, v, vK)
        if primitive(chord1) == primitive(chord2):
            lo, hi = _overlap(payload)
            require(sign(hi - lo) == 0, "identical chords overlap or miss")
        else:
            h = cross3(chord1, chord2)
            require(h[0] != 0, "chords meet at infinity")
            x, y = F(h[1], h[0]), F(h[2], h[0])
            require(2 * y == x * x, "chords do not meet on the parabola")
        return "chords touch"
    raise CheckFailed(f"unconfirmed certificate failure: {message}")


# ---------------------------------------------------------------------------
# hom-cohomology
# ---------------------------------------------------------------------------


def rank(rows) -> int:
    """Rank of a list of rational rows by fraction-exact elimination."""
    rows = [list(r) for r in rows if any(x != 0 for x in r)]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        p = rows[rk]
        for i in range(rk + 1, len(rows)):
            f = rows[i][col]
            if f != 0:
                f = f / p[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], p)]
        rk += 1
    return rk


def complex_cohomology(dims, diffs):
    """h^i(C) = dim C^i - rank d^i - rank d^(i-1)."""
    ranks = [rank(d) for d in diffs]
    return [
        dims[i] - (ranks[i] if i < len(ranks) else 0) - (ranks[i - 1] if i > 0 else 0)
        for i in range(len(dims))
    ]


def hom_cohomology_dims(h):
    """dim H^d(Hom(C, C)) = sum_i h^i h^(i+d): complexes over a field are formal."""
    n = len(h)
    return {d: sum(h[i] * h[i + d] for i in range(n) if 0 <= i + d < n) for d in range(-(n - 1), n)}


def _mul(a, b, inner, ncols):
    # a: m x inner, b: inner x ncols, as lists of rows
    return [[sum((row[k] * b[k][j] for k in range(inner)), F(0)) for j in range(ncols)] for row in a]


def hom_differential_apply(dims, diffs, degree, comps):
    """D(f)^i = d^(i+k) f^i - (-1)^k f^(i+1) d^i, on dict i -> rows."""
    n = len(dims)
    k = degree
    sgn = -1 if k % 2 else 1
    out = {}
    for i in range(n):
        j = i + k + 1
        if not 0 <= j < n:
            continue
        acc = [[F(0)] * dims[i] for _ in range(dims[j])]
        if i + k < n - 1 and 0 <= i + k and i in comps:
            acc = _add(acc, _mul(diffs[i + k], comps[i], dims[i + k], dims[i]))
        if i < n - 1 and (i + 1) in comps:
            prod = _mul(comps[i + 1], diffs[i], dims[i + 1], dims[i])
            acc = _add(acc, [[-sgn * x for x in row] for row in prod])
        out[i] = acc
    return out


def _add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def supertrace_of_composite(dims, a_deg, a, b_deg, b):
    """str(a o b): only degree-0 composites have diagonal content."""
    if a_deg + b_deg != 0:
        return F(0)
    total = F(0)
    for i, bi in b.items():
        ai = a.get(i + b_deg)
        if ai is None:
            continue
        m = _mul(ai, bi, dims[i + b_deg], dims[i])
        t = sum((m[x][x] for x in range(len(m))), F(0))
        total += t if i % 2 == 0 else -t
    return total


def check_hom(dims, diffs, groups, pairings):
    """Cohomology dimensions, cocycle witnesses and pairing antisymmetry.

    `groups` maps degree -> (dim, ker_dim, im_dim, reps), each rep a dict
    i -> rows; `pairings` lists (a_deg, ai, b_deg, bj, theta(a, b),
    theta(b, a), supertrace(a)) with the program's values.
    """
    expected = hom_cohomology_dims(complex_cohomology(dims, diffs))
    for d, (dim, ker_dim, im_dim, reps) in groups.items():
        require(dim == expected[d], f"H^{d} has dimension {dim}, formality gives {expected[d]}")
        require(ker_dim - im_dim == dim, f"H^{d}: ker - im differs from dim")
        require(len(reps) == dim, f"H^{d}: {len(reps)} representatives for dimension {dim}")
        for rep in reps:
            image = hom_differential_apply(dims, diffs, d, rep)
            require(all(x == 0 for m in image.values() for row in m for x in row), f"H^{d} rep is no cocycle")
    for a_deg, ai, b_deg, bj, ab, ba, str_a in pairings:
        a = groups[a_deg][3][ai]
        b = groups[b_deg][3][bj]
        require(ab == -ba, "pairing is not antisymmetric")
        require(ab == supertrace_of_composite(dims, a_deg, a, b_deg, b), "pairing value differs")
        require(str_a == 0, "supertrace of an odd-degree class is not zero")
