"""Wall enumeration, phase-bound intervals, path simulation, certificates."""

import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from walland import (
    BoxRegion,
    CertificateFailure,
    CharVec,
    DegenerateGeometryError,
    EnumerationBounds,
    LiftedPhase,
    PlanePoint,
    PreconditionError,
    QuadNum,
    SegmentRegion,
    StabPoint,
    SurfaceLattice,
    VTilde,
    ZeroChargeError,
    central_charge,
    collect_leaves,
    derived_dual,
    discriminant,
    dual_reduce,
    enumerate_candidate_walls,
    expected_moduli_dim,
    ext2_vanishing_certificate,
    phase_bound_interval,
    segment_point,
    simulate_destabilization_paths,
    tensor_by_K,
    twist_char,
    vtilde,
    wall_of,
)
from walland import walls
from walland.jsonio import dumps_canonical
from walland.walls import (
    _meet,
    _pencil_ks,
    _ratio,
    _split_w1_ranges,
)

import reference_walls as ref
from test_acceptance import _integral_char, _random_point
from test_reference_walls import ODD_SCALE
from conftest import rand_frac, rand_stab


V = VTilde.make
SP = StabPoint.make


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_bounds_validation(p2):
    with pytest.raises(PreconditionError):
        EnumerationBounds(-1, 2)
    # a float or bool bound is refused, never truncated to an int
    for bad in ((2.9, 5), (2, 5.5), (True, 5), (3, False), (2.0, 5)):
        with pytest.raises(PreconditionError):
            EnumerationBounds(*bad)
        with pytest.raises(PreconditionError):
            EnumerationBounds.coerce(bad)
    with pytest.raises(PreconditionError):
        enumerate_candidate_walls(V(1, 0, 0), BoxRegion(-1, 1, 1, 2), 2.9, 5.5, p2)
    with pytest.raises(PreconditionError):
        simulate_destabilization_paths(SP(0, 1), SP(1, 2), V(1, 0, -1), (True, 5.9), p2)
    assert EnumerationBounds.coerce((2, 3)) == EnumerationBounds(2, 3)
    with pytest.raises(PreconditionError):
        EnumerationBounds.coerce(None)


def test_enumerate_skyscraper_box(p2):
    # rank-zero point class: every wall is vertical
    box = BoxRegion(-1, 1, 1, 2)
    walls = enumerate_candidate_walls(V(0, 0, 1), box, 1, 1, p2)
    coeffs = [c.wall.coeffs for c in walls]
    assert coeffs == [(1, -1, 0), (1, 1, 0)]
    for cand in walls:
        a, b, c = cand.wall.coeffs
        assert c == 0  # vertical: no q dependence
        for w in cand.witnesses:
            assert discriminant(w) >= 0
            assert discriminant(V(0, 0, 1) - w) >= 0


def test_enumerate_segment_pinned(p2):
    seg = SegmentRegion(SP(F(3, 5), F(7, 20)), SP(F(4, 5), F(7, 20)))
    out = enumerate_candidate_walls(V(1, 0, 0), seg, 1, 1, p2)
    assert len(out) == 1
    assert out[0].wall.coeffs == (0, 1, -2)  # q = s/2
    assert out[0].witnesses == (V(1, 1, F(1, 2)),)
    # zero bounds leave nothing to enumerate
    assert enumerate_candidate_walls(V(1, 0, 0), seg, 0, 0, p2) == []


def test_enumerate_walls_pass_through_character_point(p2):
    rng = random.Random(110)
    box = BoxRegion(-2, 2, F(5, 2), 4)
    done = 0
    while done < 20:
        v = V(rng.randint(1, 2), rng.randint(-2, 2), F(rng.randint(-4, 4), 2))
        if discriminant(v) < 0:
            continue
        done += 1
        for cand in enumerate_candidate_walls(v, box, 2, 2, p2):
            assert cand.wall.contains(PlanePoint.make(*v.as_tuple()))
            for w in cand.witnesses:
                assert wall_of(v, w) == cand.wall


@pytest.mark.parametrize(
    "name, v, P, Q",
    [
        # M = 2: the lattice's scale is 1 and v2 has denominator 2
        ("p1xp1_twisted", (2, 1, F(-7, 2)), (-3, 9), (2, 5)),
        # M = 2: the lattice's scale, with a half-integral v2
        ("p2", (2, 1, F(-5, 2)), (-4, 9), (3, 6)),
    ],
)
def test_scan_walls_and_witnesses_built_in_ints(name, v, P, Q, p2, product_surface):
    # both rules build walls and witnesses from the scan's integer triples;
    # each must be the wall_of and the Fractions of the reference scan
    L = {"p2": p2, "p1xp1_twisted": product_surface}[name]
    v, P, Q = V(*v), SP(*P), SP(*Q)
    box = (min(P.s, Q.s), max(P.s, Q.s), F(17, 2), 10)
    public = ref.enumerate_candidate_walls(v, ref.SegmentRegion(P, Q), 3, 5, L)
    scans = [
        (enumerate_candidate_walls(v, SegmentRegion(P, Q), 3, 5, L), public),
        (
            enumerate_candidate_walls(v, BoxRegion(*box), 3, 5, L),
            ref.enumerate_candidate_walls(v, ref.BoxRegion(*box), 3, 5, L),
        ),
    ]
    split = enumerate_candidate_walls(v, SegmentRegion(P, Q), 3, 5, L, split=True)
    assert [(cw.wall.coeffs, cw.witnesses, cw.crossing) for cw in split] == (
        ref.walk_filter(v, P, Q, public)
    )
    for got, want in scans:
        assert [cw.to_dict() for cw in got] == [cw.to_dict() for cw in want]
        assert [cw.witnesses for cw in got] == [cw.witnesses for cw in want]
    for got in [got for got, _ in scans] + [split]:
        assert got
        for cw in got:
            for w in cw.witnesses:
                assert wall_of(v, w) == cw.wall
                assert all(type(x) is F for x in w.as_tuple()), w


def test_enumerate_huge_character_refused_fast(p2):
    # ch2 steps up to about 10^400 survive the corner-sign cut, so the
    # scan is refused before it starts
    seg = SegmentRegion(SP(-1, 3), SP(F(1, 2), 2))
    for v in (V(1, 0, -(10**400)), V(0, 1, 10**400)):
        with pytest.raises(PreconditionError, match="witnesses"):
            enumerate_candidate_walls(v, seg, 1, 1, p2)


def test_enumerate_huge_bounds_refused_fast(p2, product_surface):
    seg = SegmentRegion(SP(-1, 3), SP(F(1, 2), 2))
    with pytest.raises(PreconditionError, match="pairs"):
        enumerate_candidate_walls(V(1, 0, -1), seg, 2, 400, product_surface)
    with pytest.raises(PreconditionError, match="pairs"):
        enumerate_candidate_walls(V(1, 0, -1), seg, 10**9, 0, p2)


def test_enumerate_zero_character_rejected(p2):
    with pytest.raises(ZeroChargeError):
        enumerate_candidate_walls(V(0, 0, 0), BoxRegion(0, 1, 1, 2), 1, 1, p2)


def test_pencil_ks_exact_beyond_float_precision():
    # -A/B = -(10^20 + 1/3) and -(10^20 + 7/3) round to -1e20 in floats, so
    # a float floor or ceil keeps k = -10^20 or drops the two meeting k
    A1, A2 = 3 * 10**20 + 1, 3 * 10**20 + 7
    lo, hi = -(10**20) - 6, -(10**20) + 6
    for sgn in (1, -1):
        forms = [(sgn * A1, sgn * 3), (sgn * A2, sgn * 3)]
        got = [k for span in _pencil_ks(lo, hi, forms) for k in span]
        # the wall meets unless every corner form has one strict sign
        want = [
            k for k in range(lo, hi + 1)
            if not all(A + B * k > 0 for A, B in forms)
            and not all(A + B * k < 0 for A, B in forms)
        ]
        assert got == want == [-(10**20) - 2, -(10**20) - 1]


def test_scan_constants_memo_is_lazy_and_outside_equality(p2):
    L = SurfaceLattice.from_dict(p2.to_dict())
    assert L._scan is None  # nothing is computed at construction
    M, H2, half_DD, classes = L.scan_constants(5)
    assert (M, H2, half_DD) == (2, 2, 0) and len(classes) == 11
    assert all(n == 1 for _, _, n in classes)  # on p2 every class is one c
    assert classes[6] == (2, 1, 1)  # c = h: M*H.c = 2, M*(c^2/2 - D.c) = 1
    assert L.scan_constants(5) is L.scan_constants(5)
    assert L == p2 and hash(L) == hash(p2)
    assert L.scan_constants(2)[3] == classes[3:8]


def test_scan_constants_merge_c1_classes(product_surface):
    # a class is one M*H.c and one M*(c^2/2 - D.c) mod M, counted here by
    # brute force over the c1 box
    L = SurfaceLattice.from_dict(product_surface.to_dict())
    M, _, _, classes = L.scan_constants(5)
    want = Counter()
    for coords in itertools.product(range(-5, 6), repeat=2):
        c = L.divisor(coords)
        b = M * (L.pair(c, c) / 2 - L.pair(L.D, c))
        want[(M * L.pair(L.H, c), b % M)] += 1
    assert len(classes) == 21 and sum(n for _, _, n in classes) == 121
    assert {(a, b): n for a, b, n in classes} == want


def test_class_merge_keeps_refusals(product_surface, monkeypatch):
    # this scan passes 1,749 witnesses counted once per c1 vector, but
    # only 189 counted once per class; its 847 (rank, c1) pairs are under
    # both limits below, so only the witness budget can refuse it
    v, seg = V(2, 1, F(-7, 2)), SegmentRegion(SP(-3, 9), SP(2, 5))
    monkeypatch.setattr(walls, "_SCAN_LIMIT", 1000)
    with pytest.raises(PreconditionError, match="witnesses"):
        enumerate_candidate_walls(v, seg, 3, 5, product_surface)
    monkeypatch.setattr(walls, "_SCAN_LIMIT", 1749)
    assert enumerate_candidate_walls(v, seg, 3, 5, product_surface)


# ---------------------------------------------------------------------------
# the split rule
# ---------------------------------------------------------------------------


def _strict_sign_oracle(ends):
    # every form's sign is constant between consecutive zeros, so test the
    # ends, the zeros and the midpoints between them
    ts = {F(0), F(1)}
    for x, y in ends:
        if x != y and 0 <= F(x, x - y) <= 1:
            ts.add(F(x, x - y))
    ts = sorted(ts)
    ts += [(a + b) / 2 for a, b in zip(ts, ts[1:])]
    for t in ts:
        vals = [(1 - t) * x + t * y for x, y in ends]
        if all(z > 0 for z in vals) or all(z < 0 for z in vals):
            return True
    return False


def _split_forms(m, S0, S1, d0, d1, W0, W1):
    # n, d and d - n at the segment's start and end, off a vertical wall
    n0, n1 = m * W1 - S0 * W0, m * W1 - S1 * W0
    return [(n0, n1), (d0, d1), (d0 - n0, d1 - n1)]


def _assert_w1_ranges_match_oracle(m, S0, S1, d0, d1, W0):
    """The kinds of case that (m, S0, S1, d0, d1, W0) covers."""
    ranges = _split_w1_ranges(m, S0, S1, d0, d1, W0)
    ends = [x for r in ranges for x in r] + [0]
    for W1 in range(min(ends) - 4, max(ends) + 5):
        got = any(lo <= W1 <= hi for lo, hi in ranges)
        want = _strict_sign_oracle(_split_forms(m, S0, S1, d0, d1, W0, W1))
        assert got == want, (m, S0, S1, d0, d1, W0, W1, ranges)
    kinds = set()
    if d0 * d1 < 0:
        kinds.add("d changes sign")
    if (d0 == 0) != (d1 == 0):
        kinds.add("d = 0 at one end")
    if S0 == S1:
        kinds.add("constant s")
    if d0 == d1:  # V0 = 0: d = m*V1 all along
        kinds.add("V0 = 0")
    if W0 == 0:
        kinds.add("W0 = 0")
    kept = [(lo, hi) for lo, hi in ranges if lo <= hi]
    if len(kept) == 2 and max(lo for lo, _ in kept) <= min(hi for _, hi in kept):
        kinds.add("overlapping ranges")
    return kinds


def test_split_w1_ranges_match_oracle():
    # the W1 inside the ranges are exactly those for which some t in [0, 1]
    # gives n, d and d - n one strict sign
    kinds = set()
    # (m, S0, S1, d0, d1, W0): the first SPLIT_EDGES case starts on v's
    # vertical, d = 0 at t = 0; d = -3 + 5t changes sign at t = 3/5, and
    # the two sign ranges of W1, [10, 10] and [10, 11], overlap
    for case in ((1, -1, -5, 0, 8, 2), (1, -4, -3, -3, 2, -3), (3, 2, 2, -5, 7, -4),
                 (1, -1, 3, 5, 5, 0), (2, -3, 1, -6, -6, 4)):
        kinds |= _assert_w1_ranges_match_oracle(*case)
    rng = random.Random(7101)
    for _ in range(800):
        m = rng.randint(1, 4)
        S0, S1 = rng.randint(-9, 9), rng.randint(-9, 9)
        d0, d1 = rng.randint(-9, 9), rng.randint(-9, 9)
        kinds |= _assert_w1_ranges_match_oracle(m, S0, S1, d0, d1, rng.randint(-6, 6))
    assert kinds == {
        "d changes sign", "d = 0 at one end", "constant s", "V0 = 0", "W0 = 0",
        "overlapping ranges",
    }
    # zeros of the three forms that meet at one t leave no W1: d = 1 - 2t and
    # n = 2 - 4t for m = 1, W0 = 4, W1 = 2 share the zero t = 1/2
    assert _strict_sign_oracle(_split_forms(1, 0, 1, 1, -1, 4, 2)) is False
    assert all(not lo <= 2 <= hi for lo, hi in _split_w1_ranges(1, 0, 1, 1, -1, 4))


def test_ratio_is_scaled_charge_ratio_at_meet_points():
    # at each point (g, g*s, g*q) that _meet returns, _ratio is g times the
    # ratio of the charges at (s, q): Re parts on a vertical wall, else Im
    rng = random.Random(7102)
    kinds = set()
    for _ in range(600):
        v = tuple(rng.randint(-6, 6) for _ in range(3))
        w = tuple(rng.randint(-6, 6) for _ in range(3))
        # det(v, w, c) = c . (v x w)
        normal = (
            v[1] * w[2] - v[2] * w[1],
            v[2] * w[0] - v[0] * w[2],
            v[0] * w[1] - v[1] * w[0],
        )
        m = rng.randint(1, 5)
        S0, S1 = sorted(rng.randint(-9, 9) for _ in range(2))
        T0, T1 = sorted(rng.randint(1, 20) for _ in range(2))
        if rng.random() < 0.5:
            ring = ((m, S0, rng.randint(1, 20)), (m, S1, rng.randint(1, 20)))
        else:
            ring = ((m, S0, T0), (m, S0, T1), (m, S1, T1), (m, S1, T0))
        f = [sum(a * b for a, b in zip(c, normal)) for c in ring]
        vertical = normal[2] == 0
        for point in _meet(ring, f):
            g, gs, gq = point
            assert sum(a * b for a, b in zip(point, normal)) == 0
            s, q = F(gs, g), F(gq, g)
            zv, zw = central_charge((s, q), V(*v)), central_charge((s, q), V(*w))
            n, d = (zw.re, zv.re) if vertical else (zw.im, zv.im)
            assert _ratio(v, w, vertical, point) == (g * n, g * d), (v, w, ring)
            kind = "corner" if point in ring else ("segment", "box")[len(ring) == 4]
            kinds.add((kind, g > 0))
    assert kinds >= {
        ("corner", True), ("segment", True), ("segment", False), ("box", True), ("box", False)
    }


def _split_scan(v, P, Q, L, bounds=(3, 5)):
    return [
        (cw.wall.coeffs, cw.witnesses, cw.crossing)
        for cw in enumerate_candidate_walls(
            v, SegmentRegion(P, Q), *bounds, L, split=True
        )
    ]


def _walk_filter(v, P, Q, L, bounds=(3, 5)):
    public = enumerate_candidate_walls(v, SegmentRegion(P, Q), *bounds, L)
    return ref.walk_filter(v, P, Q, public)


def test_split_rule_needs_a_segment(p2):
    with pytest.raises(PreconditionError, match="segment"):
        enumerate_candidate_walls(V(1, 0, -1), BoxRegion(-1, 1, 1, 2), 1, 1, p2, split=True)


def test_split_rule_skips_walls_through_segment_ends(p2):
    # the walk from P crosses the wall (2, 3, 2) at R, t = 2/3; walks that
    # start or end at R meet it there but never cross it
    v = V(1, 0, -1)
    P, R, Q = SP(F(-7, 4), F(7, 4)), SP(F(-17, 12), F(9, 8)), SP(F(-5, 4), F(13, 16))
    public = enumerate_candidate_walls(v, SegmentRegion(R, Q), 3, 5, p2)
    (cand,) = [c for c in public if c.wall.coeffs == (2, 3, 2)]
    w = V(0, 1, F(-3, 2))
    assert w in cand.witnesses
    zv, zw = central_charge(R, v), central_charge(R, w)
    assert 0 < zw.im / zv.im < 1  # it would split at R
    for start, end in ((R, Q), (P, R)):
        assert _split_scan(v, start, end, p2) == _walk_filter(v, start, end, p2) == []
        assert simulate_destabilization_paths(start, end, v, (3, 5), p2).events == []
    (event,) = simulate_destabilization_paths(P, Q, v, (3, 5), p2).events
    assert (event.t, event.R, event.wall.coeffs) == (F(2, 3), R, (2, 3, 2))


def test_split_rule_vertical_pair_decided_in_q(p2):
    # the segment crosses v's vertical wall s = 0 at R = (0, 3/2), where
    # Im Z(v) = 0: the split is decided by Re Z(w) / Re Z(v), a function of q
    v = V(1, 0, -1)
    P, Q = SP(F(-1, 2), 2), SP(F(1, 2), 1)
    got = _split_scan(v, P, Q, p2)
    assert got == _walk_filter(v, P, Q, p2)
    assert got == [((0, 1, 0), (V(0, 0, -1), V(1, 0, 0)), F(1, 2))]
    R = segment_point(P, Q, F(1, 2))
    assert central_charge(R, v) == (R.q + 1, 0)
    assert [central_charge(R, w).re / (R.q + 1) for w in got[0][1]] == [
        1 / (R.q + 1), R.q / (R.q + 1),
    ]
    (event,) = simulate_destabilization_paths(P, Q, v, (3, 5), p2).events
    assert (event.t, event.wall.coeffs, len(event.splits)) == (F(1, 2), (0, 1, 0), 1)
    assert {event.splits[0].w, event.splits[0].u} == {V(0, 0, -1), V(1, 0, 0)}


def _rand_q_zero_char(rng, L):
    # v1^2 = 2*v0*v2: rank zero with c1.H = 0, or a point of the parabola
    H2 = L.pair(L.H, L.H)
    c1 = L.pair(L.H, L.divisor([rng.randint(-3, 3) for _ in range(L.rank)]))
    r = rng.choice((0, 0, 1, -1, 2, -2, 3))
    if r == 0:
        return V(0, 0, rng.choice((-1, 1)) * F(rng.randint(1, 12), rng.randint(1, 2)))
    return V(H2 * r, c1, c1 * c1 / (2 * H2 * r))


@pytest.mark.parametrize("name", ["p2", "p1xp1_twisted"])
def test_split_rule_no_splits_at_discriminant_zero(name, p2, product_surface):
    # Q = v1^2 - 2*v0*v2 is negative on ker Z above the parabola, so a
    # split v = w + u with Q(w), Q(u) >= 0 and Z(w), Z(u) on one ray has
    # Q(w), Q(u) < Q(v): for Q(v) = 0 that window is empty and the scan
    # returns []
    L = {"p2": p2, "p1xp1_twisted": product_surface}[name]
    bounds = (3, 5) if L.rank == 1 else (1, 2)
    rng = random.Random(7103)
    walls_seen = kinds = 0
    for _ in range(8):
        v = _rand_q_zero_char(rng, L)
        assert discriminant(v) == 0
        kinds |= 1 << (v.v0 == 0)
        P, Q = rand_stab(rng), rand_stab(rng)
        for t0 in (F(0), F(rng.randint(1, 6), 7)):
            start = segment_point(P, Q, t0)
            public = ref.enumerate_candidate_walls(v, ref.SegmentRegion(start, Q), *bounds, L)
            walls_seen += len(public)
            assert _split_scan(v, start, Q, L, bounds) == ref.walk_filter(v, start, Q, public) == []
    assert kinds == 3 and walls_seen > 0  # rank zero and v on the parabola
    # the bounds are checked first
    with pytest.raises(PreconditionError, match="bounds allow over"):
        _split_scan(V(0, 0, 1), SP(-1, 3), SP(1, 3), L, (10**9, 0))


def test_split_witness_charge_pinned(product_surface, monkeypatch):
    # this split scan charges 1,398 witnesses, counted once per c1 vector:
    # the k inside the discriminant window that _pencil_ks leaves; its 847
    # (rank, c1) pairs are under both limits below, so only the witness
    # budget can refuse it
    v, seg = V(4, 3, F(-31, 2)), SegmentRegion(SP(-3, 9), SP(2, 5))
    monkeypatch.setattr(walls, "_SCAN_LIMIT", 1397)
    with pytest.raises(PreconditionError, match="witnesses"):
        enumerate_candidate_walls(v, seg, 3, 5, product_surface, split=True)
    monkeypatch.setattr(walls, "_SCAN_LIMIT", 1398)
    assert enumerate_candidate_walls(v, seg, 3, 5, product_surface, split=True)


# constant s, so the per-pair s-range is one point, and a rank-zero v; in
# both the pencil forms of the two ends have one slope in k
_EQUAL_SLOPES = {
    "constant-s": (
        ((-3, -1, F(13, 2)), (F(-3, 4), F(379, 96)), (F(-3, 4), F(17, 32))),
        [(15, (2, 33, 6), 1), (67, (1, 10, 2), 1), (119, (4, 27, 6), 1),
         (223, (2, 7, 2), 3), (275, (7, 18, 6), 1), (327, (8, 15, 6), 2)],
        328, 25,
    ),
    "rank-0": (
        ((0, 5, F(3, 2)), (1, F(13, 6)), (F(1, 4), F(35, 96))),
        [(128, (16, 3, -10), 1), (224, (14, 3, -10), 1), (512, (8, 3, -10), 1),
         (608, (6, 3, -10), 1), (704, (4, 3, -10), 1), (752, (3, 3, -10), 1)],
        757, 19,
    ),
}


@pytest.mark.parametrize("name", sorted(_EQUAL_SLOPES))
def test_split_rule_equal_pencil_slopes(name, p2):
    (v, P, Q), events, den, leaves = _EQUAL_SLOPES[name]
    v, P, Q = V(*v), SP(*P), SP(*Q)
    ring = SegmentRegion(P, Q).ring
    # the pencil form's slope in k is M*(m*v1 - S*v0) at a corner (m, S, q)
    assert len({m * v.v1 - S * v.v0 for m, S, _ in ring}) == 1
    got = _split_scan(v, P, Q, p2)
    assert got and got == _walk_filter(v, P, Q, p2)
    root = simulate_destabilization_paths(P, Q, v, (3, 5), p2)
    assert [(e.t, e.wall.coeffs, len(e.splits)) for e in root.events] == [
        (F(t, den), coeffs, n) for t, coeffs, n in events
    ]
    assert len(collect_leaves(root)) == leaves


# ---------------------------------------------------------------------------
# phase-bound intervals
# ---------------------------------------------------------------------------


def test_interval_collapses_when_endpoints_coincide():
    P = SP(-1, 1)
    itv = phase_bound_interval(P, P, V(1, 0, 0))
    anchor = LiftedPhase(0, (1, 1))
    assert itv.lo.compare(itv.hi) == 0
    assert itv.lo.compare(anchor) == 0
    assert itv.contains(anchor)


def test_interval_degenerate_endpoint_label():
    # plane point of (1,0,0) lies on the parabola and equals endpoint B
    itv = phase_bound_interval(SP(-1, 1), SP(0, 1), V(1, 0, 0))
    assert itv.degenerate_endpoint == "B"
    assert itv.A == (-2, 2)
    assert itv.B == (0, 0)


def test_interval_radical_endpoints():
    itv = phase_bound_interval(SP(0, 1), SP(1, 2), V(1, -1, -1))
    r6 = QuadNum(0, 1, 6)
    assert itv.A == (2 - r6, 5 - 2 * r6)
    assert itv.B == (2 + r6, 5 + 2 * r6)
    assert itv.chord.slope() == 2 and itv.chord.y_intercept() == 1
    assert itv.degenerate_endpoint is None
    assert itv.labels == {"lo": "A", "hi": "B"}
    assert itv.lo.n == 0 and itv.hi.n == 0
    # hand-derived endpoint rays at Q = (1, 2)
    assert itv.lo.ray == (QuadNum(-3, 2, 6), QuadNum(1, -1, 6))
    assert itv.hi.ray == (QuadNum(3, 2, 6), QuadNum(-1, -1, 6))
    assert itv.lo.compare(itv.hi) == -1


def test_interval_rejects_zero_and_kernel():
    P, Q = SP(-1, 1), SP(0, 1)
    with pytest.raises(ZeroChargeError):
        phase_bound_interval(P, Q, V(0, 0, 0))
    with pytest.raises(PreconditionError):
        phase_bound_interval(P, Q, V(1, -1, 1))  # charge vanishes at P


def test_interval_anchor_inside_window_fuzz():
    # deforming to Q = P keeps the anchor phase strictly inside the lifted
    # window; small deformations keep it weakly inside
    rng = random.Random(424)
    done = 0
    while done < 200:
        P = rand_stab(rng)
        v = V(*(rand_frac(rng) for _ in range(3)))
        if v.is_zero:
            continue
        z = central_charge(P, v)
        if z.is_zero:
            continue
        try:
            itv = phase_bound_interval(P, P, v)
        except DegenerateGeometryError:
            continue
        assert itv.contains(itv.anchor)
        done += 1


# ---------------------------------------------------------------------------
# destabilization paths
# ---------------------------------------------------------------------------


def test_simulate_no_walls_single_leaf(p2):
    # the stated segment meets no wall of (1,0,-1) at these bounds: the
    # walk degenerates to transporting the lift
    P, Q = SP(-2, F(5, 2)), SP(F(-1, 2), F(3, 4))
    root = simulate_destabilization_paths(P, Q, V(1, 0, -1), (3, 5), p2)
    assert root.events == []
    leaves = collect_leaves(root)
    assert len(leaves) == 1
    char, lift = leaves[0]
    assert char == V(1, 0, -1)
    itv = phase_bound_interval(P, Q, V(1, 0, -1))
    assert itv.contains(lift)


def test_simulate_crossing_segment_pinned(p2):
    P, Q = SP(F(-7, 4), F(7, 4)), SP(F(-5, 4), F(13, 16))
    v = V(1, 0, -1)
    root = simulate_destabilization_paths(P, Q, v, (3, 5), p2)
    assert len(root.events) == 1
    ev = root.events[0]
    assert ev.t == F(2, 3)
    assert (ev.R.s, ev.R.q) == (F(-17, 12), F(9, 8))
    assert ev.wall.coeffs == (2, 3, 2)
    got = {
        tuple(sorted((sp.w.as_tuple(), sp.u.as_tuple()))) for sp in ev.splits
    }
    assert got == {
        tuple(sorted(((0, 1, F(-3, 2)), (1, -1, F(1, 2))))),
        tuple(sorted(((-1, 2, -2), (2, -2, 1)))),
    }
    leaves = collect_leaves(root)
    assert len(leaves) == 5
    itv = phase_bound_interval(P, Q, v)
    vals = []
    for char, lift in leaves:
        assert itv.contains(lift)
        vals.append(lift.approx())
    expect = [0.192179, 0.179309, 0.214777, 0.187167, 0.214777]
    assert sorted(vals) == pytest.approx(sorted(expect), abs=1e-5)


def _walk(node, check):
    check(node)
    for ev in node.events:
        for sp in ev.splits:
            _walk(sp.w_node, check)
            _walk(sp.u_node, check)


def test_simulate_split_conservation(p2):
    P, Q = SP(F(-7, 4), F(7, 4)), SP(F(-5, 4), F(13, 16))
    root = simulate_destabilization_paths(P, Q, V(1, 0, -1), (3, 5), p2)

    def check(node):
        for ev in node.events:
            assert node.t_start < ev.t <= 1
            for sp in ev.splits:
                # factors sum to the walked character
                assert sp.w + sp.u == node.char
                assert sp.w_node.t_start == ev.t
                assert sp.u_node.t_start == ev.t
                # both factors share the parent's ray at the crossing
                zR = central_charge(ev.R, node.char)
                zw = central_charge(ev.R, sp.w)
                assert zR.re * zw.im == zR.im * zw.re

    _walk(root, check)


# instances 3, 8, 27 and 28 of the criterion-2 corpus (seed 1002): (v, P, Q)
_SPLIT_CORPUS = (
    ((1, 1, F(-11, 2)), (F(3, 2), F(33, 8)), (F(-11, 2), F(863, 56))),
    ((2, 2, -1), (F(9, 4), F(403, 96)), (F(-12, 7), F(948, 245))),
    ((3, 1, F(-15, 2)), (1, F(11, 6)), (F(-1, 3), F(47, 36))),
    ((3, -5, F(-1, 2)), (F(5, 3), F(269, 90)), (F(-9, 5), F(128, 25))),
)
# sha256 of the canonical JSON of their trees
_SPLIT_DIGEST = "7873fbef6032aea2f4259247a1e7d56b76d6d6e41ec906fa5b089b149203ce66"
# sha256 of the canonical JSON of the phase windows of all 200 instances
_WINDOW_DIGEST = "2835bd7723940f50b9eec544333494c309e75b64d03b8453e49afedf7adab2c8"
# sha256 of the canonical JSON of the trees of all 200 instances
_TREES_DIGEST = "702327642845ac19f105f99df8fce64ab48aa71e225c6fa865fb43c0165d4724"
# sha256 of the canonical JSON of the certificates and CertificateFailures
# (message and payload) of _certificate_corpus
_CERTIFICATE_DIGEST = "da81bfed0780bca39d3e5b095c3a638aae0f13836a1aaa35dd9bdaaf3db2e948"
_CERTIFICATE_DIGEST_DK = "6741b3539dc06a574c6d4335fe35a9e21905c56d292b6deb0ce112f2d77b3b63"


def test_simulate_split_choice_pinned(p2):
    # every split below is chosen by the ratio test at its crossing, and
    # some crossings are on vertical walls, where the ratio is Re/Re
    trees = []
    kinds = set()

    def check(node):
        kinds.update(ev.wall.is_vertical for ev in node.events)

    for v, P, Q in _SPLIT_CORPUS:
        root = simulate_destabilization_paths(SP(*P), SP(*Q), V(*v), (3, 5), p2)
        _walk(root, check)
        trees.append(root.to_dict())
    assert kinds == {False, True}
    digest = hashlib.sha256(dumps_canonical(trees).encode()).hexdigest()
    assert digest == _SPLIT_DIGEST


def _criterion2_corpus():
    """(v, P, Q, window) of the 200 instances, drawn as test_acceptance draws them."""
    rng = random.Random(1002)
    out = []
    while len(out) < 200:
        v = _integral_char(rng)
        P, Q = _random_point(rng), _random_point(rng)
        if central_charge(P, v).is_zero:
            continue
        try:
            out.append((v, P, Q, phase_bound_interval(P, Q, v)))
        except (DegenerateGeometryError, PreconditionError):
            continue
    return out


def test_criterion2_windows_pinned():
    # the 200 windows of the criterion-2 corpus keep their bytes
    docs = [window.to_dict() for _, _, _, window in _criterion2_corpus()]
    digest = hashlib.sha256(dumps_canonical(docs).encode()).hexdigest()
    assert digest == _WINDOW_DIGEST


def test_criterion2_trees_pinned(p2):
    # the 200 destabilization trees of the criterion-2 corpus keep their bytes
    trees = [
        simulate_destabilization_paths(P, Q, v, (3, 5), p2).to_dict()
        for v, P, Q, _ in _criterion2_corpus()
    ]
    digest = hashlib.sha256(dumps_canonical(trees).encode()).hexdigest()
    assert digest == _TREES_DIGEST


def test_simulate_leaves_in_interval_fuzz(p2):
    # Bogomolov-nonnegative walked characters, as in the containment lemma
    rng = random.Random(9950)
    done = 0
    while done < 25:
        P = rand_stab(rng, 4, 3)
        Q = rand_stab(rng, 4, 3)
        v = V(rng.randint(0, 2), rng.randint(-3, 3), F(rng.randint(-6, 6), 2))
        if v.is_zero or discriminant(v) < 0 or central_charge(P, v).is_zero:
            continue
        try:
            itv = phase_bound_interval(P, Q, v)
        except (DegenerateGeometryError, PreconditionError):
            continue
        root = simulate_destabilization_paths(P, Q, v, (2, 3), p2)
        for char, lift in collect_leaves(root):
            assert itv.contains(lift)
        done += 1


def test_simulate_scans_no_character_without_splits(p2, monkeypatch):
    # a character with v1^2 - 2*v0*v2 = 0 has no split: its node makes no
    # scan, but the walk still refuses the bounds the scan refuses
    scanned = []
    scan = walls.enumerate_candidate_walls

    def spy(char, *args, **kwargs):
        scanned.append(char)
        return scan(char, *args, **kwargs)

    def flat(x):
        return x.v1 * x.v1 == 2 * x.v0 * x.v2

    monkeypatch.setattr(walls, "enumerate_candidate_walls", spy)
    P, Q = SP(F(-7, 4), F(7, 4)), SP(F(-5, 4), F(13, 16))
    nodes = []
    _walk(simulate_destabilization_paths(P, Q, V(1, 0, -1), (3, 5), p2), nodes.append)
    assert sum(flat(node.char) for node in nodes) == 3
    assert scanned == [node.char for node in nodes if not flat(node.char)]
    root = simulate_destabilization_paths(SP(0, 1), SP(1, 2), V(1, 0, 0), (3, 5), p2)
    assert root.events == [] and len(scanned) == 2
    assert walls._SCAN_LIMIT < 2001 * 2001
    for v in (V(1, 0, 0), V(2, 2, 1), V(0, 0, 1)):
        with pytest.raises(PreconditionError, match="bounds allow over"):
            simulate_destabilization_paths(SP(0, 1), SP(1, 2), v, (1000, 1000), p2)


def test_simulate_rejects_degenerate_starts(p2):
    with pytest.raises(ZeroChargeError):
        simulate_destabilization_paths(SP(0, 1), SP(1, 2), V(0, 0, 0), (1, 1), p2)
    with pytest.raises(PreconditionError):
        simulate_destabilization_paths(SP(0, 1), SP(1, 2), V(1, 0, 1), (1, 1), p2)


# ---------------------------------------------------------------------------
# moduli dimension and duality
# ---------------------------------------------------------------------------


def test_expected_moduli_dim_examples(p2):
    assert expected_moduli_dim(CharVec.make(1, [0], 0), p2) == 0
    assert expected_moduli_dim(CharVec.make(1, [0], -2), p2) == 4
    assert expected_moduli_dim(CharVec.make(0, [0], 1), p2) == 1
    for n in (1, 2, 3):
        assert expected_moduli_dim(CharVec.make(1, [0], -n), p2) == 2 * n


def test_dual_reduce_involution(p2):
    rng = random.Random(37)
    for _ in range(50):
        ch = CharVec.make(
            rng.randint(-3, 3), [rng.randint(-3, 3)], rand_frac(rng, 6, 2)
        )
        s = rand_frac(rng)
        ch2, D2, s2 = dual_reduce(ch, p2.D, s)
        assert s2 == -s
        ch3, D3, s3 = dual_reduce(ch2, D2, s2)
        assert ch3 == ch and s3 == s and D3 == p2.D


def test_mirror_projection_flips_v1(p2, quartic, product_surface):
    # ext2_vanishing_certificate reads ch once as (r, k), k = K.c1^D =
    # K.c1 - r*D.K, and takes vK, the dual and the shifted dual from it and
    # v: (v0, -v1, v2) is the mirror's projection.  Here k is also read off
    # the twisted character, and each reading is checked against the
    # characters and lattices that the certificate does not build.
    def reading(ch, L):
        k = L.pair(L.K, ch.c1) - ch.r * L.DK
        assert k == L.pair(L.K, twist_char(ch, L).c1)
        return ch.r, k

    odd = [SurfaceLattice.from_dict(ODD_SCALE[name]) for name in sorted(ODD_SCALE)]
    rng = random.Random(2708)
    for L in [p2, quartic, product_surface] + odd:
        L2 = L.mirrored()
        assert (L2.HH, L2.HK, L2.KK) == (L.HH, L.HK, L.KK)
        for _ in range(40):
            ch = CharVec.make(
                rng.randint(-3, 3),
                [rng.randint(-4, 4) for _ in range(L.rank)],
                rand_frac(rng, 9, 2),
            )
            v = vtilde(ch, L)
            r, k = reading(ch, L)
            vK = V(v.v0, v.v1 + r * L.HK, v.v2 + k + r * L.KK / 2)
            assert vK == vtilde(tensor_by_K(ch, L), L)
            dual, mirror = derived_dual(ch), V(v.v0, -v.v1, v.v2)
            assert (reading(dual, L2), vtilde(dual, L2)) == ((r, -k), mirror)
            assert (reading(-dual, L2), vtilde(-dual, L2)) == ((-r, k), -mirror)
    assert any(product_surface.D.coords)  # the D.c1 term is exercised
    # the blow-up with D in thirds has D.K = -1/3 and K not a multiple of H;
    # on p1xp1_twisted K = -2H, so D.K = 0 there
    assert [L.DK for L in odd] == [F(-1, 3), 0] and product_surface.DK == 0


# ---------------------------------------------------------------------------
# vanishing certificates
# ---------------------------------------------------------------------------


def test_certificate_dominance_worked_example(p2):
    cert = ext2_vanishing_certificate(SP(-1, 1), V(1, 0, 0), CharVec.make(1, [0], 0), p2)
    assert cert.branch == "PhaseDominance"
    assert cert.inner is None
    d = cert.data
    assert d["Q"] == {"s": "-4", "q": "17/2"}
    assert d["vK"] == ["1", "-3", "9/2"]
    assert [p["a"] for p in d["A"]] == ["-2", "2"]
    assert [p["a"] for p in d["B"]] == ["0", "0"]
    assert [p["a"] for p in d["Ap"]] == ["-5", "25/2"]
    assert [p["a"] for p in d["Bp"]] == ["-3", "9/2"]
    lo = d["interval"]["lo"]["approx"]
    assert d["twisted_phase"]["approx"] < lo


def test_certificate_segments_branch(p2):
    # rank-zero class with slope-two chord: the twisted chord crosses it
    # strictly above the parabola
    cert = ext2_vanishing_certificate(SP(-1, 1), V(0, 1, 2), CharVec.make(0, [1], 2), p2)
    assert cert.branch == "SegmentsIntersect"
    assert cert.data["R"] == {"s": "1/2", "q": "4"}
    lam_v = cert.data["phase_at_R"]["approx"]
    lam_k = cert.data["twisted_phase_at_R"]["approx"]
    assert lam_v > lam_k


def test_certificate_dual_branch(p2):
    # shifted rank -1 class viewed right of its plane point
    ch = CharVec.make(-1, [-3], -2)
    v = vtilde(ch, p2)
    assert v == V(-1, -3, -2)
    cert = ext2_vanishing_certificate(SP(4, 9), v, ch, p2)
    assert cert.branch == "DualReduction"
    assert cert.data["P_mirror"] == {"s": "-4", "q": "9"}
    assert cert.data["shift_normalized"] is True
    assert cert.inner is not None
    # mirrored chords cross at (-17/2, 81/2), above the parabola
    assert cert.inner.branch == "SegmentsIntersect"
    assert cert.inner.data["R"] == {"s": "-17/2", "q": "81/2"}


def test_certificate_nearby_branch(p2):
    # only shifted classes (negative leading entry) reach the heart on the
    # alignment line s = x_v, where the charge is negative real
    ch = CharVec.make(-1, [-3], -2)
    cert = ext2_vanishing_certificate(SP(3, 5), vtilde(ch, p2), ch, p2)
    assert cert.branch == "NearbyStability"
    assert cert.data["P_perturbed"] == {"s": "25/8", "q": "5"}
    assert cert.inner.branch == "DualReduction"


def test_certificate_preconditions(p2, quartic):
    ch = CharVec.make(1, [0], 0)
    with pytest.raises(PreconditionError):
        ext2_vanishing_certificate(SP(0, 1), V(1, 0, 0), CharVec.make(1, [0], 1), p2)
    # heart sign fails at a right-side parameter for a positive-rank class
    with pytest.raises(PreconditionError):
        ext2_vanishing_certificate(SP(1, 1), V(1, 0, 0), ch, p2)
    # negative discriminant
    with pytest.raises(PreconditionError):
        ext2_vanishing_certificate(SP(-1, 1), V(1, 0, 1), CharVec.make(1, [0], 1), p2)
    # quartic surface sits outside the anticanonical regime
    chq = CharVec.make(1, [0], 0)
    with pytest.raises(PreconditionError):
        ext2_vanishing_certificate(SP(-1, 1), vtilde(chq, quartic), chq, quartic)


def test_certificate_refuses_wrong_argument_types(p2):
    # a wrong type is refused at entry, before any attribute of it is read
    ch = CharVec.make(-1, [1], 2)
    P, v = SP(3, 6), vtilde(ch, p2)
    cases = {
        "StabPoint": ((3, 6), v, ch, p2),
        "VTilde": (P, (-1, 1, 2), ch, p2),
        "CharVec": (P, v, (-1, [1], 2), p2),
        "SurfaceLattice": (P, v, ch, None),
    }
    for kind, args in cases.items():
        with pytest.raises(PreconditionError, match=f"certificate needs a {kind}, not "):
            ext2_vanishing_certificate(*args)
    assert ext2_vanishing_certificate(P, v, ch, p2).branch == "DualReduction"


def test_float_entries_refused(p2):
    # StabPoint and VTilde built directly, not by make, take any entries; a
    # float reaches the integer reading (plane._den_lcm) and is refused there
    ch = CharVec.make(1, [0], 0)
    P, Q, P_float = SP(-1, 1), SP(1, 1), StabPoint(-1.0, 1.0)
    v_float = VTilde(1.0, 0, 0)
    assert v_float == vtilde(ch, p2)  # so the certificate's entry check passes it
    calls = {
        "-1.0": [
            lambda: ext2_vanishing_certificate(P_float, vtilde(ch, p2), ch, p2),
            lambda: phase_bound_interval(P_float, Q, V(1, 0, 0)),
        ],
        "1.0": [
            lambda: ext2_vanishing_certificate(P, v_float, ch, p2),
            lambda: simulate_destabilization_paths(P, Q, v_float, (1, 1), p2),
            lambda: enumerate_candidate_walls(v_float, SegmentRegion(P, Q), 1, 1, p2),
        ],
    }
    for entry, fns in calls.items():
        for fn in fns:
            with pytest.raises(PreconditionError, match=f"^entry {entry} is not a rational$"):
                fn()


def test_certificate_checks_projection_once(p2, monkeypatch):
    # a v that is not vtilde(ch) is refused before any branch runs
    ch = CharVec.make(-1, [1], 2)
    with pytest.raises(PreconditionError, match="character projection does not match v"):
        ext2_vanishing_certificate(SP(3, 6), vtilde(ch, p2) + V(0, 0, 1), ch, p2)
    # the character is read once at entry as (r, K.c1^D): the dual branch
    # reads the mirror off it and v, and the left branch writes vK in closed
    # form, so the top check is the only call, and neither builds the
    # mirror lattice, a dual character or a twisted one
    P = SP(3, 6)
    want = ext2_vanishing_certificate(P, vtilde(ch, p2), ch, p2)
    calls = []

    def refuse(*args):
        raise AssertionError("the certificate builds no mirror, dual or twist")

    monkeypatch.setattr(walls, "vtilde", lambda c, L: calls.append(c) or vtilde(c, L))
    monkeypatch.setattr(SurfaceLattice, "mirrored", refuse)
    monkeypatch.setattr(walls, "derived_dual", refuse)
    monkeypatch.setattr(walls, "tensor_by_K", refuse, raising=False)
    assert ext2_vanishing_certificate(P, vtilde(ch, p2), ch, p2) == want
    assert want.branch == "DualReduction" and len(calls) == 1
    # the document as derived_dual on the mirror lattice and tensor_by_K give it
    assert want.data["v_mirror"] == ["1", "1", "-2"]
    assert want.inner.data["vK"] == ["1", "-2", "-1/2"]
    digest = hashlib.sha256(dumps_canonical(want.to_dict()).encode()).hexdigest()
    assert digest == "ccba26298607e6ac39ae24dad07c7b722f55b441d9c88a5bf20d62e7d1a7c79f"


def test_certificate_failure_payload(p2):
    ch = CharVec.make(0, [0], 1)
    with pytest.raises(CertificateFailure) as exc:
        ext2_vanishing_certificate(SP(-1, 1), V(0, 0, 1), ch, p2)
    payload = exc.value.payload
    assert payload["v"] == ["0", "0", "1"]
    assert set(payload) >= {"P", "Q", "v", "vK"}


def test_certificate_fuzz_left_side(p2):
    # random positive-rank classes viewed from the left always certify
    rng = random.Random(6621)
    done = 0
    while done < 40:
        r = rng.randint(1, 3)
        c = rng.randint(-3, 3)
        ch = CharVec.make(r, [c], F(rng.randint(-8, 8), 2))
        v = vtilde(ch, p2)
        if discriminant(v) < 0:
            continue
        x_v = v.v1 / v.v0
        s = x_v - F(rng.randint(1, 8), 4)
        q = s * s / 2 + F(rng.randint(1, 8), 4)
        P = StabPoint(s, q)
        try:
            cert = ext2_vanishing_certificate(P, v, ch, p2)
        except CertificateFailure as exc:
            pytest.fail(f"certificate refused: {exc} {exc.payload}")
        assert cert.branch in ("PhaseDominance", "SegmentsIntersect")
        done += 1


def _certificate_corpus(*lattices):
    """(P, ch, L) seeded on the lattices, in order; every v has a heart charge at P.

    Per surface: parameters left of, right of and on the vertical of v's
    plane point, and rank-zero classes, among them skyscrapers.
    """
    rng = random.Random(2707)
    out = []
    for L in lattices:
        for kind, count in (("left", 60), ("right", 60), ("aligned", 20), ("rank0", 300)):
            done = 0
            while done < count:
                small = kind == "rank0"
                r = 0 if small else rng.randint(-3, 3)
                c1 = [rng.randint(-3, 3) if small else rng.randint(-4, 4) for _ in range(L.rank)]
                ch = CharVec.make(r, c1, F(rng.randint(-8, 8), rng.randint(1, 2)))
                v = vtilde(ch, L)
                if v.is_zero or discriminant(v) < 0 or (v.v0 == 0) != small:
                    continue
                if kind == "aligned":
                    if v.v0 > 0:
                        continue
                    s = v.v1 / v.v0
                else:
                    s = F(rng.randint(-12, 12), rng.randint(1, 2 if small else 4))
                    if v.v0 and (s == v.v1 / v.v0 or (s < v.v1 / v.v0) != (kind == "left")):
                        continue
                q = s * s / 2 + F(rng.randint(1, 8), rng.randint(1, 2 if small else 4))
                z = central_charge((s, q), v)
                if z.im > 0 or (z.im == 0 and z.re < 0):
                    out.append((StabPoint(s, q), ch, L))
                    done += 1
    return out


def _certificate_documents(corpus):
    docs, branches, failures = [], Counter(), Counter()
    for P, ch, L in corpus:
        try:
            cert = ext2_vanishing_certificate(P, vtilde(ch, L), ch, L)
        except CertificateFailure as exc:
            failures[str(exc)] += 1
            docs.append({"error": str(exc), "payload": exc.payload})
            continue
        docs.append({"certificate": cert.to_dict()})
        while cert is not None:
            branches[cert.branch] += 1
            cert = cert.inner
    assert set(branches) == {
        "PhaseDominance", "SegmentsIntersect", "DualReduction", "NearbyStability"
    }
    return hashlib.sha256(dumps_canonical(docs).encode()).hexdigest(), branches, failures


def test_certificate_documents_pinned(p2, product_surface):
    digest, branches, failures = _certificate_documents(_certificate_corpus(p2, product_surface))
    assert len(failures) >= 2
    assert digest == _CERTIFICATE_DIGEST, (branches, failures, digest)


def test_certificate_documents_pinned_where_D_meets_K():
    # D.K = 0 on p2 and p1xp1_twisted; the blow-up with D in thirds has
    # D.K = -1/3, so its reading k = K.c1 - r*D.K and the mirror's -k carry
    # that term.  The digest was taken with the mirror lattice, the derived
    # dual and tensor_by_K.
    L = SurfaceLattice.from_dict(ODD_SCALE["blowup-D-thirds"])
    digest, branches, failures = _certificate_documents(_certificate_corpus(L))
    assert digest == _CERTIFICATE_DIGEST_DK, (branches, failures, digest)


def test_certificate_equal_chords_branch():
    # On the blow-up of P2 at a point K is not a multiple of H, so the
    # twist need not shear the chord: here both chords are one line, which
    # never certifies (see _left_certificate).
    L = SurfaceLattice.from_dict(
        {"basis": ["l", "e"], "gram": [["1", "0"], ["0", "-1"]], "H": ["2", "-1"],
         "D": ["0", "0"], "K": ["-3", "1"], "chiO": "1"}
    )
    assert L.pair(L.H, L.K) == -5
    ch = CharVec.make(1, [1, 4], F(9, 2))
    with pytest.raises(CertificateFailure) as exc:
        ext2_vanishing_certificate(SP(F(43, 30), F(29, 25)), vtilde(ch, L), ch, L)
    assert str(exc.value) == "chords coincide"
    payload = exc.value.payload
    assert "R" not in payload
    assert (payload["A"], payload["B"]) == (payload["Ap"], payload["Bp"])
