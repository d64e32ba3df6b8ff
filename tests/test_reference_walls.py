"""Corner-sign wall enumeration against the generate-and-test reference.

`reference_walls` keeps the enumeration that built, canonicalised and
clipped every witness in the Bogomolov/envelope range.  The production
enumeration prunes the ch2 range by corner signs first; both must return
the same candidate walls and witnesses, and both clips the same meet.
Under the split rule the production scan must return what the reference
enumeration followed by the walk's old filter (`walk_filter`) keeps.
"""

import random
from fractions import Fraction as F

import pytest

import reference_walls as ref
from walland import (
    BoxRegion,
    PlaneLine,
    SegmentRegion,
    StabPoint,
    SurfaceLattice,
    VTilde,
    discriminant,
    enumerate_candidate_walls,
    segment_point,
    wall_of,
)

V = VTilde.make
SP = StabPoint.make


def _regions(kind, *args):
    if kind == "segment":
        P, Q = (SP(*a) for a in args)
        return SegmentRegion(P, Q), ref.SegmentRegion(P, Q)
    return BoxRegion(*args), ref.BoxRegion(*args)


def _mirror(kind, *args):
    # s -> -s; the character is mirrored by v1 -> -v1
    if kind == "segment":
        return tuple((-s, q) for s, q in args)
    s_lo, s_hi, q_lo, q_hi = args
    return (-s_hi, -s_lo, q_lo, q_hi)


def _assert_same(v, kind, args, bounds, L):
    for vv, aa in ((v, args), (V(v.v0, -v.v1, v.v2), _mirror(kind, *args))):
        new_region, ref_region = _regions(kind, *aa)
        got = enumerate_candidate_walls(vv, new_region, *bounds, L)
        want = ref.enumerate_candidate_walls(vv, ref_region, *bounds, L)
        assert [cw.to_dict() for cw in got] == [cw.to_dict() for cw in want], (
            vv, kind, aa, bounds,
        )


def _rand_point(rng):
    s = F(rng.randint(-12, 12), rng.randint(1, 8))
    return (s, s * s / 2 + F(rng.randint(1, 12), rng.randint(1, 8)))


def _rand_char(rng):
    while True:
        c = rng.randint(-5, 5)
        v = V(rng.randint(-3, 3), c, F(rng.randint(-8, 8)) + F(c % 2, 2))
        if not v.is_zero and discriminant(v) >= 0:
            return v


def _box_around(P, Q, rng):
    s_lo, s_hi = min(P[0], Q[0]), max(P[0], Q[0])
    q_lo = max(s_lo * s_lo, s_hi * s_hi) / 2 + F(rng.randint(1, 4), rng.randint(1, 4))
    return (s_lo, s_hi, q_lo, q_lo + F(rng.randint(0, 6), rng.randint(1, 3)))


# pinned degenerate inputs: (v, kind, region args, bounds)
DEGENERATE = [
    # horizontal segment
    (V(1, 0, -1), "segment", ((F(-2), F(5, 2)), (F(1, 2), F(5, 2))), (3, 5)),
    # vertical walls: v's plane point shares s = 0 with witnesses; the box
    # edge s = 0 lies on one of them
    (V(1, 0, -1), "box", (0, 1, 1, 2), (3, 5)),
    (V(1, 0, -1), "segment", ((F(-1), F(1)), (F(1), F(3, 2))), (3, 5)),
    # rank-zero character: every wall is vertical
    (V(0, 0, 1), "box", (-1, 1, 1, 2), (2, 3)),
    (V(0, 1, F(1, 2)), "segment", ((F(-1), F(1)), (F(2), F(3))), (2, 3)),
    # the wall q = s/2 of (1, 0, 0) passes through the corner (1/2, 1/4)
    (V(1, 0, 0), "box", (0, F(1, 2), F(1, 4), 1), (3, 5)),
    (V(1, 0, 0), "segment", ((F(1, 2), F(1, 4)), (F(-1), F(3))), (3, 5)),
    # the segment lies on the wall q = s/2: a "span" clip
    (V(1, 0, 0), "segment", ((F(1, 5), F(1, 10)), (F(4, 5), F(2, 5))), (3, 5)),
    # a degenerate segment and a degenerate box
    (V(1, -3, -2), "segment", ((F(0), F(1)), (F(0), F(1))), (3, 5)),
    (V(1, -3, -2), "box", (0, 0, 1, 2), (3, 5)),
    # plain integer components rather than Fractions
    (VTilde(1, 0, -1), "box", (-2, 0, 3, 4), (3, 5)),
    (VTilde(2, 1, 0), "segment", ((F(-2), F(5, 2)), (F(1), F(3))), (3, 5)),
    # nothing to enumerate at rank bound zero, and a c1-only scan
    (V(1, 0, -1), "segment", ((F(-2), F(5, 2)), (F(-1, 2), F(3, 4))), (0, 0)),
    (V(1, 0, -1), "box", (-2, 0, 3, 4), (0, 5)),
    # n^2 = d^2 at exactly one end: the wall q = 5s/2 - 1 of w = (0, 1, 5/2)
    # meets the box at (7/10, 3/4) and at the corner (1, 3/2), the plane
    # point of v + w, where n = -d; t = -1/s, so the meet holds no t in (-1, 1)
    (V(1, 0, -1), "box", (F(1, 2), 1, F(3, 4), F(3, 2)), (3, 5)),
    # a box edge on a non-vertical wall: the top edge lies on the wall
    # q = 5/2 of w = (0, -2, 0), with t = -2/(3 - s)
    (V(1, 3, F(5, 2)), "box", (-1, 1, 2, F(5, 2)), (3, 5)),
    # d = 0 at exactly one end: v's plane point (0, 1) lies above the
    # parabola, at a corner, so every wall meets the box there.  n = 0 is
    # never met: it needs w's plane point above the parabola, which the
    # Bogomolov bounds on k exclude
    (V(1, 0, 1), "box", (0, 1, 1, 2), (3, 5)),
]


@pytest.mark.parametrize("v,kind,args,bounds", DEGENERATE)
def test_enumeration_matches_reference_degenerate(v, kind, args, bounds, p2):
    _assert_same(v, kind, args, bounds, p2)


def test_enumeration_matches_reference_p2(p2):
    rng = random.Random(3101)
    for _ in range(16):
        v = _rand_char(rng)
        P, Q = _rand_point(rng), _rand_point(rng)
        if rng.random() < 0.5:
            _assert_same(v, "segment", (P, Q), (3, 5), p2)
        else:
            _assert_same(v, "box", _box_around(P, Q, rng), (2, 3), p2)


def test_enumeration_matches_reference_p1xp1(product_surface):
    rng = random.Random(3102)
    for _ in range(3):
        while True:
            v = V(2 * rng.randint(-2, 2), rng.randint(-3, 3), F(rng.randint(-6, 6), 2))
            if not v.is_zero and discriminant(v) >= 0:
                break
        P, Q = _rand_point(rng), _rand_point(rng)
        _assert_same(v, "segment", (P, Q), (2, 2), product_surface)
        _assert_same(v, "box", _box_around(P, Q, rng), (1, 2), product_surface)


def test_enumeration_matches_reference_p1xp1_scan_bounds(product_surface):
    # the benchmark's bounds: the 121 c1 vectors fall into 21 classes, and
    # v2 of denominator 2 doubles the lattice's M = 1, so each class's
    # M*H.c is scaled (its residue, 0 mod 1, is scaled on ODD_SCALE below)
    v = V(2, 1, F(-7, 2))
    _assert_same(v, "segment", ((F(-3), F(9)), (F(2), F(5))), (3, 5), product_surface)
    _assert_same(v, "box", (-3, 2, 5, 9), (3, 5), product_surface)


# Lattices that make the scan's integer scale M larger than 2 (the shipped
# surfaces have M <= 2 for integral characters): a rank-1 lattice with
# H^2 = 3/2, where c^2/2 comes in quarters, and the blow-up of P2 at a point
# with D = (1/3, -2/3), orthogonal to H = (2, -1), where D.c comes in thirds
# and D^2/2 = -1/6.
ODD_SCALE = {
    "gram-3/2": {"basis": ["h"], "gram": [["3/2"]], "H": ["1"], "D": ["0"],
                 "K": ["0"], "chiO": "1"},
    "blowup-D-thirds": {"basis": ["l", "e"], "gram": [["1", "0"], ["0", "-1"]],
                        "H": ["2", "-1"], "D": ["1/3", "-2/3"], "K": ["-3", "1"],
                        "chiO": "1"},
}


@pytest.mark.parametrize("name", sorted(ODD_SCALE))
def test_enumeration_matches_reference_odd_scale(name):
    L = SurfaceLattice.from_dict(ODD_SCALE[name])
    H2 = L.pair(L.H, L.H)
    seg, box = ((3, 4), (2, 3)) if L.rank == 1 else ((2, 2), (1, 2))
    rng = random.Random(3104)
    for i, den in enumerate((3, 4, 6, 3, 4, 6)):
        # ch2 with denominator exactly den, so M is a multiple of it
        while True:
            c = L.divisor([rng.randint(-2, 2) for _ in range(L.rank)])
            v = V(H2 * rng.randint(-2, 2), L.pair(L.H, c), F(rng.randint(-12, 12), den))
            if v.v2.denominator == den and discriminant(v) >= 0:
                break
        P, Q = _rand_point(rng), _rand_point(rng)
        if i % 2 == 0:
            _assert_same(v, "segment", (P, Q), seg, L)
        else:
            _assert_same(v, "box", _box_around(P, Q, rng), box, L)


def _assert_same_splits(v, P, Q, bounds, L):
    """The number of walls kept, after comparing on the segment and its mirror."""
    mirrored = (V(v.v0, -v.v1, v.v2), SP(-P.s, P.q), SP(-Q.s, Q.q))
    kept = 0
    for vv, PP, QQ in ((v, P, Q), mirrored):
        got = [
            (cw.wall.coeffs, cw.witnesses, cw.crossing)
            for cw in enumerate_candidate_walls(
                vv, SegmentRegion(PP, QQ), *bounds, L, split=True
            )
        ]
        public = ref.enumerate_candidate_walls(vv, ref.SegmentRegion(PP, QQ), *bounds, L)
        assert got == ref.walk_filter(vv, PP, QQ, public), (vv, PP, QQ, bounds)
        kept += len(got)
    return kept


def _rand_split_char(rng, L, rank_zero):
    H2 = L.pair(L.H, L.H)
    while True:
        c = L.divisor([rng.randint(-3, 3) for _ in range(L.rank)])
        e = L.pair(c, c) / 2 - L.pair(L.D, c) + rng.randint(-6, 6)
        r = 0 if rank_zero else rng.randint(-2, 2)
        v = V(H2 * r, L.pair(L.H, c), e + r * L.pair(L.D, L.D) / 2)
        if not v.is_zero and discriminant(v) >= 0:
            return v


@pytest.mark.parametrize("name", ["p2", "p1xp1_twisted"] + sorted(ODD_SCALE))
def test_split_rule_matches_reference_walk_filter(name, p2, product_surface):
    # segments as the walk builds them, from segment_point(P, Q, t0) to Q;
    # draw 1 has a rank-zero character, draw 2 a segment of constant s
    lattices = {"p2": p2, "p1xp1_twisted": product_surface}
    L = lattices.get(name) or SurfaceLattice.from_dict(ODD_SCALE[name])
    bounds, draws = ((3, 5), 6) if L.rank == 1 else ((1, 2), 3)
    rng = random.Random(3105)
    kept = 0
    for i in range(draws):
        v = _rand_split_char(rng, L, i == 1)
        P = SP(*_rand_point(rng))
        Q = SP(P.s, P.q + F(rng.randint(1, 9), 2)) if i == 2 else SP(*_rand_point(rng))
        for t0 in (F(0), F(rng.randint(1, 6), 7)):
            kept += _assert_same_splits(v, segment_point(P, Q, t0), Q, bounds, L)
    assert kept > 0


@pytest.mark.parametrize(
    "name", ["p2", "p1xp1_twisted", "k3_quartic"] + sorted(ODD_SCALE)
)
def test_split_rule_window_on_small_discriminants(name, p2, product_surface, quartic):
    # 0 < Q(v) <= 8, where the window 0 <= Q(w), Q(u) < Q(v) is thinnest.
    # Draws go on until four splits are kept (at most 60 draws), and some
    # kept part has rank zero, so the pair test W1^2 < QV (W0 = 0) or
    # U1^2 < QV (U0 = 0) passes a kept split
    lattices = {"p2": p2, "p1xp1_twisted": product_surface, "k3_quartic": quartic}
    L = lattices.get(name) or SurfaceLattice.from_dict(ODD_SCALE[name])
    bounds = (3, 5) if L.rank == 1 else (1, 2)
    rng = random.Random(3106)
    kept, outside, rank_zero, draws = [], 0, False, 0
    while len(kept) < 4 and draws < 60:
        v = _rand_split_char(rng, L, False)
        if not 0 < discriminant(v) <= 8:
            continue
        draws += 1
        P, Q = SP(*_rand_point(rng)), SP(*_rand_point(rng))
        for t0 in (F(0), F(rng.randint(1, 6), 7)):
            start = segment_point(P, Q, t0)
            got = enumerate_candidate_walls(v, SegmentRegion(start, Q), *bounds, L, split=True)
            public = ref.enumerate_candidate_walls(v, ref.SegmentRegion(start, Q), *bounds, L)
            assert [(cw.wall.coeffs, cw.witnesses, cw.crossing) for cw in got] == (
                ref.walk_filter(v, start, Q, public)
            ), (v, start, Q)
            Qv = discriminant(v)
            for cw in got:
                for w in cw.witnesses:
                    assert 0 <= discriminant(w) < Qv and 0 <= discriminant(v - w) < Qv
                    kept.append(w)
                    rank_zero |= w.v0 == 0 or w.v0 == v.v0
            outside += sum(
                max(discriminant(w), discriminant(v - w)) >= Qv
                for cw in public
                for w in cw.witnesses
            )
    assert kept and rank_zero and outside > 0


def _meet(pts):
    # the old segment clip reports a degenerate segment as a span of one point
    if pts is None:
        return None
    pts = set(pts)
    return ("point" if len(pts) == 1 else "span", pts)


def test_corner_clip_matches_reference_clips():
    rng = random.Random(3103)
    lines = [PlaneLine.make(0, 1, -2), PlaneLine.make(1, -1, 0), PlaneLine.make(-1, 0, 1)]
    for _ in range(300):
        a, b = _rand_point(rng), _rand_point(rng)
        if a != b:
            lines.append(wall_of(V(1, *a), V(1, *b)))
    regions = [
        _regions("segment", (F(1, 5), F(1, 10)), (F(4, 5), F(2, 5))),
        _regions("segment", (F(0), F(1)), (F(0), F(1))),
        _regions("box", 0, F(1, 2), F(1, 4), 1),
        _regions("box", 0, 0, 1, 2),
        _regions("box", -1, 1, 1, 1),
    ]
    for _ in range(40):
        P, Q = _rand_point(rng), _rand_point(rng)
        regions.append(_regions("segment", P, Q))
        regions.append(_regions("box", *_box_around(P, Q, rng)))
    kinds = set()
    for new_region, ref_region in regions:
        for line in lines:
            got, want = new_region.wall_clip(line), ref_region.wall_clip(line)
            want = want and want[1]  # the reference clip is tagged
            assert _meet(got) == _meet(want), (line, got, want)
            kinds.add(None if want is None else _meet(want)[0])
    assert kinds == {None, "point", "span"}


# split-rule edges: (v, start, end) on p2
SPLIT_EDGES = [
    # the segment starts on v's vertical s = v1/v0 = -1: d = 0 there for
    # every (rank, c1) pair, and n = d - n = 0 too for c1 = -rank
    (V(1, -1, F(-15, 2)), (F(-1), F(2)), (F(-5), F(14))),
    # constant s = -1: every crossing lies at the one s of the s-range, a
    # zero of n for c1 = -rank and of d - n for c1 = 7 - rank; the two
    # pencil forms have one slope in k
    (V(3, 4, -3), (F(-1), F(11, 2)), (F(-1), F(13, 6))),
    # v0 = 0: the two pencil forms have one slope in k (B_start = B_Q), so
    # the crossing's s is affine in k
    (V(0, 5, F(1, 2)), (F(-1, 2), F(13, 8)), (F(7, 2), F(65, 8))),
]


@pytest.mark.parametrize("v,start,end", SPLIT_EDGES)
def test_split_rule_edges_match_reference_walk_filter(v, start, end, p2):
    assert _assert_same_splits(v, SP(*start), SP(*end), (3, 5), p2) > 0
