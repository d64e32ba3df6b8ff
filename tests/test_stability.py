"""Central charges, exact phases, walls, and lifted phases."""

import math
import random
from fractions import Fraction as F

import pytest

from walland import (
    DegenerateGeometryError,
    HeartPosition,
    LiftedPhase,
    NotInHeartError,
    PlanePoint,
    PreconditionError,
    QuadNum,
    StabPoint,
    VTilde,
    ZeroChargeError,
    canonical_ray,
    central_charge,
    discriminant,
    heart_sign_check,
    phase,
    phase_compare,
    segment_point,
    theta_compare,
    wall_of,
    walls_disjoint_above_parabola,
)

from conftest import rand_frac, rand_stab


V = VTilde.make
SP = StabPoint.make


def test_stab_point_boundary_rejected():
    with pytest.raises(PreconditionError):
        StabPoint.make(2, 2)  # q = s^2/2 exactly
    with pytest.raises(PreconditionError):
        StabPoint.make(0, -1)
    P = StabPoint.make(F(1, 2), F(3, 2))
    assert (P.s, P.q) == (F(1, 2), F(3, 2))


def test_segment_point_interpolation():
    P, Q = SP(-2, F(5, 2)), SP(0, 1)
    M = segment_point(P, Q, F(1, 2))
    assert (M.s, M.q) == (-1, F(7, 4))
    assert segment_point(P, Q, 0) == P
    assert segment_point(P, Q, 1) == Q


def test_central_charge_examples():
    z = central_charge(SP(-1, 1), V(1, 0, 0))
    assert (z.re, z.im) == (1, 1)
    # skyscraper charge is -1 at every parameter point
    for P in (SP(-1, 1), SP(0, 5), SP(F(7, 3), F(19, 2))):
        z = central_charge(P, V(0, 0, 1))
        assert (z.re, z.im) == (-1, 0)
    # kernel direction (1, s, q)
    z = central_charge(SP(-1, 1), V(1, -1, 1))
    assert z.is_zero


def test_central_charge_linearity_fuzz():
    rng = random.Random(4021)
    for _ in range(300):
        P = rand_stab(rng)
        v = V(*(rand_frac(rng) for _ in range(3)))
        w = V(*(rand_frac(rng) for _ in range(3)))
        t = rand_frac(rng)
        zv, zw = central_charge(P, v), central_charge(P, w)
        zs = central_charge(P, v + w)
        assert (zs.re, zs.im) == (zv.re + zw.re, zv.im + zw.im)
        zt = central_charge(P, V(t * v.v0, t * v.v1, t * v.v2))
        assert (zt.re, zt.im) == (t * zv.re, t * zv.im)


def test_heart_sign_check_examples():
    assert heart_sign_check(SP(-1, 1), V(0, 0, 1)) is HeartPosition.NegativeRealAxis
    assert heart_sign_check(SP(-1, 1), V(1, 0, 0)) is HeartPosition.StrictUpper
    assert heart_sign_check(SP(1, 1), V(1, 0, 0)) is HeartPosition.Fails
    # kernel character: zero charge fails the check
    assert heart_sign_check(SP(-1, 1), V(1, -1, 1)) is HeartPosition.Fails


def test_phase_examples():
    p = phase(SP(-1, 1), V(1, 0, 0))
    assert p.exact_ray == (1, 1)
    assert p.approx == 0.25
    # skyscrapers sit at the top of the heart: phase exactly one
    p = phase(SP(0, 5), V(0, 0, 1))
    assert p.exact_ray == (-1, 0)
    assert p.approx == 1.0
    # purely imaginary charge
    p = phase(SP(-1, 1), V(1, 0, 1))
    assert p.exact_ray == (0, 1)
    assert p.approx == 0.5


def test_phase_errors():
    with pytest.raises(ZeroChargeError):
        phase(SP(-1, 1), V(1, -1, 1))
    with pytest.raises(NotInHeartError):
        phase(SP(1, 1), V(1, 0, 0))
    # lower half plane charge from an unshifted character
    with pytest.raises(NotInHeartError):
        phase(SP(F(1, 2), F(3, 2)), V(1, -3, -2))


def test_phase_range_fuzz():
    rng = random.Random(913)
    hits = 0
    for _ in range(500):
        P = rand_stab(rng)
        v = V(*(rand_frac(rng) for _ in range(3)))
        if heart_sign_check(P, v) is HeartPosition.Fails:
            continue
        hits += 1
        p = phase(P, v)
        assert 0.0 < p.approx <= 1.0
        z = central_charge(P, v)
        assert z.im > 0 or (z.im == 0 and z.re < 0)
    assert hits > 100


def test_phase_compare_equal_on_scalings():
    P = SP(-1, 1)
    assert phase_compare(P, V(1, 0, 0), V(3, 0, 0)) == 0
    assert phase_compare(P, V(1, 0, 0), V(1, 0, 0)) == 0


def test_phase_compare_half_plane_pair():
    # parameter (1/2, 3/2); plane points (-3,-2) and (3,-1).  The left
    # point enters the heart with negated leading entry.
    P = SP(F(1, 2), F(3, 2))
    vE = V(-1, 3, 2)
    vF = V(1, 3, -1)
    zE = central_charge(P, vE)
    zF = central_charge(P, vF)
    assert (zE.re, zE.im) == (F(-7, 2), F(7, 2))
    assert (zF.re, zF.im) == (F(5, 2), F(5, 2))
    assert phase_compare(P, vE, vF) == 1
    assert phase_compare(P, vF, vE) == -1
    assert phase(P, vE).approx == 0.75
    assert phase(P, vF).approx == 0.25
    # unshifted left character is rejected, not silently compared
    with pytest.raises(NotInHeartError):
        phase_compare(P, V(1, -3, -2), vF)


def test_phase_compare_skyscraper_maximal():
    rng = random.Random(5188)
    sky = V(0, 0, 1)
    strict = 0
    for _ in range(300):
        P = rand_stab(rng)
        w = V(*(rand_frac(rng) for _ in range(3)))
        if heart_sign_check(P, w) is HeartPosition.Fails:
            continue
        c = phase_compare(P, sky, w)
        assert c >= 0
        if c > 0:
            strict += 1
        else:
            # equality only on the negative real axis
            z = central_charge(P, w)
            assert z.im == 0 and z.re < 0
    assert strict > 80


def test_wall_of_examples():
    w = wall_of(V(1, 0, 0), V(0, 0, 1))
    assert w.coeffs == (0, 1, 0)  # vertical through the origin
    w = wall_of(V(1, 0, 0), V(1, 2, 1))
    assert w.coeffs == (0, 1, -2)  # q = s/2
    with pytest.raises(PreconditionError):
        wall_of(V(1, 0, 0), V(2, 0, 0))
    with pytest.raises(ZeroChargeError):
        wall_of(V(0, 0, 0), V(1, 0, 0))


def test_wall_contains_both_plane_points_fuzz():
    rng = random.Random(7710)
    done = 0
    while done < 200:
        v = V(*(rand_frac(rng) for _ in range(3)))
        w = V(*(rand_frac(rng) for _ in range(3)))
        if v.is_zero or w.is_zero:
            continue
        pv, pw = PlanePoint.make(*v.as_tuple()), PlanePoint.make(*w.as_tuple())
        if pv == pw:
            continue
        wall = wall_of(v, w)
        assert wall.contains(pv) and wall.contains(pw)
        done += 1


def test_wall_membership_matches_phase_equality():
    # on-wall parameters see equal rays; off-wall parameters never do
    rng = random.Random(3355)
    on_wall = 0
    off_wall = 0
    for _ in range(2000):
        P = rand_stab(rng)
        v = V(*(rand_frac(rng) for _ in range(3)))
        if heart_sign_check(P, v) is HeartPosition.Fails:
            continue
        if rng.random() < 0.5:
            # combination with the kernel direction lands on the wall
            a = abs(rand_frac(rng)) + 1
            b = rand_frac(rng)
            k = V(1, P.s, P.q)
            w = V(a * v.v0 + b * k.v0, a * v.v1 + b * k.v1, a * v.v2 + b * k.v2)
        else:
            w = V(*(rand_frac(rng) for _ in range(3)))
        if w.is_zero or heart_sign_check(P, w) is HeartPosition.Fails:
            continue
        if PlanePoint.make(*v.as_tuple()) == PlanePoint.make(*w.as_tuple()):
            continue
        same = phase_compare(P, v, w) == 0
        member = wall_of(v, w).contains(PlanePoint.make(1, P.s, P.q))
        assert same == member
        if member:
            on_wall += 1
        else:
            off_wall += 1
    assert on_wall > 200 and off_wall > 200


def test_walls_collapse_at_character_point():
    v = V(1, 0, 0)
    R = walls_disjoint_above_parabola(v, V(0, 0, 1), V(1, 2, 1))
    assert R == PlanePoint.make(1, 0, 0)
    v = V(1, -3, F(9, 2))
    R = walls_disjoint_above_parabola(v, V(0, 0, 1), V(1, 0, 0))
    assert R == PlanePoint.make(1, -3, F(9, 2))
    with pytest.raises(PreconditionError):
        walls_disjoint_above_parabola(V(1, 0, 1), V(0, 0, 1), V(1, 2, 1))
    with pytest.raises(PreconditionError):
        walls_disjoint_above_parabola(V(1, 0, 0), V(1, 2, 1), V(2, 4, 2))


def test_walls_disjoint_fuzz():
    rng = random.Random(6060)
    done = 0
    while done < 100:
        v = V(rng.randint(0, 3), rng.randint(-4, 4), rand_frac(rng, 6, 2))
        if v.is_zero or discriminant(v) < 0:
            continue
        w1 = V(*(rand_frac(rng) for _ in range(3)))
        w2 = V(*(rand_frac(rng) for _ in range(3)))
        try:
            R = walls_disjoint_above_parabola(v, w1, w2)
        except (PreconditionError, ZeroChargeError):
            continue
        if not R.at_infinity:
            assert 2 * R.y <= R.x * R.x
        done += 1


def test_canonical_ray():
    assert canonical_ray(F(1, 2), F(3, 4)) == (2, 3)
    assert canonical_ray(-4, 6) == (-2, 3)
    assert canonical_ray(0, F(-5, 7)) == (0, -1)
    with pytest.raises(ZeroChargeError):
        canonical_ray(0, 0)


def test_theta_compare_buckets():
    assert theta_compare((1, -1), (1, 0)) == -1  # lower half < positive axis
    assert theta_compare((1, 0), (1, 1)) == -1
    assert theta_compare((1, 1), (-1, 1)) == -1  # within upper half
    assert theta_compare((-1, 1), (-1, 0)) == -1  # upper half < negative axis
    assert theta_compare((-1, 0), (-5, 0)) == 0
    assert theta_compare((2, 2), (5, 5)) == 0
    assert theta_compare((1, -2), (2, -1)) == -1  # lower half ordering


def test_lifted_phase_value_and_compare():
    a = LiftedPhase(0, (1, 1))
    assert a.approx() == 0.25
    assert a.shift(2).approx() == 2.25
    b = LiftedPhase(0, (-1, 1))
    assert a.compare(b) == -1 and b.compare(a) == 1
    assert a < b <= b
    # integer part dominates bucket
    assert LiftedPhase(2, (1, -1)) > LiftedPhase(0, (-1, 0))
    # distinct lifts of the same ray value: 1 - 1/4 == 3/4
    assert LiftedPhase(1, (1, -1)).compare(LiftedPhase(0, (-1, 1))) == 0
    with pytest.raises(ZeroChargeError):
        LiftedPhase(0, (0, 0))


def test_lifted_phase_refuses_a_non_int_count():
    # a bool or a float is refused, never let decide an order: 0.5 once
    # ranked below 0, through the case of an integer part one less
    for n in (0.5, 1.0, True, F(1)):
        with pytest.raises(PreconditionError, match="half-turn count must be an int"):
            LiftedPhase(n, (1, 0))
    with pytest.raises(PreconditionError, match="half-turn count must be an int"):
        LiftedPhase(0, (1, 0)).shift(0.5)
    assert LiftedPhase(0, (1, 0)).shift(-3).n == -3


def test_display_floats_survive_huge_rays():
    # components beyond float range still give a finite display value
    assert LiftedPhase(0, (10**400, 1)).to_dict()["approx"] == 0.0
    assert LiftedPhase(2, (-(10**400), 1)).to_dict()["approx"] == 3.0
    assert LiftedPhase(0, (10**400, 10**400)).approx() == 0.25
    big = LiftedPhase(0, (QuadNum(10**400, 1, 2), QuadNum(0, 10**400, 3)))
    assert math.isclose(big.approx(), math.atan(math.sqrt(3)) / math.pi)
    # rays that convert keep their value exactly
    assert LiftedPhase(0, (3, 4)).approx() == math.atan2(4.0, 3.0) / math.pi


def test_lifted_phase_adjacent_sheets():
    # values n + theta with theta in (-1, 1]
    cases = [
        (LiftedPhase(1, (1, -1)), 0.75),
        (LiftedPhase(0, (-1, 1)), 0.75),
        (LiftedPhase(1, (1, 1)), 1.25),
        (LiftedPhase(2, (1, -1)), 1.75),
        (LiftedPhase(0, (-1, 0)), 1.0),
        (LiftedPhase(1, (1, 0)), 1.0),
    ]
    for lp, val in cases:
        assert math.isclose(lp.approx(), val)
    for i, (li, vi) in enumerate(cases):
        for lj, vj in cases[i + 1 :]:
            if math.isclose(vi, vj):
                assert li.compare(lj) == 0
            else:
                assert li.compare(lj) == (1 if vi > vj else -1)


def test_lifted_phase_transport():
    base = LiftedPhase(0, (1, 0))
    up = base.transport((0, 1))
    assert up.n == 0 and up.ray == (0, 1)
    down = base.transport((0, -1))
    assert down.n == 0 and down.ray == (0, -1)
    # counterclockwise across the branch cut gains a sheet
    cut = LiftedPhase(0, (-1, 1)).transport((-1, -1))
    assert cut.n == 2
    # clockwise across the cut loses one
    back = LiftedPhase(0, (-1, -1)).transport((-1, 1))
    assert back.n == -2
    same = base.transport((5, 0))
    assert same.n == 0 and same.ray == (5, 0)
    with pytest.raises(DegenerateGeometryError):
        base.transport((-2, 0))
    with pytest.raises(ZeroChargeError):
        base.transport((0, 0))


def test_lifted_phase_transport_roundtrip_fuzz():
    rng = random.Random(2247)
    for _ in range(400):
        rays = []
        while len(rays) < 2:
            r = (rng.randint(-9, 9), rng.randint(-9, 9))
            if r != (0, 0):
                rays.append(r)
        a = LiftedPhase(rng.randint(-2, 2), rays[0])
        try:
            b = a.transport(rays[1])
        except DegenerateGeometryError:
            continue
        c = b.transport(rays[0])
        assert c.compare(a) == 0 and c.n == a.n
        # transported value stays within one half turn
        assert abs(b.approx() - a.approx()) < 1.0 + 1e-12


def test_phase_compare_matches_float_sample():
    rng = random.Random(8181)
    checked = 0
    for _ in range(2000):
        P = rand_stab(rng)
        v = V(*(rand_frac(rng) for _ in range(3)))
        w = V(*(rand_frac(rng) for _ in range(3)))
        if heart_sign_check(P, v) is HeartPosition.Fails:
            continue
        if heart_sign_check(P, w) is HeartPosition.Fails:
            continue
        c = phase_compare(P, v, w)
        fv = phase(P, v).approx
        fw = phase(P, w).approx
        if abs(fv - fw) > 1e-9:
            assert c == (1 if fv > fw else -1)
            checked += 1
    assert checked > 300
