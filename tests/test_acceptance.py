"""Acceptance gate: one test per shipped guarantee, run at full stated scale.

Each test is a single pass/fail line under pytest -v and enforces its own
wall-clock budget.
"""

import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest

from walland import (
    CharVec,
    DegenerateGeometryError,
    HeartPosition,
    PreconditionError,
    QuadNum,
    StabPoint,
    SurfaceLattice,
    VTilde,
    central_charge,
    collect_leaves,
    discriminant,
    euler_pairing,
    expected_moduli_dim,
    ext2_vanishing_certificate,
    heart_sign_check,
    hom_differential,
    phase_bound_interval,
    phase_compare,
    random_cochain,
    random_complex,
    simulate_destabilization_paths,
    supertrace,
    theta_pairing,
    vtilde,
    compose,
)
from walland.cli import main
from walland.jsonio import frac_str, parse_frac, quad_from_json, quad_to_json

SURFACES = Path(__file__).resolve().parent.parent / "surfaces"
P2 = str(SURFACES / "p2.json")

V = VTilde.make
SP = StabPoint.make


@pytest.fixture(scope="module")
def p2_surface():
    return SurfaceLattice.load(P2)


def test_criterion_1_supertrace_antisymmetry():
    # 1000 seeded random complexes, length <= 5, dims <= 4, entries in
    # {-3..3}: pairing antisymmetry and coboundary vanishing, exactly
    t0 = time.monotonic()
    rng = random.Random(1001)
    violations = 0
    exercised = 0
    for _ in range(1000):
        C = random_complex(rng, max_len=5, max_dim=4, entry_bound=3)
        a = random_cochain(rng, C, C, 1, 3)
        b = random_cochain(rng, C, C, 1, 3)
        if theta_pairing(a, b) + theta_pairing(b, a) != 0:
            violations += 1
        g = random_cochain(rng, C, C, 0, 3)
        if theta_pairing(hom_differential(g), b) != 0:
            violations += 1
        if theta_pairing(a, hom_differential(g)) != 0:
            violations += 1
        # the sign mechanism behind antisymmetry, on degree-paired cochains
        k = rng.choice((1, 3))
        ak = random_cochain(rng, C, C, k, 3)
        bk = random_cochain(rng, C, C, -k, 3)
        lhs = supertrace(compose(ak, bk))
        if lhs != -supertrace(compose(bk, ak)):
            violations += 1
        if lhs != 0:
            exercised += 1
        gm = random_cochain(rng, C, C, -1, 3)
        if supertrace(hom_differential(gm)) != 0:
            violations += 1
    elapsed = time.monotonic() - t0
    assert violations == 0
    assert exercised > 300  # the sign rule fired on nonzero traces
    assert elapsed < 30


def _integral_char(rng):
    while True:
        r = rng.randint(-3, 3)
        c = rng.randint(-5, 5)
        e = F(rng.randint(-8, 8)) + (F(1, 2) if c % 2 else 0)
        v = V(r, c, e)
        if not v.is_zero and discriminant(v) >= 0:
            return v


def _random_point(rng):
    s = F(rng.randint(-12, 12), rng.randint(1, 8))
    return StabPoint(s, s * s / 2 + F(rng.randint(1, 12), rng.randint(1, 8)))


def test_criterion_2_phase_bound_property(p2_surface):
    # 200 seeded random (P, Q, v), enumeration bounds rank<=3, |c1|<=5:
    # every leaf lands weakly inside the lifted phase window
    t0 = time.monotonic()
    rng = random.Random(1002)
    done = 0
    leaves_total = 0
    timings = []  # (seconds, v, P, Q) per instance
    while done < 200:
        v = _integral_char(rng)
        P, Q = _random_point(rng), _random_point(rng)
        if central_charge(P, v).is_zero:
            continue
        t1 = time.monotonic()
        try:
            itv = phase_bound_interval(P, Q, v)
        except (DegenerateGeometryError, PreconditionError):
            continue  # tangent or aligned chord: interval undefined
        root = simulate_destabilization_paths(P, Q, v, (3, 5), p2_surface)
        for char, lift in collect_leaves(root):
            assert itv.contains(lift), (v.as_tuple(), char.as_tuple())
            leaves_total += 1
        timings.append((time.monotonic() - t1, v, P, Q))
        done += 1
    elapsed = time.monotonic() - t0
    assert leaves_total >= 200
    slowest = "\n".join(
        f"  v={v.to_list()} P=({P.s}, {P.q}) Q=({Q.s}, {Q.q}) {sec:.2f} s"
        for sec, v, P, Q in sorted(timings, key=lambda x: x[0], reverse=True)[:5]
    )
    assert elapsed < 300, f"{elapsed:.2f} s; slowest instances:\n{slowest}"


def test_criterion_3_wall_disjointness():
    from walland import walls_disjoint_above_parabola

    t0 = time.monotonic()
    rng = random.Random(1003)
    done = 0
    while done < 500:
        v = _integral_char(rng)
        w1 = V(rng.randint(-3, 3), rng.randint(-5, 5), F(rng.randint(-8, 8), 2))
        w2 = V(rng.randint(-3, 3), rng.randint(-5, 5), F(rng.randint(-8, 8), 2))
        try:
            R = walls_disjoint_above_parabola(v, w1, w2)
        except PreconditionError:
            continue  # identical or undefined walls; not a wall pair
        if not R.at_infinity:
            assert 2 * R.y <= R.x * R.x
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30


def test_criterion_4_ext2_certificate_reproduction(p2_surface):
    t0 = time.monotonic()
    cert = ext2_vanishing_certificate(
        SP(-1, 1), V(1, 0, 0), CharVec.make(1, [0], 0), p2_surface
    )
    assert cert.branch == "PhaseDominance"
    d = cert.data
    assert d["Q"] == {"s": "-4", "q": "17/2"}
    assert d["vK"] == ["1", "-3", "9/2"]
    assert [(p["a"], p["b"]) for p in d["A"]] == [("-2", "0"), ("2", "0")]
    assert [(p["a"], p["b"]) for p in d["B"]] == [("0", "0"), ("0", "0")]
    assert [(p["a"], p["b"]) for p in d["Ap"]] == [("-5", "0"), ("25/2", "0")]
    assert [(p["a"], p["b"]) for p in d["Bp"]] == [("-3", "0"), ("9/2", "0")]
    assert time.monotonic() - t0 < 1


def test_criterion_5_euler_pairing_oracles(p2_surface):
    t0 = time.monotonic()
    O = CharVec.make(1, [0], 0)
    O1 = CharVec.make(1, [1], F(1, 2))
    assert euler_pairing(O, O, p2_surface) == 1
    assert euler_pairing(O, O1, p2_surface) == 3
    for n in (1, 2, 3):
        assert expected_moduli_dim(CharVec.make(1, [0], -n), p2_surface) == 2 * n
    assert time.monotonic() - t0 < 1


def test_criterion_6_exact_predicate_consistency():
    # 10^4 comparisons against extended-precision floats: any float gap
    # over 1e-9 must agree in sign with the exact predicate
    t0 = time.monotonic()
    rng = random.Random(1006)
    mpmath.mp.prec = 64  # extended-double significand

    def mp_theta(z):
        return mpmath.atan2(
            mpmath.fdiv(z.im.numerator, z.im.denominator),
            mpmath.fdiv(z.re.numerator, z.re.denominator),
        ) / mpmath.pi

    done = 0
    decided = 0
    ties = 0
    while done < 10_000:
        P = _random_point(rng)
        v = V(*(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)))
        w = V(*(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)))
        if heart_sign_check(P, v) is HeartPosition.Fails:
            continue
        if heart_sign_check(P, w) is HeartPosition.Fails:
            continue
        c = phase_compare(P, v, w)
        assert c in (-1, 0, 1)
        gap = mp_theta(central_charge(P, v)) - mp_theta(central_charge(P, w))
        if abs(gap) > 1e-9:
            assert c == (1 if gap > 0 else -1)
            decided += 1
        else:
            # near-ties stay with the exact verdict; equality must be honest
            if c == 0:
                ties += 1
        done += 1
    elapsed = time.monotonic() - t0
    assert decided > 9000
    assert ties > 0  # exact equalities occurred and did not crash
    assert elapsed < 30


def test_criterion_7_determinism_and_goldens(capsys, tmp_path):
    t0 = time.monotonic()
    goldens = Path(__file__).resolve().parent / "goldens"

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    for argv in (
        ("charge", "--surface", P2, "--char", "1,0,0", "--s=-1", "--q=1"),
        ("dim", "--surface", P2, "--char", "1,0,-2"),
        (
            "simulate", "--surface", P2, "--char", "1,0,-1", "--s=-7/4",
            "--q=7/4", "--s2=-5/4", "--q2=13/16", "--rank-bound", "3",
            "--c1-bound", "5",
        ),
        ("supertrace-fuzz", "--n", "25", "--seed", "3"),
    ):
        assert run(*argv) == run(*argv)

    for scene in ("phase-compare", "deform", "ext2-worked"):
        out = run("figure", "--scene", scene)
        assert out == (goldens / f"{scene}.svg").read_text()

    rng = random.Random(1007)
    for _ in range(500):
        x = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        assert parse_frac(frac_str(x)) == x
        qn = QuadNum(
            F(rng.randint(-99, 99), rng.randint(1, 12)),
            F(rng.randint(-99, 99), rng.randint(1, 12)),
            rng.choice((2, 3, 5, 6, 7)),
        )
        assert quad_from_json(quad_to_json(qn)) == qn
    doc = json.loads(run("charge", "--surface", P2, "--char", "1,0,0",
                         "--s=-1", "--q=1"))
    assert parse_frac(doc["Z"]["re"]) == 1
    assert time.monotonic() - t0 < 10
