"""Integer phase decisions against the QuadNum reference.

`reference_phase` keeps the window as it was decided in QuadNum arithmetic.
The production window must print the same JSON or raise the same error,
with the same message, on seeded windows of every shape the decisions
branch on; QuadNum signs and ray cross signs must equal the signs of the
old Fraction and QuadNum products.  The order of lifted phases, decided on
one half-turn index, must agree with the reference's bucketed order.
"""

import random
from collections import Counter
from fractions import Fraction as F

import reference_phase as ref
from walland import (
    LiftedPhase,
    MixedRadicalError,
    QuadNum,
    StabPoint,
    VTilde,
    WallandError,
    phase_bound_interval,
    theta_compare,
)
from walland.jsonio import dumps_canonical
from walland.plane import _sign_root
from walland.stability import ray_cross_sign

from conftest import rand_frac, rand_stab

V = VTilde.make


def _outcome(fn, P, Q, v):
    try:
        return "ok", dumps_canonical(fn(P, Q, v).to_dict())
    except WallandError as exc:
        return type(exc).__name__, str(exc)


def _on_parabola(x):
    return (x, x * x / 2)


def _chord_point(X1, X2, mu):
    return (X1[0] + mu * (X2[0] - X1[0]), X1[1] + mu * (X2[1] - X1[1]))


def _rational_chord(rng):
    # P strictly inside a chord with rational endpoints: a square discriminant
    x1, x2 = sorted(rand_frac(rng, 10, 4) for _ in range(2))
    while x1 == x2:
        x2 = rand_frac(rng, 10, 4)
        x1, x2 = min(x1, x2), max(x1, x2)
    X1, X2 = _on_parabola(x1), _on_parabola(x2)
    lam = F(rng.randint(1, 9), 10)
    return X1, X2, StabPoint(*_chord_point(X1, X2, lam))


def _scaled_point(rng, X):
    k = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    return V(k, k * X[0], k * X[1])


def _windows(rng):
    """(kind, P, Q, v), 2,400 in all."""
    for _ in range(1200):  # any rational v, anchors below the axis included
        P, Q = rand_stab(rng, 6, 4), rand_stab(rng, 6, 4)
        v = V(*(rand_frac(rng, 6, 3) for _ in range(3)))
        yield "random", P, Q, v
    for _ in range(200):  # characters at infinity
        P, Q = rand_stab(rng, 6, 4), rand_stab(rng, 6, 4)
        yield "v0=0", P, Q, V(0, rand_frac(rng, 6, 3), rand_frac(rng, 6, 3))
    for _ in range(400):  # square chord discriminants, v anywhere on the chord
        X1, X2, P = _rational_chord(rng)
        mu = rng.choice((0, 1, F(rng.randint(-20, 30), 10)))
        X = _chord_point(X1, X2, mu)
        if rng.random() < 0.2:
            v = V(0, X2[0] - X1[0], X2[1] - X1[1])
        else:
            v = _scaled_point(rng, X)
        yield "square", P, rand_stab(rng, 6, 4), v
    for _ in range(200):  # Q on the chord with P: endpoint rays along the anchor
        X1, X2, P = _rational_chord(rng)
        v = _scaled_point(rng, _chord_point(X1, X2, F(rng.randint(-20, 30), 10)))
        Q = StabPoint(*_chord_point(X1, X2, F(rng.randint(1, 9), 10)))
        yield "aligned", P, Q, v
    for _ in range(200):  # v's plane point on the parabola: a chord endpoint
        P, Q = rand_stab(rng, 6, 4), rand_stab(rng, 6, 4)
        yield "endpoint", P, Q, _scaled_point(rng, _on_parabola(rand_frac(rng, 8, 3)))
    # a chord through P, strictly above the parabola, meets it twice unless
    # it is vertical: the one-endpoint ("tangent") chords are the vertical ones
    for _ in range(100):
        P, Q = rand_stab(rng, 6, 4), rand_stab(rng, 6, 4)
        k = rand_frac(rng, 3, 2)
        yield "vertical", P, Q, V(k, k * P.s, rand_frac(rng, 6, 3))
    for _ in range(100):  # no deformation
        P = rand_stab(rng, 6, 4)
        yield "Q=P", P, P, V(*(rand_frac(rng, 6, 3) for _ in range(3)))


def test_windows_match_reference():
    rng = random.Random(2202)
    seen = Counter()
    for kind, P, Q, v in _windows(rng):
        got = _outcome(phase_bound_interval, P, Q, v)
        want = _outcome(ref.phase_bound_interval, P, Q, v)
        assert got == want, (kind, P, Q, v.as_tuple())
        seen[kind, want[0]] += 1
        if want[0] == "ok":
            itv = phase_bound_interval(P, Q, v)
            seen["n=2"] += 2 in (itv.lo.n, itv.hi.n)
            seen["lo=B"] += itv.labels["lo"] == "B"
            seen["below"] += itv.anchor.ray[1] < 0
            seen["degenerate"] += itv.degenerate_endpoint is not None
            seen["radical"] += not itv.A[0].is_rational
        elif want[1] == "endpoint lift fell on the window boundary":
            seen["boundary", kind] += 1
    assert sum(n for key, n in seen.items() if len(key) == 2 and key[1] == "ok") >= 2000
    # every branch of the decisions is taken
    for key in ("n=2", "lo=B", "below", "degenerate", "radical"):
        assert seen[key] >= 20, (key, seen)
    for kind in ("random", "v0=0", "square", "aligned", "endpoint", "Q=P"):
        assert seen[kind, "ok"] >= 50, (kind, seen)
    assert seen["vertical", "DegenerateGeometryError"] >= 90
    assert seen["boundary", "random"] >= 20


def test_quadnum_sign_matches_reference():
    rng = random.Random(2203)
    dens = (1, 2, 3, 7, 12, 10**20 + 39)
    for _ in range(5000):
        a, b = (F(rng.randint(-60, 60), rng.choice(dens)) for _ in range(2))
        d = F(rng.randint(0, 80), rng.choice(dens))
        x = QuadNum(a, b, d)
        assert x.sign() == ref.quad_sign(x.a, x.b, x.d)
    # exact near-ties of a^2 against b^2*d, beyond float precision
    for n in (10**8, 10**15, 10**30):
        r = QuadNum(0, 1, n * n + 1)  # sqrt(n^2 + 1) just above n
        assert (r - n).sign() == 1 and (n - r).sign() == -1
        assert _sign_root(n, -1, n * n) == 0
        assert _sign_root(-n - 1, 1, n * n + 2 * n) == -1


def _quad_sign(x):
    if isinstance(x, QuadNum):
        return ref.quad_sign(x.a, x.b, x.d)
    return (x > 0) - (x < 0)


RADICANDS = (2, 3, F(5, 4), F(2, 9), 8)


def _entry(rng, d, same=0.9):
    # an int, a Fraction or a QuadNum of radicand d, or of another with odds 1 - same
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-2, 2)
    if kind == 1:
        return rand_frac(rng, 3, 2)
    b = rng.choice((0, -1, 1, F(1, 2)))
    return QuadNum(rand_frac(rng, 3, 2), b, d if rng.random() < same else rng.choice(RADICANDS))


def _sign_or_mixed(fn):
    # fn(), "mixed" for two radicands, or the name of another refusal
    try:
        return fn()
    except MixedRadicalError:
        return "mixed"
    except WallandError as exc:
        return type(exc).__name__


def test_ray_signs_match_quadnum_arithmetic():
    # cross signs of rays of ints, Fractions and QuadNums are those of the
    # QuadNum products under the reference sign, two radicands included
    rng = random.Random(2204)
    seen = Counter()
    for _ in range(3000):
        d = rng.choice(RADICANDS)
        r1, r2 = (_entry(rng, d), _entry(rng, d)), (_entry(rng, d), _entry(rng, d))
        want = _sign_or_mixed(lambda: _quad_sign(r1[0] * r2[1] - r1[1] * r2[0]))
        assert _sign_or_mixed(lambda: ray_cross_sign(r1, r2)) == want, (r1, r2)
        seen[want] += 1
    assert min(seen.values()) >= 100, seen


def _mixes_radicands(*rays) -> bool:
    return len({x.d for r in rays for x in r if isinstance(x, QuadNum) and x.b}) > 1


def test_phase_order_matches_reference():
    # theta_compare, LiftedPhase.compare and LiftedPhase.transport against the
    # bucketed order: integer parts -3..3, a second ray that is a multiple of
    # the first (parallel or anti-parallel) in 30 % of the draws and zero in
    # 5 %.  With two radicands in play either side may refuse
    # (MixedRadicalError) where the other multiplies nothing irrational; the
    # two never order differently.
    rng = random.Random(2205)
    seen = Counter()
    for _ in range(6000):
        d = rng.choice(RADICANDS)
        r1 = (_entry(rng, d, 0.75), _entry(rng, d, 0.75))
        n1 = rng.randint(-3, 3)
        u = rng.random()
        if u < 0.05:
            r2, n2 = (0, 0), n1
        elif u < 0.35:
            k = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
            r2, n2 = (k * r1[0], k * r1[1]), n1 + rng.choice((-1, 0, 1))
        else:
            r2, n2 = (_entry(rng, d, 0.75), _entry(rng, d, 0.75)), rng.randint(-3, 3)
        cases = [("theta", lambda: theta_compare(r1, r2), lambda: ref.theta_compare(r1, r2))]
        if any(map(_quad_sign, r1)):
            lp = LiftedPhase(n1, r1)
            if any(map(_quad_sign, r2)):
                cases.append((
                    "compare",
                    lambda: lp.compare(LiftedPhase(n2, r2)),
                    lambda: ref.lifted_compare(n1, r1, n2, r2),
                ))
            cases.append((
                "transport",
                lambda: lp.transport(r2).n - n1,
                lambda: ref.transport_n(n1, r1, r2) - n1,
            ))
        for name, new, old in cases:
            got, want = _sign_or_mixed(new), _sign_or_mixed(old)
            if got != want:
                assert "mixed" in (got, want) and _mixes_radicands(r1, r2), (name, n1, r1, n2, r2)
            seen[name, want] += 1
    for name, outcomes in (
        ("theta", (-1, 0, 1, "mixed", "ZeroChargeError")),
        ("compare", (-1, 0, 1, "mixed")),
        ("transport", (-2, 0, 2, "mixed", "DegenerateGeometryError", "ZeroChargeError")),
    ):
        for outcome in outcomes:
            assert seen[name, outcome] >= 100, (name, outcome, seen)
