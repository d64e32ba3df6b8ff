"""Exact projective-plane geometry: points, lines, parabola, quadratic numbers."""

import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from walland import (
    BoxRegion,
    CharVec,
    Mat,
    MixedRadicalError,
    PlaneLine,
    PlanePoint,
    PreconditionError,
    QuadNum,
    SchemaError,
    StabPoint,
    VTilde,
    line_parabola_intersect,
    wall_of,
)

from walland import jsonio
from walland.plane import parse_frac

from conftest import rand_frac

F = Fraction


# ---------------------------------------------------------------------------
# the one rational coercion


def test_parse_frac_contract():
    f = F(3, 4)
    assert parse_frac(f) is f
    assert parse_frac(5) == 5 and type(parse_frac(5)) is F
    assert parse_frac("-7/4") == F(-7, 4)
    assert parse_frac(" 2 ") == 2
    for bad in ("1/0", "nan", "x", "", 0.5, None, [1], True, False, "1e", "1e 5", "1/2e5"):
        with pytest.raises(SchemaError):
            parse_frac(bad)
    assert jsonio.parse_frac is parse_frac


def test_parse_frac_exponent_at_the_print_limit():
    # a value whose numerator or denominator has more digits than Python
    # prints is refused when parsed; one digit fewer parses exactly
    n = sys.get_int_max_str_digits()
    for fits, too_long in (
        (f"1e{n - 1}", f"1e{n}"),  # numerator 10**exp
        (f"-7e-{n - 1}", f"-7e-{n}"),  # denominator 10**-exp
        (f"0.001e{n + 2}", f"0.001e{n + 3}"),  # fractional mantissa
        (f"0.5e-{n - 1}", f"0.5e-{n}"),  # 5/10**n = 1/(2*10**(n-1))
    ):
        f = parse_frac(fits)
        assert len(str(abs(f.numerator))) <= n and len(str(f.denominator)) <= n
        with pytest.raises(PreconditionError):
            parse_frac(too_long)
    assert parse_frac(f"1e{n - 1}") == 10 ** (n - 1)
    assert parse_frac("25e-2") == F(1, 4) and parse_frac("+1_0E+0_1") == 100


def test_parse_frac_digit_runs_at_the_print_limit():
    # int() refuses a run of more digits than Python prints, underscores
    # apart; such a literal is refused like an exponent past the limit,
    # and no message repeats a long literal
    n = sys.get_int_max_str_digits()
    assert parse_frac("7" * n) == int("7" * n)
    assert parse_frac("1_" * (n - 1) + "1") == int("1" * n)
    for too_long in ("7" * (n + 1), "0" * (n + 1), "1/" + "3" * (n + 1),
                     "0." + "5" * (n + 1), "1_" * n + "1"):
        with pytest.raises(PreconditionError, match="digits in a row") as info:
            parse_frac(too_long)
        assert len(str(info.value)) < 120
    with pytest.raises(SchemaError) as info:
        parse_frac("x" * (n + 1))
    assert len(str(info.value)) < 120


def test_parse_frac_huge_exponents_decided_without_expanding():
    # 10**exponent here would take minutes; the answer needs none of it
    assert parse_frac("0e10000000000") == 0 and parse_frac("-0.000e-99999999999") == 0
    for x in ("1e10000000000", "1e-10000000000", "-3.5e99999999999"):
        with pytest.raises(PreconditionError):
            parse_frac(x)


def test_floats_rejected_with_schema_error():
    for build in (
        lambda: StabPoint.make(0.5, 1),
        lambda: Mat.make([[0.5]]),
        lambda: QuadNum(0.5),
        lambda: PlanePoint.make(1, 0.5, 0),
        lambda: VTilde.make(1, 0, 0.5),
        lambda: CharVec.make(1, [0.5], 0),
        lambda: BoxRegion(0.5, 1, 2, 3),
    ):
        with pytest.raises(SchemaError):
            build()


# ---------------------------------------------------------------------------
# QuadNum


def test_quadnum_rational_degeneration():
    assert QuadNum(F(3, 2)).sign() == 1
    assert QuadNum(0, 0, 5).sign() == 0
    # perfect-square radicand collapses to a rational
    q = QuadNum(1, 1, 4)
    assert q == QuadNum(3)
    assert q.to_fraction() == 3


def test_quadnum_arithmetic_and_sign():
    r6 = QuadNum(0, 1, 6)
    x = QuadNum(2, -1, 6)  # 2 - sqrt(6) < 0
    assert x.sign() == -1
    assert (-x).sign() == 1
    assert (x * x).sign() == 1  # 10 - 4 sqrt(6) > 0
    assert x + r6 == QuadNum(2)
    assert (r6 * r6) == QuadNum(6)
    # division: (2 - sqrt 6)(2 + sqrt 6) = -2
    assert x * QuadNum(2, 1, 6) == QuadNum(-2)
    assert QuadNum(-2) / x == QuadNum(2, 1, 6)


def test_quadnum_mixed_radicals_rejected():
    with pytest.raises(MixedRadicalError):
        QuadNum(0, 1, 2) + QuadNum(0, 1, 3)
    with pytest.raises(MixedRadicalError):
        QuadNum(0, 1, 2) * QuadNum(1, 1, 5)


def _triple(x: QuadNum):
    return (x.a, x.b, x.d)


def _join(x: QuadNum, y: QuadNum):
    return x.d or y.d


small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
# non-squares, squares (the public constructor folds them) and 0
radicands = st.sampled_from([F(0), F(2), F(3), F(8), F(12), F(1, 2), F(8, 9), F(4), F(9, 4)])


@st.composite
def quadnums(draw, d=None):
    b = draw(st.integers(-3, 3) | small_fracs)
    return QuadNum(draw(small_fracs), b, draw(radicands) if d is None else d)


@st.composite
def same_field_pairs(draw):
    # both operands in one field, or one of them rational
    d = draw(radicands)
    x = draw(quadnums(d))
    return x, draw(quadnums(d) | quadnums(F(0)))


@settings(max_examples=300, deadline=None)
@given(same_field_pairs())
@example((QuadNum(1, 2, 3), QuadNum(5, -2, 3)))  # b cancels in the sum
@example((QuadNum(1, 2, 3), QuadNum(0, 2, 3)))  # b cancels in the difference
@example((QuadNum(0, 1, 2), QuadNum(0, 1, 2)))  # sqrt2 * sqrt2 is rational
@example((QuadNum(F(1, 2)), QuadNum(-3)))  # rational operands
def test_trusted_results_match_public_constructor(pair):
    # QuadNum._of builds the results of +, -, * and /: each must be the
    # triple the public constructor makes from the textbook formula
    x, y = pair
    d = _join(x, y)
    assert _triple(x + y) == _triple(QuadNum(x.a + y.a, x.b + y.b, d))
    assert _triple(x - y) == _triple(QuadNum(x.a - y.a, x.b - y.b, d))
    assert _triple(-x) == _triple(QuadNum(-x.a, -x.b, x.d))
    prod = QuadNum(x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a, d)
    assert _triple(x * y) == _triple(prod)
    n = y.a * y.a - y.b * y.b * d
    if n == 0:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        quot = QuadNum((x.a * y.a - x.b * y.b * d) / n, (x.b * y.a - x.a * y.b) / n, d)
        assert _triple(x / y) == _triple(quot)


@settings(max_examples=200, deadline=None)
@given(quadnums(), small_fracs)
def test_fraction_coercion_matches_public_constructor(x, f):
    assert _triple(QuadNum._coerce(f)) == _triple(QuadNum(f))
    assert _triple(x + f) == _triple(f + x) == _triple(x + QuadNum(f))
    assert _triple(x * f) == _triple(f * x) == _triple(x * QuadNum(f))
    assert _triple(x - f) == _triple(x - QuadNum(f))


def test_trusted_results_refuse_two_radicands():
    x, y = QuadNum(1, 1, 2), QuadNum(1, 1, 3)
    for op in (
        lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y, lambda: y / x,
    ):
        with pytest.raises(MixedRadicalError):
            op()


def _old_line_parabola_intersect(line):
    # the chord roots on y = x^2/2 as QuadNum arithmetic on the public constructor
    a, b, c = line.coeffs
    if c == 0:
        x0 = F(-a, b)
        return [(QuadNum(x0), QuadNum(x0 * x0 / 2))]
    m, k = line.slope(), line.y_intercept()
    disc = m * m + 2 * k
    if disc < 0:
        return []
    if disc == 0:
        return [(QuadNum(m), QuadNum(m * m + k))]
    xs = [QuadNum(m, -1, disc), QuadNum(m, 1, disc)]
    return [(x, x * m + k) for x in xs]


def _quad_points(pts):
    return [(_triple(x), _triple(y)) for x, y in pts]


@pytest.mark.parametrize(
    "coeffs, disc",
    [
        ((-4, -1, 1), 9),  # y = x + 4: perfect square
        ((-1, -1, 1), 3),  # y = x + 1
        ((-4, 0, 1), 8),  # y = 4: not square-free, and y has no sqrt part
        ((2, 2, -1), 8),  # y = 2x + 2
        ((1, 4, -8), F(1, 2)),  # y = x/2 + 1/8: a rational radicand
    ],
)
def test_chord_roots_pinned_to_the_old_formula(coeffs, disc):
    line = PlaneLine.make(*coeffs)
    m, k = line.slope(), line.y_intercept()
    assert m * m + 2 * k == disc
    pts = line_parabola_intersect(line)
    assert _quad_points(pts) == _quad_points(_old_line_parabola_intersect(line))
    # x = m -+ sqrt(disc) prints the chord's discriminant as it is
    for x, _ in pts:
        assert jsonio.quad_to_json(x)["delta"] == ("0" if disc == 9 else str(disc))


def test_chord_disc_8_prints_delta_8():
    (ax, ay), (bx, by) = line_parabola_intersect(PlaneLine.make(-4, 0, 1))
    assert jsonio.quad_to_json(ax) == {"a": "0", "b": "-1", "delta": "8"}
    assert jsonio.quad_to_json(by) == {"a": "4", "b": "0", "delta": "0"}


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(-9, 9)] * 3).filter(lambda t: t[1] or t[2]))
def test_chord_roots_match_the_old_formula(coeffs):
    line = PlaneLine.make(*coeffs)
    new, old = line_parabola_intersect(line), _old_line_parabola_intersect(line)
    assert _quad_points(new) == _quad_points(old)


def test_quadnum_comparisons_against_mpmath():
    # exact order must agree with 80-bit floats whenever they are separated
    mpmath.mp.prec = 96
    rng = random.Random(20240811)
    checked = 0
    for _ in range(10_000):
        d = rng.randint(0, 30)
        a1, b1 = rand_frac(rng), rand_frac(rng)
        a2, b2 = rand_frac(rng), rand_frac(rng)
        q1 = QuadNum(a1, b1, d)
        q2 = QuadNum(a2, b2, d)
        v1 = mpmath.mpf(a1.numerator) / a1.denominator + (
            mpmath.mpf(b1.numerator) / b1.denominator
        ) * mpmath.sqrt(d)
        v2 = mpmath.mpf(a2.numerator) / a2.denominator + (
            mpmath.mpf(b2.numerator) / b2.denominator
        ) * mpmath.sqrt(d)
        if abs(v1 - v2) > mpmath.mpf("1e-15"):
            expected = 1 if v1 > v2 else -1
            assert (q1 - q2).sign() == expected
            checked += 1
        else:
            (q1 - q2).sign()  # ties and near-ties must still be decided exactly
    assert checked > 9000


def test_quadnum_exact_tie():
    # perfect-square radicands collapse, so cross-radicand ties stay rational
    assert QuadNum(0, 2, F(9, 4)) == QuadNum(0, 1, 9)
    assert (QuadNum(-3, 1, 9) + QuadNum(3, -2, F(9, 4))).sign() == 0
    # sqrt(8) and sqrt(2) live in one field but are distinct radicands here
    with pytest.raises(MixedRadicalError):
        QuadNum(0, 1, 8) - QuadNum(0, 2, 2)


# ---------------------------------------------------------------------------
# points and lines


def test_plane_point_canonical_triple():
    p = PlanePoint.make(F(-1, 2), F(1, 4), F(-3, 4))
    assert p.h == (2, -1, 3)
    assert PlanePoint.make(4, 0, -2).h == (2, 0, -1)
    # first nonzero coordinate positive
    assert PlanePoint.make(0, -2, 4).h == (0, 1, -2)
    with pytest.raises(PreconditionError):
        PlanePoint.make(0, 0, 0)


def test_plane_point_projective_equality_and_affine():
    assert PlanePoint.make(2, 4, 6) == PlanePoint.make(1, 2, 3)
    p = PlanePoint.make(1, F(1, 2), F(-2, 3))
    assert (p.x, p.y) == (F(1, 2), F(-2, 3))
    inf = PlanePoint.make(0, 1, 1)
    assert inf.at_infinity
    with pytest.raises(PreconditionError):
        inf.x


def test_line_through_axis_case():
    # wall of the structure sheaf and a skyscraper: the vertical v1 = 0
    line = wall_of(VTilde.make(1, 0, 0), VTilde.make(0, 0, 1))
    assert line.coeffs == (0, 1, 0)
    assert line.is_vertical


def test_line_through_affine_cases():
    # the wall through two plane points: y = -x
    line = wall_of(VTilde.make(1, 0, 0), VTilde.make(1, -1, 1))
    assert line.slope() == -1
    assert line.y_intercept() == 0
    # horizontal y = 2
    line = wall_of(VTilde.make(1, 2, 2), VTilde.make(1, -2, 2))
    assert line.slope() == 0
    assert line.y_intercept() == 2
    with pytest.raises(PreconditionError):
        wall_of(VTilde.make(1, 2, 2), VTilde.make(2, 4, 4))


def test_line_contains_is_exact():
    p = PlanePoint.make(1, F(1, 3), F(7, 5))
    q = PlanePoint.make(1, F(-2, 7), F(1, 2))
    line = wall_of(VTilde.make(*p.h), VTilde.make(*q.h))
    assert line.contains(p) and line.contains(q)
    assert not line.contains(PlanePoint.make(1, F(1, 3), F(7, 5) + F(1, 10 ** 9)))


# ---------------------------------------------------------------------------
# parabola


def test_line_parabola_secant():
    line = PlaneLine.make(0, 1, 1)  # y = -x
    pts = line_parabola_intersect(line)
    assert len(pts) == 2
    (ax, ay), (bx, by) = pts
    assert ax == QuadNum(-2) and ay == QuadNum(2)
    assert bx == QuadNum(0) and by == QuadNum(0)


def test_line_parabola_tangent_and_miss():
    tangent = PlaneLine.make(2, -2, 1)  # y = 2x - 2
    pts = line_parabola_intersect(tangent)
    assert len(pts) == 1
    assert pts[0][0] == QuadNum(2) and pts[0][1] == QuadNum(2)
    miss = PlaneLine.make(1, 0, 1)  # y = -1
    assert line_parabola_intersect(miss) == []
    with pytest.raises(PreconditionError):
        line_parabola_intersect(PlaneLine.make(1, 0, 0))


def test_line_parabola_vertical():
    line = PlaneLine.make(-3, 1, 0)  # x = 3
    pts = line_parabola_intersect(line)
    assert len(pts) == 1
    assert pts[0][0] == QuadNum(3) and pts[0][1] == QuadNum(F(9, 2))


def test_line_parabola_symbolic_substitution():
    # both defining equations must vanish exactly in QuadNum arithmetic
    rng = random.Random(77)
    secants = 0
    for _ in range(500):
        a, b, c = (rand_frac(rng) for _ in range(3))
        if b == 0 and c == 0:
            continue
        line = PlaneLine.make(a, b, c)
        if line.is_line_at_infinity:
            continue
        pts = line_parabola_intersect(line)
        la, lb, lc = line.coeffs
        for x, y in pts:
            assert (la + lb * x + lc * y).sign() == 0
            assert (y - x * x * F(1, 2)).sign() == 0
        if len(pts) == 2:
            secants += 1
            assert (pts[1][0] - pts[0][0]).sign() > 0  # ordered by x
    assert secants > 150


def _floor_oracle(x: QuadNum) -> int:
    # Fraction bounds lo < sqrt(d) < lo + 1/N around an irrational root
    if x.b == 0:
        return math.floor(x.a)
    N = 10**40
    lo = F(math.isqrt(x.d.numerator * x.d.denominator * N * N), x.d.denominator * N)
    ends = sorted((x.a + x.b * lo, x.a + x.b * (lo + F(1, N))))
    assert math.floor(ends[0]) == math.ceil(ends[1]) - 1  # one integer part
    return math.floor(ends[0])


def test_quadnum_floor_is_exact():
    cases = [
        QuadNum(0, 1, 2), QuadNum(0, -1, 2), QuadNum(-5, 1, 2), QuadNum(5, -1, 2),
        QuadNum(F(1, 3), F(-2, 5), 7), QuadNum(F(-7, 2), F(3, 4), F(5, 3)),
        # perfect squares: QuadNum(1, 1, 4) is 3, so isqrt(T) is exact
        QuadNum(1, 1, 4), QuadNum(F(-7, 2)), QuadNum(-3), QuadNum(F(7, 2), 0, 2),
        # beyond float range, where the display path floors ray components
        QuadNum(10**400, 1, 2), QuadNum(-(10**400), -1, 3),
    ]
    assert [math.floor(x) for x in cases] == [
        1, -2, -4, 3, -1, -3, 3, -4, -3, 3, 10**400 + 1, -(10**400) - 2,
    ]
    rng = random.Random(461)
    for _ in range(300):
        x = QuadNum(rand_frac(rng), rand_frac(rng), rng.randint(0, 30))
        n = math.floor(x)
        assert n == _floor_oracle(x), x
        assert QuadNum(n) <= x < QuadNum(n + 1)
