"""Exact geometry of the projective character plane.

Points carry homogeneous rational coordinates [v0 : v1 : v2]; the affine
chart v0 != 0 is the (x, y) plane in which stability parameters live, and
v0 = 0 is the line at infinity.  The boundary parabola y = x^2/2 cuts the
plane; lines meet it in points whose coordinates live in one quadratic
extension of the rationals per line.  Every predicate here is decided by
exact sign computation; floats appear only in display helpers.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Union

from .errors import MixedRadicalError, PreconditionError, SchemaError


def parse_frac(x) -> Fraction:
    """The one rational coercion: a Fraction as is, an int, or a "p/q" string.

    Anything else, floats and bools included, raises SchemaError; a literal
    too long to print ("1e5000", 5000 digits) raises PreconditionError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        limit = sys.get_int_max_str_digits()
        shown = repr(x) if len(x) <= 60 else f"{x[:40]!r}... ({len(x)} characters)"
        # Fraction() passes each digit run to int(), which refuses over limit digits
        if 0 < limit < len(x) and re.search(rf"(?<!\d)\d{{{limit + 1}}}", x.replace("_", "")):
            raise PreconditionError(f"{shown} has over {limit} digits in a row")
        try:
            return _exponent_literal(x, shown, limit) if "e" in x.lower() else Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational literal {shown}") from exc
    raise SchemaError(f"not a rational: {x!r}")


def _exponent_literal(x: str, shown: str, limit: int) -> Fraction:
    """Fraction(x) for "<mantissa>e<exp>", refused before 10**exp is expanded
    when the value has a numerator or denominator past the print limit."""
    mantissa, _, exp = x.lower().partition("e")
    if exp[:1].isspace():  # int() takes a leading space that Fraction refuses
        raise ValueError("bad exponent")
    m, E = Fraction(mantissa + "e0"), int(exp)
    if m == 0 or not limit:  # 0 needs no 10**exp; a limit of 0 is no limit
        return m and Fraction(x)
    # |m| and 1/|m| are below 2**bits: for E >= 0 the numerator is over
    # 10**E / 2**bits, for E < 0 the denominator over 10**-E / 2**bits
    if abs(E) < limit + m.numerator.bit_length() + m.denominator.bit_length():
        f = Fraction(x)
        if max(abs(f.numerator), f.denominator) < 10**limit:
            return f
    raise PreconditionError(f"{shown} has a number beyond the {limit}-digit print limit")


def _den_lcm(xs) -> int:
    """The lcm of the denominators of the rationals xs."""
    # lcm of a list, not of a generator: CPython resizes a tuple built from a
    # generator, and the resized tuples pile up on its tuple free lists
    return math.lcm(*[x.denominator for x in xs])


def _scaled(xs, m: int) -> list:
    """The rationals xs times m, a multiple of all their denominators, as ints."""
    return [x.numerator * (m // x.denominator) for x in xs]


def _sign_root(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for ints a, b and d >= 0.

    The one place a^2 is compared with b^2*d: only a and b of strictly
    opposite signs, with d > 0, need it.
    """
    sb = (b > 0) - (b < 0)
    if not (sb and d):
        return (a > 0) - (a < 0)
    if a * sb >= 0:
        return sb
    t = a * a - b * b * d
    return (t > 0) - (t < 0) if a > 0 else (t < 0) - (t > 0)


_ZERO, _ONE = Fraction(0), Fraction(1)


def _sq_root_if_perfect(f: Fraction):
    """Rational square root of f, or None."""
    if f < 0:
        return None
    p, q = f.numerator, f.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


class QuadNum:
    """Number a + b*sqrt(d) with rational a, b and rational d >= 0.

    All arithmetic stays inside a single quadratic extension: combining two
    values whose radicands differ (both irrational) raises MixedRadicalError.
    Signs, equality and order are decided exactly, never through floats.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=0):
        a, b, d = parse_frac(a), parse_frac(b), parse_frac(d)
        if d < 0:
            raise PreconditionError("negative radicand")
        if b == 0:
            d = _ZERO
        elif d == 0:
            b = _ZERO
        else:
            r = _sq_root_if_perfect(d)
            if r is not None:
                a, b, d = a + b * r, _ZERO, _ZERO
        self.a, self.b, self.d = a, b, d

    @staticmethod
    def _of(a: Fraction, b: Fraction, d: Fraction) -> "QuadNum":
        """Trusted constructor for results of QuadNum arithmetic: a, b and d
        are Fractions, d >= 0, and d is not a perfect square when b != 0."""
        x = object.__new__(QuadNum)
        if b == 0 or d == 0:
            b = d = _ZERO
        x.a, x.b, x.d = a, b, d
        return x

    # -- field discipline ------------------------------------------------

    def _join(self, other: "QuadNum") -> Fraction:
        if self.d == 0:
            return other.d
        if other.d == 0 or self.d == other.d:
            return self.d
        raise MixedRadicalError(
            f"cannot combine sqrt({self.d}) with sqrt({other.d})"
        )

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise PreconditionError("irrational QuadNum has no Fraction value")
        return self.a

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, QuadNum):
            return x
        if isinstance(x, Fraction):
            return QuadNum._of(x, _ZERO, _ZERO)
        if isinstance(x, int):
            return QuadNum(x)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join(other)
        return QuadNum._of(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadNum._of(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join(other)
        return QuadNum._of(self.a - other.a, self.b - other.b, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join(other)
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return QuadNum._of(a, b, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join(other)
        # b != 0 only with d no square, so only 0 has a zero norm
        if not (other.a or other.b):
            raise ZeroDivisionError("division by zero QuadNum")
        # multiply by the conjugate of the divisor
        n = other.a * other.a - other.b * other.b * d
        inv = QuadNum._of(other.a / n, -other.b / n, d)
        return self * inv

    def __rtruediv__(self, other):
        return QuadNum(other) / self

    # -- exact sign and order ----------------------------------------------

    def sign(self) -> int:
        a, b, d = self.a, self.b, self.d
        # a + b*sqrt(d) = a + b*sqrt(pd*qd)/qd for d = pd/qd, so the positive
        # multiple a.den*b.den*qd of it has int coefficients
        qd = d.denominator
        return _sign_root(
            a.numerator * b.denominator * qd,
            b.numerator * a.denominator,
            d.numerator * qd,
        )

    def _cmp(self, other) -> int:
        other = self._coerce(other)
        if other is NotImplemented:
            raise TypeError("cannot compare QuadNum with that type")
        return (self - other).sign()

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    __hash__ = None  # mutable-free but not canonically normalized across radicands

    def __floor__(self) -> int:
        # self = (A +- sqrt(T)) / D in integers, so isqrt(T) decides the floor
        t = self.b * self.b * self.d
        D = self.a.denominator * t.denominator
        A, T = int(self.a * D), t.numerator * D * D // t.denominator
        r = isqrt(T)
        return (A + r) // D if self.b > 0 else (A - r - (r * r != T)) // D

    # -- display ------------------------------------------------------------

    def approx(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(float(self.d))

    def __repr__(self):
        if self.b == 0:
            return f"QuadNum({self.a})"
        return f"QuadNum({self.a} + {self.b}*sqrt({self.d}))"


Coord = Union[int, Fraction, QuadNum]


def sign_of(x: Coord) -> int:
    if isinstance(x, QuadNum):
        return x.sign()
    return (x > 0) - (x < 0)


def _primitive(a, zero="zero homogeneous triple"):
    """An integer triple over its gcd, the first nonzero entry positive.

    The zero triple raises PreconditionError(zero).
    """
    g = gcd(*a)
    if g == 0:
        raise PreconditionError(zero)
    if (a[0] or a[1] or a[2]) < 0:
        g = -g
    return (a[0] // g, a[1] // g, a[2] // g)


def _canonical_int_triple(c0: Fraction, c1: Fraction, c2: Fraction):
    c = (c0, c1, c2)
    return _primitive(_scaled(c, _den_lcm(c)))


@dataclass(frozen=True)
class PlanePoint:
    """Projective point [v0 : v1 : v2], canonical coprime integer triple."""

    h: tuple

    @staticmethod
    def make(v0, v1, v2) -> "PlanePoint":
        return PlanePoint(
            _canonical_int_triple(parse_frac(v0), parse_frac(v1), parse_frac(v2))
        )

    @property
    def at_infinity(self) -> bool:
        return self.h[0] == 0

    @property
    def x(self) -> Fraction:
        if self.at_infinity:
            raise PreconditionError("point at infinity has no affine coordinates")
        return Fraction(self.h[1], self.h[0])

    @property
    def y(self) -> Fraction:
        if self.at_infinity:
            raise PreconditionError("point at infinity has no affine coordinates")
        return Fraction(self.h[2], self.h[0])

    def __repr__(self):
        return f"[{self.h[0]}:{self.h[1]}:{self.h[2]}]"


@dataclass(frozen=True)
class PlaneLine:
    """Projective line a*v0 + b*v1 + c*v2 = 0, canonical coefficient triple."""

    coeffs: tuple

    @staticmethod
    def make(a, b, c) -> "PlaneLine":
        return PlaneLine(
            _canonical_int_triple(parse_frac(a), parse_frac(b), parse_frac(c))
        )

    @property
    def is_line_at_infinity(self) -> bool:
        return self.coeffs[1] == 0 and self.coeffs[2] == 0

    @property
    def is_vertical(self) -> bool:
        # affine equation b*x + a = 0
        return self.coeffs[2] == 0 and self.coeffs[1] != 0

    def eval_point(self, p: PlanePoint) -> int:
        a, b, c = self.coeffs
        return a * p.h[0] + b * p.h[1] + c * p.h[2]

    def contains(self, p: PlanePoint) -> bool:
        return self.eval_point(p) == 0

    def slope(self) -> Fraction:
        a, b, c = self.coeffs
        if c == 0:
            raise PreconditionError("vertical line has no slope")
        return Fraction(-b, c)

    def y_intercept(self) -> Fraction:
        a, b, c = self.coeffs
        if c == 0:
            raise PreconditionError("vertical line has no intercept")
        return Fraction(-a, c)

    def __repr__(self):
        a, b, c = self.coeffs
        return f"Line({a} + {b}x + {c}y = 0)"


def _cross3(p, q):
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def line_parabola_intersect(line: PlaneLine):
    """Affine intersection points of a line with the parabola y = x^2/2.

    Returns a list of (x, y) pairs with QuadNum coordinates ordered by x:
    two points for a secant, one for a tangent or a vertical line, none
    when the line misses the parabola.  The line at infinity is rejected.
    """
    if line.is_line_at_infinity:
        raise PreconditionError("line at infinity never meets the affine parabola")
    a, b, c = line.coeffs
    if c == 0:
        x0 = Fraction(-a, b)
        y0 = x0 * x0 / 2
        return [(QuadNum._of(x0, _ZERO, _ZERO), QuadNum._of(y0, _ZERO, _ZERO))]
    m = line.slope()
    k = line.y_intercept()
    # x^2/2 = m x + k  =>  x^2 - 2 m x - 2 k = 0, roots m -+ sqrt(disc),
    # and y = m x + k = (m^2 + k) -+ m sqrt(disc)
    disc = m * m + 2 * k
    if disc < 0:
        return []
    y0 = m * m + k
    r = _sq_root_if_perfect(disc)
    if r is None:  # delta prints the chord's disc, not its square-free part
        return [
            (QuadNum._of(m, -_ONE, disc), QuadNum._of(y0, -m, disc)),
            (QuadNum._of(m, _ONE, disc), QuadNum._of(y0, m, disc)),
        ]
    roots = [(m - r, y0 - m * r), (m + r, y0 + m * r)] if r else [(m, y0)]
    return [(QuadNum._of(x, _ZERO, _ZERO), QuadNum._of(y, _ZERO, _ZERO)) for x, y in roots]
