"""Exact arithmetic for the output checkers, written from the definitions.

Nothing here imports `walland`: the checkers must not share a helper with
the code they check.  Numbers are `Fraction`s or `Quad` values
a + b*sqrt(d) with one radicand per comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Quad:
    """a + b*sqrt(d) with rational a, b and rational d >= 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=0):
        self.a, self.b, self.d = frac(a), frac(b), frac(d)
        if self.b == 0:
            self.d = Fraction(0)

    @staticmethod
    def of(x) -> "Quad":
        return x if isinstance(x, Quad) else Quad(x)

    @staticmethod
    def from_json(doc) -> "Quad":
        return Quad(Fraction(doc["a"]), Fraction(doc["b"]), Fraction(doc["delta"]))

    def _radicand(self, other):
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise CheckFailed(f"mixed radicands {self.d} and {other.d}")

    def __add__(self, other):
        other = Quad.of(other)
        return Quad(self.a + other.a, self.b + other.b, self._radicand(other))

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-Quad.of(other))

    def __rsub__(self, other):
        return Quad.of(other) - self

    def __mul__(self, other):
        other = Quad.of(other)
        d = self._radicand(other)
        return Quad(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def sign(self) -> int:
        # sign of a + b*sqrt(d): compare a^2 with b^2 d when the signs differ
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0) if self.d > 0 else 0
        if sb == 0 or sa == sb:
            return sa if sa != 0 else sb
        if sa == 0:
            return sb
        big = self.a * self.a - self.b * self.b * self.d
        if big == 0:
            return 0
        return sa if big > 0 else sb


def sign(x) -> int:
    if isinstance(x, Quad):
        return x.sign()
    return (x > 0) - (x < 0)


def cross3(p, q):
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def primitive(triple):
    """Coprime integer triple, first nonzero entry positive."""
    den = 1
    for f in triple:
        f = frac(f)
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(frac(f) * den) for f in triple]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    require(g != 0, "zero homogeneous triple")
    ints = [x // g for x in ints]
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def charge(s, q, v):
    """Z(v) = (-v2 + q*v0) + i*(v1 - s*v0)."""
    return (-v[2] + q * v[0], v[1] - s * v[0])


def disc(v) -> Fraction:
    return v[1] * v[1] - 2 * v[0] * v[2]


def same_ray(r1, r2) -> bool:
    """r1 is a positive multiple of r2 (entries rational or Quad)."""
    if sign(r1[0] * r2[1] - r1[1] * r2[0]) != 0:
        return False
    return sign(r1[0] * r2[0] + r1[1] * r2[1]) > 0


# ---------------------------------------------------------------------------
# lifted phases: value = n + theta(ray), theta = principal angle/pi in (-1, 1]
# ---------------------------------------------------------------------------


def _upper(ray) -> bool:
    """Ray in the half-open upper half plane {y > 0} or {y = 0, x > 0}."""
    sy = sign(ray[1])
    return sy > 0 or (sy == 0 and sign(ray[0]) > 0)


def _split(lift):
    """(floor of the value, ray turned into the upper half plane)."""
    n, ray = lift
    require(sign(ray[0]) != 0 or sign(ray[1]) != 0, "lifted phase with a zero ray")
    if _upper(ray):
        return n, ray
    neg = (-ray[0], -ray[1])
    if sign(ray[1]) < 0:
        return n - 1, neg  # theta in (-1, 0)
    return n + 1, neg  # negative real axis, theta = 1


def lift_cmp(l1, l2) -> int:
    """Exact order of two lifted phases (n, ray)."""
    h1, r1 = _split(l1)
    h2, r2 = _split(l2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    # both rays in one half plane: the counter-clockwise one is larger
    return -sign(r1[0] * r2[1] - r1[1] * r2[0])


def lift_shift(lift, k):
    return (lift[0] + k, lift[1])


def lift_from_json(doc):
    ray = doc["ray"]
    return (int(doc["n"]), (Quad.from_json(ray[0]), Quad.from_json(ray[1])))


def check_lift_of(lift, z, what):
    """The lift points along the charge z: ray a positive multiple, n even.

    value = n + theta(ray) points along (-1)^n * ray, so an odd n would
    put the phase half a turn away from the charge it claims to lift.
    """
    require(lift[0] % 2 == 0, f"{what}: odd half-turn count {lift[0]}")
    require(same_ray(lift[1], z), f"{what}: ray does not follow the charge")


def check_within_half_turn(lift, base, what):
    """|value(lift) - value(base)| < 1: the unique transport of base."""
    require(
        lift_cmp(lift_shift(base, -1), lift) < 0 and lift_cmp(lift, lift_shift(base, 1)) < 0,
        f"{what}: not within a half turn of its base lift",
    )
