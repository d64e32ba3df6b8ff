"""Central charges, phases and potential walls of the stability family.

A parameter point (s, q) strictly above the parabola q = s^2/2 defines the
charge Z(v) = (-v2 + q*v0) + i*(v1 - s*v0) on projected characters.  Phases
are never evaluated transcendentally: each phase is carried as an exact ray
(the charge direction) plus, where needed, an integer half-turn count, and
every order is decided on a half-turn index and one cross sign (`_phase_order`).
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import (
    DegenerateGeometryError,
    PreconditionError,
    NotInHeartError,
    ZeroChargeError,
)
from .lattice import VTilde, discriminant
from .plane import (
    PlaneLine,
    PlanePoint,
    _Frozen,
    _cross3,
    _den_lcm,
    _primitive,
    _scaled,
    parse_frac,
    sign_of,
)


class StabPoint(_Frozen):
    """Stability parameter (s, q) with q > s^2/2 strictly."""

    __slots__ = _fields = ("s", "q")

    def __init__(self, s: Fraction, q: Fraction):
        if 2 * q <= s * s:
            raise PreconditionError(f"stability point ({s}, {q}) not strictly above q = s^2/2")
        self._set("s", s)
        self._set("q", q)

    @staticmethod
    def make(s, q) -> "StabPoint":
        return StabPoint(parse_frac(s), parse_frac(q))

    def __iter__(self):
        return iter((self.s, self.q))

    def to_dict(self) -> dict:
        return {"s": str(self.s), "q": str(self.q)}


def segment_point(P: StabPoint, Q: StabPoint, t) -> StabPoint:
    """Affine interpolation; stays above the parabola by convexity."""
    t = parse_frac(t)
    return StabPoint(P.s + t * (Q.s - P.s), P.q + t * (Q.q - P.q))


class ChargeValue(NamedTuple):
    re: Fraction
    im: Fraction

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_dict(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}


def central_charge(P, v: VTilde) -> ChargeValue:
    """Z(v) = (-v2 + q*v0) + i*(v1 - s*v0) at P = (s, q), a StabPoint or a pair."""
    s, q = P
    return ChargeValue(-v.v2 + q * v.v0, v.v1 - s * v.v0)


class HeartPosition(enum.Enum):
    StrictUpper = "StrictUpper"
    NegativeRealAxis = "NegativeRealAxis"
    Fails = "Fails"


def heart_sign_check(P: StabPoint, v: VTilde) -> HeartPosition:
    """Necessary numeric condition for membership in the tilted heart."""
    z = central_charge(P, v)
    if z.is_zero or not _upper(z):
        return HeartPosition.Fails
    return HeartPosition.StrictUpper if z.im else HeartPosition.NegativeRealAxis


def canonical_ray(x, y):
    """Scale a nonzero rational direction to a coprime integer pair."""
    x, y = parse_frac(x), parse_frac(y)
    if x == 0 and y == 0:
        raise ZeroChargeError("zero vector has no direction")
    a, b = _scaled((x, y), _den_lcm((x, y)))
    g = gcd(abs(a), abs(b))
    return (a // g, b // g)


def _ray_at(R, X):
    """canonical_ray(central_charge(R, x)) in ints.

    R = (g, g*s, g*q) with g > 0 is the point (s, q) and X a positive
    multiple of x, both integer triples: g*M*Z(x) = (gq*X0 - g*X2) +
    i*(g*X1 - gs*X0) for X = M*x.
    """
    g, gs, gq = R
    re, im = gq * X[0] - g * X[2], g * X[1] - gs * X[0]
    h = gcd(re, im)
    if not h:
        raise ZeroChargeError("zero vector has no direction")
    return (re // h, im // h)


def ray_cross_sign(r1, r2) -> int:
    """Sign of r1 x r2; entries may be ints, Fractions or QuadNums of one radicand."""
    return sign_of(r1[0] * r2[1] - r1[1] * r2[0])


def _upper(ray) -> bool:
    """theta(ray) in (0, 1]: Im > 0, or Im = 0 and Re < 0, the heart half plane."""
    sy = sign_of(ray[1])
    if sy:
        return sy > 0
    sx = sign_of(ray[0])
    if not sx:
        raise ZeroChargeError("zero ray has no direction")
    return sx < 0


def _phase_order(n1, r1, n2, r2) -> int:
    """Exact order of the lifted phases n1 + theta(r1) and n2 + theta(r2): -1, 0 or +1.

    n + theta lies in (j - 1, j] for the half-turn index j = n + [theta in
    (0, 1]], so unequal indices decide.  At one index, each ray turned into
    the upper half plane (itself, or its negation when theta <= 0) has
    angle/pi in (0, 1], and the negated cross sign of the turned rays
    orders them: turning both rays keeps their cross sign, turning one
    flips it.
    """
    u1, u2 = _upper(r1), _upper(r2)
    j1, j2 = n1 + u1, n2 + u2
    if j1 != j2:
        return -1 if j1 < j2 else 1
    c = ray_cross_sign(r1, r2)
    return c if u1 != u2 else -c


def theta_compare(r1, r2) -> int:
    """Exact order of principal angles in (-1, 1]; entries may be QuadNum."""
    return _phase_order(0, r1, 0, r2)


def theta_approx(ray) -> float:
    """Display value of angle/pi; components beyond float range are
    first scaled down together by a power of two."""
    try:
        x = ray[0].approx() if hasattr(ray[0], "approx") else float(ray[0])
        y = ray[1].approx() if hasattr(ray[1], "approx") else float(ray[1])
    except OverflowError:
        x, y = (math.floor(c * 2**64) for c in ray)  # exact, to 2^-64
        e = 2 ** max(abs(x).bit_length(), abs(y).bit_length())
        x, y = x / e, y / e
    return math.atan2(y, x) / math.pi


class LiftedPhase:
    """Phase on the universal cover: integer half-turn pair count + exact ray.

    value = n + theta(ray) with theta the principal angle/pi in (-1, 1].
    Comparisons and transport are exact; ray coordinates may be rational
    or QuadNum (one radicand per comparison).
    """

    __slots__ = ("n", "ray")

    def __init__(self, n: int, ray):
        # an int: a bool or a float is refused, never let decide an order
        if type(n) is not int:
            raise PreconditionError(f"half-turn count must be an int, not {n!r}")
        if sign_of(ray[0]) == 0 and sign_of(ray[1]) == 0:
            raise ZeroChargeError("zero ray has no phase")
        self.n = n
        self.ray = (ray[0], ray[1])

    def compare(self, other: "LiftedPhase") -> int:
        return _phase_order(self.n, self.ray, other.n, other.ray)

    def __eq__(self, other):
        return isinstance(other, LiftedPhase) and self.compare(other) == 0

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    __hash__ = None

    def shift(self, k: int) -> "LiftedPhase":
        return LiftedPhase(self.n + k, self.ray)

    def transport(self, new_ray) -> "LiftedPhase":
        """Continue the lift along a rotation of less than a half turn.

        The caller guarantees the underlying charge path rotates by less
        than pi; the new integer part is then forced.  Anti-parallel rays
        (exactly a half turn) are ambiguous and rejected.
        """
        if sign_of(new_ray[0]) == 0 and sign_of(new_ray[1]) == 0:
            raise ZeroChargeError("cannot transport onto a zero ray")
        # a turn to the left (cross > 0) ends above the start phase and one to
        # the right below it: at this n if the order of the rays at one n
        # agrees, else one full turn (n +- 2) away
        cross = ray_cross_sign(self.ray, new_ray)
        n = self.n
        if _phase_order(n, new_ray, n, self.ray) != cross:
            if not cross:  # anti-parallel: not the same phase
                raise DegenerateGeometryError("half-turn rotation has no unique lift")
            n += 2 * cross
        return LiftedPhase(n, new_ray)

    def approx(self) -> float:
        return self.n + theta_approx(self.ray)

    def to_dict(self) -> dict:
        from .jsonio import pair_to_json

        return {
            "n": self.n,
            "ray": pair_to_json(self.ray),
            "approx": round(self.approx(), 12),
        }

    def __repr__(self):
        return f"LiftedPhase(n={self.n}, ray={self.ray!r}, ~{self.approx():.4f})"


class PhaseValue(_Frozen):
    """Exact charge ray plus a display float in (0, 1]."""

    __slots__ = _fields = ("exact_ray", "approx")

    def __init__(self, exact_ray: tuple, approx: float):
        self._set("exact_ray", exact_ray)
        self._set("approx", approx)

    def to_dict(self) -> dict:
        return {
            "ray": [str(self.exact_ray[0]), str(self.exact_ray[1])],
            "approx": round(self.approx, 12),
        }


def _heart_charge(P: StabPoint, v: VTilde) -> ChargeValue:
    """Z(v), which must be nonzero and pass the heart sign check at P."""
    z = central_charge(P, v)
    if z.is_zero:
        raise ZeroChargeError("kernel character has no phase")
    if not _upper(z):
        raise NotInHeartError(
            f"charge ({z.re}, {z.im}) below the heart half plane at ({P.s}, {P.q})"
        )
    return z


def phase(P: StabPoint, v: VTilde) -> PhaseValue:
    """Principal phase Arg(Z)/pi for a heart-sign character."""
    z = _heart_charge(P, v)
    return PhaseValue(canonical_ray(*z), theta_approx(z))


def phase_compare(P: StabPoint, v: VTilde, w: VTilde) -> int:
    """Exact order of two heart phases: -1, 0 or +1."""
    return theta_compare(_heart_charge(P, v), _heart_charge(P, w))


def _wall_coeffs(v, w) -> tuple:
    """Canonical coefficients of the wall of integer triples v and w.

    The line through both plane points: the cross product, over its gcd,
    first nonzero entry positive, so any nonzero scale of v or w gives
    the same triple.
    """
    return _primitive(
        _cross3(v, w), "projectively identical characters define no wall"
    )


def wall_of(v: VTilde, w: VTilde) -> PlaneLine:
    """Line of parameter points where the two charges share a ray."""
    if v.is_zero or w.is_zero:
        raise ZeroChargeError("zero character defines no wall")
    V, W = (_scaled(t, _den_lcm(t)) for t in (v.as_tuple(), w.as_tuple()))
    return PlaneLine(_wall_coeffs(V, W))


def walls_disjoint_above_parabola(v: VTilde, w1: VTilde, w2: VTilde) -> PlanePoint:
    """Witness that two distinct walls of v only meet on or below q = s^2/2.

    Returns the unique intersection point of the two wall lines.  With
    discriminant(v) >= 0 the walls all pass through v's plane point, which
    lies on or below the parabola, so the assertion is a theorem; a
    violation would expose an inconsistency and raises.
    """
    if discriminant(v) < 0:
        raise PreconditionError("character has negative discriminant")
    l1 = wall_of(v, w1)
    l2 = wall_of(v, w2)
    if l1 == l2:
        raise PreconditionError("walls are identical")
    R = PlanePoint.make(*_cross3(l1.coeffs, l2.coeffs))
    g, gs, gq = R.h
    # 2*q > s^2 at R, times g^2 > 0; at infinity g = 0 and it never holds
    if 2 * g * gq > gs * gs:
        raise PreconditionError(
            f"wall intersection {R} lies strictly above the parabola"
        )
    return R
