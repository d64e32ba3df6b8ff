"""Reference copy of the phase window decided in QuadNum arithmetic.

The bodies below are ``_endpoint_lift`` and ``phase_bound_interval`` as
they stood before the window's decisions became integer signs: the side of
each chord endpoint, its lift into the unit window around the anchor and
the order of the two lifts are decided on QuadNum differences and
``LiftedPhase.compare``.  ``quad_sign`` is ``QuadNum.sign`` as it stood
then, on Fraction products.  Tests compare the production window and sign
against this copy.

``theta_compare``, ``lifted_compare`` and ``transport_n`` are the order of
lifted phases as it stood before one half-turn index decided it: four
buckets of the principal angle, four cases on the difference of the
integer parts, and a transport that tells parallel from anti-parallel rays
by a dot sign.  Their signs are taken by ``quad_sign``.
"""

from __future__ import annotations

from fractions import Fraction

from walland.errors import DegenerateGeometryError, PreconditionError, ZeroChargeError
from walland.lattice import VTilde
from walland.plane import PlanePoint, QuadNum, line_parabola_intersect
from walland.stability import (
    LiftedPhase,
    StabPoint,
    canonical_ray,
    central_charge,
    wall_of,
)
from walland.walls import PhaseInterval


def quad_sign(a: Fraction, b: Fraction, d: Fraction) -> int:
    """Sign of a + b*sqrt(d), d >= 0, from Fraction products."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 against b^2 d
    t = a * a - b * b * d
    s = (t > 0) - (t < 0)
    return s if a > 0 else -s


def _sign(x) -> int:
    if isinstance(x, QuadNum):
        return quad_sign(x.a, x.b, x.d)
    return (x > 0) - (x < 0)


def ray_cross_sign(r1, r2) -> int:
    return _sign(r1[0] * r2[1] - r1[1] * r2[0])


def ray_dot_sign(r1, r2) -> int:
    # r1 . r2 = r1 x (i*r2)
    return ray_cross_sign(r1, (-r2[1], r2[0]))


def _neg_ray(ray):
    return (-ray[0], -ray[1])


def _theta_bucket(ray) -> int:
    # principal angle/pi in (-1, 1]: lower half < positive axis < upper < negative axis
    sy = _sign(ray[1])
    if sy < 0:
        return 0
    if sy > 0:
        return 2
    sx = _sign(ray[0])
    if sx > 0:
        return 1
    if sx < 0:
        return 3
    raise ZeroChargeError("zero ray has no direction")


def theta_compare(r1, r2) -> int:
    b1, b2 = _theta_bucket(r1), _theta_bucket(r2)
    if b1 != b2:
        return -1 if b1 < b2 else 1
    if b1 in (1, 3):
        return 0
    # same open half plane: cross sign decides
    return -ray_cross_sign(r1, r2)


def lifted_compare(n1, r1, n2, r2) -> int:
    """Order of n1 + theta(r1) and n2 + theta(r2), as LiftedPhase.compare."""
    dn = n1 - n2
    if dn == 0:
        return theta_compare(r1, r2)
    if dn >= 2:
        return 1
    if dn <= -2:
        return -1
    if dn == 1:
        # theta1 + 1 vs theta2: wraps unless theta1 <= 0
        if _theta_bucket(r1) >= 2:
            return 1
        return theta_compare(_neg_ray(r1), r2)
    if _theta_bucket(r2) >= 2:
        return -1
    return theta_compare(r1, _neg_ray(r2))


def transport_n(n, ray, new_ray) -> int:
    """The integer part of LiftedPhase(n, ray).transport(new_ray)."""
    if _sign(new_ray[0]) == 0 and _sign(new_ray[1]) == 0:
        raise ZeroChargeError("cannot transport onto a zero ray")
    cross = ray_cross_sign(ray, new_ray)
    if cross == 0:
        if ray_dot_sign(ray, new_ray) > 0:
            return n
        raise DegenerateGeometryError("half-turn rotation has no unique lift")
    t = theta_compare(new_ray, ray)
    if cross > 0:
        return n if t > 0 else n + 2
    return n if t < 0 else n - 2


def _endpoint_lift(
    X, P: StabPoint, Q: StabPoint, zP, anchor: LiftedPhase
) -> LiftedPhase:
    re, im = zP
    # plane direction of the charge ray at P
    dir_s, dir_q = im, -re
    side = ((X[0] - P.s) * dir_s + (X[1] - P.q) * dir_q).sign()
    if side == 0:
        raise DegenerateGeometryError("chord endpoint aligned with the base point")
    dx = X[0] - Q.s
    dy = X[1] - Q.q
    if side > 0:
        ray = (-dy, dx)  # i * (X - Q)
    else:
        ray = (dy, -dx)  # i * (Q - X)
    lo = anchor.shift(-1)
    hi = anchor.shift(1)
    picked = None
    for n in (0, 2):
        cand = LiftedPhase(n, ray)
        if lo.compare(cand) < 0 and cand.compare(hi) < 0:
            if picked is not None:
                raise DegenerateGeometryError("ambiguous endpoint lift window")
            picked = cand
    if picked is None:
        raise DegenerateGeometryError("endpoint lift fell on the window boundary")
    return picked


def phase_bound_interval(P: StabPoint, Q: StabPoint, v: VTilde) -> PhaseInterval:
    if v.is_zero:
        raise ZeroChargeError("zero character has no phase interval")
    zP = central_charge(P, v)
    if zP.is_zero:
        raise PreconditionError("character plane point coincides with P")
    Xv = PlanePoint.make(*v.as_tuple())
    L = wall_of(v, VTilde(1, P.s, P.q))
    pts = line_parabola_intersect(L)
    if len(pts) != 2:
        raise DegenerateGeometryError(
            "chord line is tangent to or misses the parabola"
        )
    A, B = pts
    anchor = LiftedPhase(0, canonical_ray(*zP))
    lam_A = _endpoint_lift(A, P, Q, zP, anchor)
    lam_B = _endpoint_lift(B, P, Q, zP, anchor)
    degenerate = None
    if not Xv.at_infinity:
        if A[0] == Xv.x and A[1] == Xv.y:
            degenerate = "A"
        elif B[0] == Xv.x and B[1] == Xv.y:
            degenerate = "B"
    if lam_A.compare(lam_B) <= 0:
        lo, hi = lam_A, lam_B
        labels = {"lo": "A", "hi": "B"}
    else:
        lo, hi = lam_B, lam_A
        labels = {"lo": "B", "hi": "A"}
    return PhaseInterval(
        lo=lo,
        hi=hi,
        labels=labels,
        Q=Q,
        A=A,
        B=B,
        chord=L,
        anchor=anchor,
        degenerate_endpoint=degenerate,
    )
