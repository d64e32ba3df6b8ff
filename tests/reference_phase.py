"""Reference copy of the phase window decided in QuadNum arithmetic.

The bodies below are ``_endpoint_lift`` and ``phase_bound_interval`` as
they stood before the window's decisions became integer signs: the side of
each chord endpoint, its lift into the unit window around the anchor and
the order of the two lifts are decided on QuadNum differences and
``LiftedPhase.compare``.  ``quad_sign`` is ``QuadNum.sign`` as it stood
then, on Fraction products.  Tests compare the production window and sign
against this copy.
"""

from __future__ import annotations

from fractions import Fraction

from walland.errors import DegenerateGeometryError, PreconditionError, ZeroChargeError
from walland.lattice import VTilde
from walland.plane import PlanePoint, line_parabola_intersect
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
