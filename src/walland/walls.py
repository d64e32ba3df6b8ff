"""Wall-crossing toolkit.

Four pieces built on the exact stability engine:

* phase-bound intervals: the two parabola intersection points of the line
  through a character and a parameter point bound, after lifting, the
  phases every numerical factor can reach at a deformed parameter;
* candidate-wall enumeration over a bounded integral search grid;
* destabilization-path simulation along a parameter segment, recursing
  through two-term integral splits at strict wall crossings;
* the Ext2-vanishing certificate: the geometric dichotomy (segment
  intersection with a strict phase inequality at the witness, or phase
  dominance of the canonically twisted character below the interval).

Everything is exact.  Lifted phases are (integer, ray) pairs; rotations
along parameter segments stay below a half turn, which pins each lift.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import chain
from typing import Optional

from .errors import (
    CertificateFailure,
    DegenerateGeometryError,
    PreconditionError,
    ZeroChargeError,
)
from .jsonio import pair_to_json
from .lattice import (
    CharVec,
    SurfaceLattice,
    VTilde,
    _exp_ch2,
    derived_dual,
    euler_pairing,
    vtilde,
    # not called here; walland.walls.discriminant stays a name that
    # perfbench/tracing.py wraps
    discriminant,
)
from .plane import (
    PlaneLine,
    _Frozen,
    _Value,
    _cross3,
    _den_lcm,
    _scaled,
    _sign_root,
    line_parabola_intersect,
    parse_frac,
)
from .stability import (
    LiftedPhase,
    StabPoint,
    _ray_at,
    _upper,
    _wall_coeffs,
    # not called here; walland.walls.canonical_ray and walland.walls.wall_of
    # stay the names that perfbench/tracing.py wraps
    canonical_ray,
    wall_of,
)


# ---------------------------------------------------------------------------
# enumeration bounds and regions
# ---------------------------------------------------------------------------


class EnumerationBounds(_Frozen):
    """Finite search box: |rank| <= rank_bound, |c1 coords| <= c1_bound.

    Both bounds must be nonnegative ints; a float or a bool raises
    PreconditionError.
    """

    __slots__ = _fields = ("rank_bound", "c1_bound")

    def __init__(self, rank_bound: int, c1_bound: int):
        for b in (rank_bound, c1_bound):
            if type(b) is not int or b < 0:
                raise PreconditionError(f"enumeration bounds must be nonnegative ints, not {b!r}")
        self._set("rank_bound", rank_bound)
        self._set("c1_bound", c1_bound)

    @staticmethod
    def coerce(bounds) -> "EnumerationBounds":
        if isinstance(bounds, EnumerationBounds):
            return bounds
        if bounds is None:
            raise PreconditionError("enumeration requires explicit rank/c1 bounds")
        try:
            rb, cb = bounds
        except (TypeError, ValueError) as exc:
            raise PreconditionError(f"bad enumeration bounds: {bounds!r}") from exc
        return EnumerationBounds(rb, cb)


def _ring(corners):
    """Corners (s, q) as homogeneous integer triples (m, m*s, m*q), one m > 0."""
    m = _den_lcm(chain(*corners))
    return tuple((m, *_scaled(corner, m)) for corner in corners)


def _meet(ring, f):
    """Where a line meets the closed convex region, as integer triples.

    ring holds the region's corners (m, m*s, m*q), one m > 0, in cyclic
    order, and f the line's integer values at them.  Returns the corners
    with f = 0 and, per edge whose ends have values fa and fb of strictly
    opposite signs, its crossing (g, g*s, g*q) = fa*end - fb*start, with
    g = (fa - fb)*m nonzero and of either sign.
    A line meets a convex region in at most two distinct such points: its
    one point, or the two ends of a span.
    """
    pts = [c for c, fc in zip(ring, f) if fc == 0]
    for i in range(len(ring) == 2, len(ring)):  # a segment has one edge
        fa, fb = f[i - 1], f[i]
        if fa * fb < 0:
            (g0, s0, q0), (g1, s1, q1) = ring[i - 1], ring[i]
            pts.append((fa * g1 - fb * g0, fa * s1 - fb * s0, fa * q1 - fb * q0))
    return pts


def _wall_clip(region, wall: PlaneLine):
    """None or the distinct points (s, q) of the wall's meet with the region."""
    a, b, c = wall.coeffs
    ring = region.ring
    pts = []
    for g, gs, gq in _meet(ring, [a * m + b * s + c * q for m, s, q in ring]):
        p = (Fraction(gs, g), Fraction(gq, g))
        if p not in pts:
            pts.append(p)
    return pts or None


class SegmentRegion:
    """Closed segment between two stability parameters."""

    def __init__(self, P: StabPoint, Q: StabPoint):
        self.ring = _ring((P, Q))

    @classmethod
    def of_ring(cls, ring) -> "SegmentRegion":
        """The segment between the ends (m, m*s, m*q) of ring, one m > 0."""
        region = cls.__new__(cls)
        region.ring = ring
        return region

    wall_clip = _wall_clip


class BoxRegion:
    """Axis-aligned closed box strictly above the parabola."""

    def __init__(self, s_lo, s_hi, q_lo, q_hi):
        s0, s1, q0, q1 = map(parse_frac, (s_lo, s_hi, q_lo, q_hi))
        if s0 > s1 or q0 > q1:
            raise PreconditionError("empty box region")
        # max of s^2/2 over [s_lo, s_hi] sits at a corner
        for s in (s0, s1):
            StabPoint(s, q0)
        self.ring = _ring(((s0, q0), (s0, q1), (s1, q1), (s1, q0)))  # cyclic

    wall_clip = _wall_clip


# ---------------------------------------------------------------------------
# the destabilizing ratio on a wall
# ---------------------------------------------------------------------------


def _ratio(v, w, vertical: bool, point):
    """(n, d) with Z(w) = (n / d) * Z(v) on wall_of(v, w), times g.

    v and w are integer triples and point = (g, g*s, g*q) a point of the
    wall with integer g != 0.  Off a vertical wall t = Im Z(w) / Im Z(v)
    depends on s alone; along a vertical wall Im Z(v) vanishes and
    t = Re Z(w) / Re Z(v) depends on q alone.  d = 0 only at v's plane
    point, where Z(v) = 0.  The common factor g moves no sign of n, n*d,
    d*d - n*d or d*d - n*n.
    """
    g, gs, gq = point
    if vertical:
        return gq * w[0] - w[2] * g, gq * v[0] - v[2] * g
    return w[1] * g - gs * w[0], v[1] * g - gs * v[0]


def _split_w1_ranges(m, S0, S1, d0, d1, W0):
    """Per sign, the W1 whose n, d and d - n share it somewhere, as (lo, hi).

    Off a vertical wall n(t) = m*W1 - S(t)*W0 and d(t) are affine in t in
    [0, 1], S and d running from S0, d0 to S1, d1.  The three have the
    strict sign sgn at t exactly when sgn*d(t) > 0 and m*W1 lies strictly
    between S(t)*W0 and S(t)*W0 + d(t).  The t with sgn*d(t) > 0 form an
    interval, over which these open intervals of m*W1 move continuously, so
    together they fill one open interval.  Its ends are the least and the
    greatest of the two bounds at the ends of the t-interval's closure:
    t = 0, t = 1 or the zero t_z = d0 / (d0 - d1) of d, where both bounds
    are (S1*d0 - S0*d1)*W0 / (d0 - d1) and the interval shrinks to a point.
    Returns the inclusive integer ranges of W1, at most one per sign; a
    range may be empty (lo > hi).
    """
    out = []
    for sgn in (1, -1):
        pos0, pos1 = sgn * d0 > 0, sgn * d1 > 0
        if pos0 and pos1:
            g, ends = 1, ((S0, d0), (S1, d1))
        elif pos0 or pos1:
            # the ends t = 0 or 1 and t_z, all times g = d0 - d1 != 0
            g = d0 - d1
            S, d = (S0, d0) if pos0 else (S1, d1)
            ends = ((S * g, d * g), (S1 * d0 - S0 * d1, 0))
        else:
            continue
        bounds = [S * W0 + e for S, d in ends for e in (0, d)]
        if g < 0:
            g, bounds = -g, [-b for b in bounds]
        # lo < m*W1*g < hi
        out.append((min(bounds) // (m * g) + 1, -(-max(bounds) // (m * g)) - 1))
    return out


# ---------------------------------------------------------------------------
# candidate walls
# ---------------------------------------------------------------------------


class CandidateWall(_Frozen):
    """A wall with its witnesses; crossing is set by the split rule only.

    crossing is the parameter in (0, 1) along the segment, start to end,
    where the wall crosses it.  It is not part of the JSON form.
    """

    __slots__ = _fields = ("wall", "witnesses", "crossing")

    def __init__(self, wall: PlaneLine, witnesses: tuple, crossing: Optional[Fraction] = None):
        self._set("wall", wall)
        self._set("witnesses", witnesses)
        self._set("crossing", crossing)

    def to_dict(self) -> dict:
        return {
            "wall": [str(c) for c in self.wall.coeffs],
            "witnesses": [list(w.to_list()) for w in self.witnesses],
        }


# Steps one enumeration may take, counting (rank, c1) pairs and witnesses
# apart: the corpora need about 10^4 at most (a public scan; a split scan
# charges only the k inside its discriminant window, at most 86 on the
# criterion-2 walks), and a huge character, region or bound could need more
# than any run can finish.
_SCAN_LIMIT = 10**6


def _check_scan_pairs(bounds: EnumerationBounds, L: SurfaceLattice) -> None:
    """Refuse bounds that allow more than _SCAN_LIMIT (rank, c1) pairs."""
    pairs = (2 * bounds.rank_bound + 1) * (2 * bounds.c1_bound + 1) ** L.rank
    if pairs > _SCAN_LIMIT:
        raise PreconditionError(f"bounds allow over {_SCAN_LIMIT} (rank, c1) pairs")


def _pencil_ks(lo: int, hi: int, forms):
    """Integers k in [lo, hi] whose wall meets the region, as ranges.

    forms holds per region corner an integer (A, B) with A + B*k a positive
    multiple of det(v, w, corner).  The wall misses the closed convex region
    exactly when all corners are strictly positive, or all strictly
    negative: two intervals of k, which leave at most three ranges.
    """
    holes = []
    for sgn in (1, -1):
        a, b = lo, hi  # the k in [lo, hi] where every corner has sign sgn
        for A, B in forms:
            A, B = sgn * A, sgn * B
            if B > 0:
                a = max(a, -A // B + 1)  # A + B*k > 0
            elif B < 0:
                b = min(b, -(A // B) - 1)
            elif A <= 0:
                break
        else:
            if a <= b:
                holes.append((a, b))
    ranges, start = [], lo
    for a, b in sorted(holes):
        ranges.append(range(start, a))
        start = b + 1
    ranges.append(range(start, hi + 1))
    return ranges


def enumerate_candidate_walls(
    v: VTilde,
    region,
    rank_bound: int,
    c1_bound: int,
    L: SurfaceLattice,
    *,
    split: bool = False,
):
    """All potential walls of v meeting the region, with integral witnesses.

    Witness characters w = (r', c', e') run over |r'| <= rank_bound and
    |c' coords| <= c1_bound; e' is confined to the integrality grid inside
    an exact envelope (|Re Z(w)| cannot exceed |Re Z(v)| anywhere a ratio
    in (-1, 1) is achieved) and the Bogomolov bounds on w and v - w, all
    linear in the ch2 step k.  Walls of v form the pencil through v's plane
    point and det(v, w, corner) is linear in k, so the k whose wall misses
    the region are cut out in closed form by corner signs before any
    witness is built.  Both keep rules decide a survivor in ints from these
    pencil forms f = det(v, w, corner), before its wall is built: with
    Z(w) = (n / d) * Z(v) on the wall, _ratio gives (n, d) times a common
    nonzero integer at an integer point of it.

    The public rule keeps w when n != 0 and n^2 < d^2 somewhere on the
    meet.  It is tested only at the points _meet returns, its one point or
    the two ends of a span: the Bogomolov bounds on k put the plane points
    of w and v - w, where n and d - n vanish, on or below the parabola, and
    every meet lies strictly above it.  So along a meet n and d - n keep
    their signs, d + n changes sign at most once, and the kept part, where
    n != 0 and (d - n)(d + n) > 0, is an interval that holds an end.

    The split rule (split=True, region a SegmentRegion) keeps what the
    destabilization walk splits along: walls crossing the segment strictly
    inside it, f0 * f1 < 0 at start and end, with 0 < n*d < d^2 at the
    crossing R, i.e. n, d and d - n of one strict sign there.  Off a
    vertical wall (V0*W1 != V1*W0 for the pair) n and d are affine along
    the segment, so per rank the W1 for which some point of it gives the
    three one strict sign form at most two integer ranges
    (_split_w1_ranges).  The split rule scans only the c1 classes inside
    them, and the vertical classes, and skips the rest outright.
    The rule is exact: a transversal wall meets the segment in R alone,
    the public rule's meet, and 0 < n*d < d^2 implies n != 0 and
    n^2 < d^2, so the split rule keeps exactly the public rule's witnesses
    that the walk splits along.  Each returned wall carries its crossing.

    The split rule also confines k to the discriminant window
    0 <= Q(w), Q(u) < Q(v), with Q(x) = x1^2 - 2*x0*x2 and u = v - w.  At a
    kept crossing R, strictly above the parabola, Z_R(w) = lam*Z_R(v) with
    0 < lam < 1, so w = lam*v + mu*e, where e = (1, s, q) spans ker Z_R and
    Q(e) = s^2 - 2*q < 0.  Then

        Q(w)/lam + Q(u)/(1 - lam) = Q(v) + mu^2*Q(e)/(lam*(1 - lam)),

    which is < Q(v), as mu != 0: a w proportional to v has no wall.  With
    Q(w), Q(u) >= 0 (Bogomolov) this gives Q(w) < lam*Q(v) < Q(v), and
    likewise Q(u) < Q(v).  M^2*Q(w) and M^2*Q(u) are affine in k, so each
    part adds one // to the k bounds, or where its rank is 0 a test of the
    pair.  A v with Q(v) = 0 therefore has no split: its window is empty.
    The public rule allows ratios in (-1, 1), where the identity bounds
    nothing, so it scans no window.

    The scan runs in ints: M, the lcm of the denominators of v and of the
    lattice's scan_constants, makes M*w integral for every witness w, so
    the k bounds are exact floors and ceils by //, and one M > 0 on v and
    w moves no wall line, no meet and no sign of n or d^2 - n^2.  Every
    test reads w alone, so each c1 class of scan_constants is scanned once.
    A kept wall is _wall_coeffs of M*v and M*w, the formula of wall_of, and
    the returned witnesses hold one Fraction(x, M) per distinct int x.
    PreconditionError is raised when the bounds allow more than _SCAN_LIMIT
    (rank, c1) pairs, or when the k left by the k bounds (the window
    included) and _pencil_ks, counted per c1 vector, would pass it.
    """
    bounds = EnumerationBounds(rank_bound, c1_bound)
    if v.is_zero:
        raise ZeroChargeError("zero character has no walls")
    _check_scan_pairs(bounds, L)
    ring = region.ring
    if split and len(ring) != 2:
        raise PreconditionError("the split rule needs a segment region")
    M_L, H2, half_DD, classes = L.scan_constants(bounds.c1_bound)
    M = math.lcm(M_L, _den_lcm(v.as_tuple()))
    f = M // M_L  # c = c' mod M_L exactly when f*c = f*c' mod M
    H2, half_DD = H2 * f, half_DD * f
    classes = [(w1 * f, c_base * f, n) for w1, c_base, n in classes]
    V = V0, V1, V2 = _scaled(v.as_tuple(), M)
    QV = V1 * V1 - 2 * V0 * V2  # M^2 * Q(v)
    m = ring[0][0]
    qs = [q for _, _, q in ring]
    # m*M times the max of |Re Z(v)| over the region: linear, so corners suffice
    envelope = max(abs(q * V0 - m * V2) for q in qs)
    # det(v, w, corner) = w . (corner x v)
    normals = [_cross3(corner, V) for corner in ring]
    row = classes
    if split:
        (_, S0, Q0), (_, S1, Q1) = ring
        # m*M*Im Z(v) at start and end: the split rule's d off a vertical wall
        d0, d1 = normals[0][2], normals[1][2]
        classes.sort(key=lambda c: c[0])
        keys = [W1 for W1, _, _ in classes]
    found, crossing = {}, {}
    budget = _SCAN_LIMIT
    for r in range(-bounds.rank_bound, bounds.rank_bound + 1):
        W0 = H2 * r
        env_lo = min(q * W0 for q in qs) - envelope
        env_hi = max(q * W0 for q in qs) + envelope
        r_base = half_DD * r
        if split:
            spans = [
                (bisect_left(keys, lo), bisect_right(keys, hi))
                for lo, hi in _split_w1_ranges(m, S0, S1, d0, d1, W0)
            ]
            # the vertical classes, V0*W1 = V1*W0, are decided in q
            if V0:
                W1, rest = divmod(V1 * W0, V0)
                if not rest:
                    spans.append((bisect_left(keys, W1), bisect_right(keys, W1)))
            elif V1 * W0 == 0:
                spans.append((0, len(keys)))
            row, done = [], 0
            for i, j in sorted(spans):
                row += classes[max(i, done):j]
                done = max(done, j)
        for W1, c_base, n_c1 in row:
            vertical = V0 * W1 == V1 * W0
            # M*w2 = B + M*k over integers k: integrality of e' plus twist shift
            B = c_base + r_base
            k_lo = -((m * B - env_lo) // (m * M))
            k_hi = (env_hi - m * B) // (m * M)
            # M^2*Q(w) = qw - 2*W0*M*k and M^2*Q(u) = qu + 2*U0*M*k: Bogomolov
            # keeps both >= 0, and the split rule's window keeps both < QV
            U0, U1 = V0 - W0, V1 - W1
            qw, qu = W1 * W1 - 2 * W0 * B, U1 * U1 - 2 * U0 * (V2 - B)
            if W0 > 0:
                k_hi = min(k_hi, qw // (2 * W0 * M))
                if split:
                    k_lo = max(k_lo, (qw - QV) // (2 * W0 * M) + 1)
            elif W0 < 0:
                k_lo = max(k_lo, -((-qw) // (2 * W0 * M)))
                if split:
                    k_hi = min(k_hi, -((QV - qw) // (2 * W0 * M)) - 1)
            elif split and qw >= QV:
                continue
            if U0 > 0:
                k_lo = max(k_lo, -(qu // (2 * U0 * M)))
                if split:
                    k_hi = min(k_hi, -((qu - QV) // (2 * U0 * M)) - 1)
            elif U0 < 0:
                k_hi = min(k_hi, (-qu) // (2 * U0 * M))
                if split:
                    k_lo = max(k_lo, (QV - qu) // (2 * U0 * M) + 1)
            elif split and qu >= QV:
                continue
            if k_lo > k_hi:
                continue
            forms = [(W0 * n0 + W1 * n1 + B * n2, M * n2) for n0, n1, n2 in normals]
            ks = _pencil_ks(k_lo, k_hi, forms)
            budget -= n_c1 * sum(max(0, span.stop - span.start) for span in ks)
            if budget < 0:
                raise PreconditionError(f"scan would pass {_SCAN_LIMIT} witnesses")
            if split:
                (A0, B0), (A1, B1) = forms
            for k in chain.from_iterable(ks):
                w = (W0, W1, B + M * k)
                if split:
                    f0, f1 = A0 + B0 * k, A1 + B1 * k
                    if f0 * f1 >= 0:
                        continue  # strict transversal crossings only
                    # the segment's one edge crossing, as _meet writes it
                    R = (m * (f0 - f1), f0 * S1 - f1 * S0, f0 * Q1 - f1 * Q0)
                    n, d = _ratio(V, w, vertical, R)
                    if not 0 < n * d < d * d:
                        continue
                else:
                    # w proportional to v, w = 0 and w = v included, is vertical
                    if vertical and not any(_cross3(V, w)):
                        continue
                    f = [a + b * k for a, b in forms]
                    ratios = (_ratio(V, w, vertical, p) for p in _meet(ring, f))
                    if not any(n != 0 and n * n < d * d for n, d in ratios):
                        continue
                # V x w != 0: the public rule skips w proportional to V, and
                # in the split rule w proportional to V would give f0 = f1 = 0
                coeffs = _wall_coeffs(V, w)
                if split and coeffs not in crossing:
                    crossing[coeffs] = Fraction(f0, f0 - f1)
                found.setdefault(coeffs, set()).add(w)
    # one Fraction per distinct int, shared by the witnesses that hold it
    ints = {x for ws in found.values() for w in ws for x in w}
    frac = {x: Fraction(x, M) for x in ints}
    return [
        CandidateWall(
            PlaneLine(coeffs),
            tuple(
                VTilde(frac[a], frac[b], frac[c]) for a, b, c in sorted(found[coeffs])
            ),
            crossing.get(coeffs),
        )
        for coeffs in sorted(found)
    ]


# ---------------------------------------------------------------------------
# phase-bound intervals
# ---------------------------------------------------------------------------


class PhaseInterval(_Value):
    """Lifted phase window spanned by the two chord endpoints at Q."""

    _fields = ("lo", "hi", "labels", "Q", "A", "B", "chord", "anchor", "degenerate_endpoint")
    __slots__ = _fields

    def __init__(self, lo, hi, labels, Q, A, B, chord, anchor, degenerate_endpoint=None):
        self.lo, self.hi, self.labels, self.Q, self.A, self.B = lo, hi, labels, Q, A, B
        self.chord, self.anchor, self.degenerate_endpoint = chord, anchor, degenerate_endpoint

    def contains(self, lp: LiftedPhase) -> bool:
        """Weak membership lo <= lp <= hi."""
        return self.lo.compare(lp) <= 0 and lp.compare(self.hi) <= 0

    def to_dict(self) -> dict:
        return {
            "lo": self.lo.to_dict(),
            "hi": self.hi.to_dict(),
            "labels": dict(self.labels),
            "Q": self.Q.to_dict(),
            "A": pair_to_json(self.A),
            "B": pair_to_json(self.B),
            "chord": [str(c) for c in self.chord.coeffs],
            "degenerate_endpoint": self.degenerate_endpoint,
        }


def _endpoint_lift(X, Q: StabPoint, side: int, dx, dy, D: int, anchor) -> tuple:
    """Lift of the chord endpoint X viewed from Q, branch pinned by anchor.

    The ray is side*i*(X - Q), and X - Q a positive multiple of
    (dx[0] + dx[1]*sqrt(D), dy[0] + dy[1]*sqrt(D)) in ints.  The integer
    part, 0 or 2, lands the value inside the open unit window around the
    anchor phase at P.  The turn of less than a half turn from the anchor's
    ray to this one passes the negative real axis counterclockwise when it
    leaves the closed upper half plane (n = 2), clockwise when it enters it
    (outside both windows).  Returns the lift and k, the sign of
    anchor x ray: the side of the anchor phase it lies on.
    """
    ax, ay = anchor.ray
    # anchor x (i*w) = anchor . w, and the ray's y entry is side*(X - Q).x
    k = side * _sign_root(ax * dx[0] + ay * dy[0], ax * dx[1] + ay * dy[1], D)
    ry = side * _sign_root(*dx, D)
    if k < 0 and ay < 0 <= ry:
        raise DegenerateGeometryError("endpoint lift fell on the window boundary")
    # k = 0 puts Q on the chord, strictly between A and B as P is: X - Q
    # then points along X - P, and the ray along the anchor
    n = 2 if k > 0 and ry < 0 <= ay else 0
    dxq, dyq = X[0] - Q.s, X[1] - Q.q
    ray = (-dyq, dxq) if side > 0 else (dyq, -dxq)  # i * (X - Q) or i * (Q - X)
    return LiftedPhase(n, ray), k


def phase_bound_interval(P: StabPoint, Q: StabPoint, v: VTilde) -> PhaseInterval:
    """Exact lifted window [phi_Q(A), phi_Q(B)] for factors deformed P -> Q.

    A and B are the parabola intersections of the line through v's plane
    point and P; their phases at Q are lifted through a rotation of less
    than a half turn from the anchor phase of v at P.

    Every decision is an integer sign, read off integer triples: v's, and
    P and Q as (m, m*s, m*q), one m > 0.  With the chord a + b*s + c*q = 0
    scaled to c > 0 (a vertical chord has one endpoint) and D = b^2 - 2*a*c,
    the endpoints are x = (-b -+ sqrt(D))/c, y = x^2/2, A first.  P lies
    on the chord strictly between them, so X - P points along the chord's
    charge ray (Im Z, -Re Z) for B and against it for A when Im Z(v) > 0
    at P.  Both lifts lie within a half turn of the anchor, so they are
    ordered by their sides of it, and on one side by the side of Q
    relative to the chord.  QuadNums are built only to print A, B and rays.
    """
    if v.is_zero:
        raise ZeroChargeError("zero character has no phase interval")
    V, _ = _ints(v)
    Pr, (q0, q1, q2) = _ring((P, Q))
    if not any(_cross3(Pr, V)[1:]):  # Z_P(v) = 0: v's plane point is P
        raise PreconditionError("character plane point coincides with P")
    L = PlaneLine(_wall_coeffs(V, Pr))
    pts = line_parabola_intersect(L)
    if len(pts) != 2:
        raise DegenerateGeometryError(
            "chord line is tangent to or misses the parabola"
        )
    A, B = pts
    anchor = LiftedPhase(0, _ray_at(Pr, V))
    a, b, c = L.coeffs if L.coeffs[2] > 0 else [-x for x in L.coeffs]
    D = b * b - 2 * a * c
    # X - Q times c^2*q0 is (xq + e*c*q0*sqrt(D), yq - e*b*q0*sqrt(D)), e = -1 at A
    xq, yq = -c * (b * q0 + c * q1), q0 * (b * b - a * c) - c * c * q2
    side = (anchor.ray[1] > 0) - (anchor.ray[1] < 0)
    lam_A, k_A = _endpoint_lift(A, Q, -side, (xq, -c * q0), (yq, b * q0), D, anchor)
    lam_B, k_B = _endpoint_lift(B, Q, side, (xq, c * q0), (yq, -b * q0), D, anchor)
    degenerate = None
    V0, V1, V2 = V
    if V0 and V1 * V1 == 2 * V0 * V2:
        # v's plane point is the endpoint on its side of P, V1/V0 < s or not
        degenerate = "A" if V1 * V0 * Pr[0] < Pr[1] * V0 * V0 else "B"
    order = k_A - k_B if k_A != k_B else a * q0 + b * q1 + c * q2
    if order <= 0:
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


# ---------------------------------------------------------------------------
# destabilization-path simulation
# ---------------------------------------------------------------------------


class SplitPair(_Value):
    __slots__ = _fields = ("w", "u", "w_node", "u_node")

    def __init__(self, w: VTilde, u: VTilde, w_node: PathNode, u_node: PathNode):
        self.w, self.u, self.w_node, self.u_node = w, u, w_node, u_node

    def to_dict(self) -> dict:
        return {
            "w": self.w.to_list(),
            "u": self.u.to_list(),
            "w_node": self.w_node.to_dict(),
            "u_node": self.u_node.to_dict(),
        }


class PathEvent(_Value):
    __slots__ = _fields = ("t", "R", "wall", "splits")

    def __init__(self, t: Fraction, R: StabPoint, wall: PlaneLine, splits: list):
        self.t, self.R, self.wall, self.splits = t, R, wall, splits

    def to_dict(self) -> dict:
        return {
            "t": str(self.t),
            "R": self.R.to_dict(),
            "wall": [str(c) for c in self.wall.coeffs],
            "splits": [s.to_dict() for s in self.splits],
        }


class PathNode(_Value):
    __slots__ = _fields = ("char", "t_start", "entry_lift", "leaf_lift", "events")

    def __init__(self, char, t_start, entry_lift, leaf_lift, events):
        self.char, self.t_start, self.entry_lift = char, t_start, entry_lift
        self.leaf_lift, self.events = leaf_lift, events

    def to_dict(self) -> dict:
        return {
            "char": self.char.to_list(),
            "t_start": str(self.t_start),
            "leaf_lift": self.leaf_lift.to_dict(),
            "events": [e.to_dict() for e in self.events],
        }


def collect_leaves(node: PathNode):
    """Every node doubles as a leaf: its character carried through to Q."""
    out = [(node.char, node.leaf_lift)]
    for ev in node.events:
        for sp in ev.splits:
            out.extend(collect_leaves(sp.w_node))
            out.extend(collect_leaves(sp.u_node))
    return out


def simulate_destabilization_paths(
    P: StabPoint, Q: StabPoint, v: VTilde, bounds, L: SurfaceLattice
) -> PathNode:
    """Walk the parameter segment and branch at strict wall crossings.

    At each candidate wall crossed transversally, the walked character is
    split into every two-term integral decomposition whose parts sit on
    the same charge ray with strict ratio in (0, 1) at the crossing; both
    parts recurse toward Q.  Each node asks enumerate_candidate_walls for
    these splits alone, with the split rule, over the rest of the segment:
    the public enumeration's witnesses whose wall crosses the open segment,
    with 0 < n*d < d^2 at the crossing.  Lifts are transported exactly;
    each node also reports its own lift at Q (characters that happen not
    to destabilize keep walking).  Termination: each split strictly
    decreases the discriminant, which lives on a fixed rational grid and
    stays >= 0.

    The walk runs on integer points of the segment: each node's start,
    each crossing R and the charge rays of the walked character and of
    both parts at R are read off integer triples, and the memo is keyed
    in ints.  A character with v1^2 - 2*v0*v2 = 0 has no split, so its
    node is not scanned.  Only the R of a printed event becomes a
    StabPoint.
    """
    bounds = EnumerationBounds.coerce(bounds)
    if v.is_zero:
        raise ZeroChargeError("zero character cannot be walked")
    # the segment's ends as (m, m*s, m*q), one m > 0: the point at t = n/d
    # is (d - n)*start + n*end, over d*m, and the end over d*m is d*end
    start, end = _ring((P, Q))
    C = _ints(v)
    if not any(_cross3(start, C[0])[1:]):
        raise PreconditionError("character charge vanishes at the start point")
    # Z_Q(x) = 0 needs x1^2 < 2*x0*x2, which no split part has: only the root
    if not any(_cross3(end, C[0])[1:]):
        raise PreconditionError("character charge vanishes at the end point")
    _check_scan_pairs(bounds, L)
    m, ps, pq = start
    _, qs, qq = end

    def at(t: Fraction):
        n, d = t.as_integer_ratio()
        return (d * m, (d - n) * ps + n * qs, (d - n) * pq + n * qq), d

    memo = {}

    def build(char: VTilde, C, t0: Fraction, n0: int, R0) -> PathNode:
        # C is char's (ints, denominator) and the entry lift is n0 plus the
        # ray of char at R0: the memo is keyed in ints before any ray is made
        key = (C, t0.as_integer_ratio(), n0)
        hit = memo.get(key)
        if hit is not None:
            return hit
        X = C[0]
        entry = LiftedPhase(n0, _ray_at(R0, X))
        leaf = entry.transport(_ray_at(end, X))
        events = []
        if X[1] * X[1] == 2 * X[0] * X[2]:  # no split of Q(char) = 0 (enumerate_candidate_walls)
            cands = []
        else:
            p, d = at(t0)
            region = SegmentRegion.of_ring((p, (p[0], d * qs, d * qq)))
            cands = enumerate_candidate_walls(
                char, region, bounds.rank_bound, bounds.c1_bound, L, split=True
            )
        for cand in cands:
            t_star = t0 + cand.crossing * (1 - t0)
            R, _ = at(t_star)
            n = entry.transport(_ray_at(R, X)).n
            splits = []
            seen = set()
            for w in cand.witnesses:
                u = char - w
                W, U = _ints(w), _ints(u)
                if (U, W) in seen:  # the split of an earlier witness u
                    continue
                seen.add((W, U))
                w_node = build(w, W, t_star, n, R)
                u_node = build(u, U, t_star, n, R)
                splits.append(SplitPair(w, u, w_node, u_node))
            if splits:
                R = StabPoint(Fraction(R[1], R[0]), Fraction(R[2], R[0]))
                events.append(PathEvent(t_star, R, cand.wall, splits))
        events.sort(key=lambda e: (e.t, e.wall.coeffs))
        node = PathNode(char, t0, entry, leaf, events)
        memo[key] = node
        return node

    return build(v, C, Fraction(0), 0, start)


def _ints(x: VTilde):
    """x as (ints, M): x = ints / M, M the lcm of its denominators."""
    t = x.as_tuple()
    M = _den_lcm(t)
    return tuple(_scaled(t, M)), M


# ---------------------------------------------------------------------------
# Ext2-vanishing certificate
# ---------------------------------------------------------------------------


class Ext2Certificate(_Value):
    __slots__ = _fields = ("branch", "data", "inner")

    def __init__(self, branch: str, data: dict, inner: Optional[Ext2Certificate] = None):
        self.branch, self.data, self.inner = branch, data, inner

    def to_dict(self) -> dict:
        out = {"branch": self.branch, "data": self.data}
        if self.inner is not None:
            out["inner"] = self.inner.to_dict()
        return out


def dual_reduce(ch: CharVec, D, s: Fraction):
    """Involutive mirror (ch, D, s) -> ((r, -c1, e), -D, -s)."""
    return derived_dual(ch), -D, -s


def expected_moduli_dim(ch: CharVec, L: SurfaceLattice) -> Fraction:
    """1 - chi(ch, ch): tangent dimension of the moduli stack, verbatim."""
    return 1 - euler_pairing(ch, ch, L)


def _fail(message: str, payload: dict):
    raise CertificateFailure(message, payload)


# the character as the certificate reads it: its rank r and k = K.c1^D
_Reading = namedtuple("_Reading", "r k")


def ext2_vanishing_certificate(
    P: StabPoint, v: VTilde, ch: CharVec, L: SurfaceLattice
) -> Ext2Certificate:
    """Geometric witness that the twisted-endomorphism Hom space vanishes.

    Left branch (P strictly left of v's plane point, or rank zero):
    translate the parameter left along its parabola by (H.K)/(H.H), tensor
    the character by the canonical class, and compare chords: if the two
    chords meet, the strict lifted phase inequality at the witness closes
    the argument; otherwise the twisted phase must sit strictly below the
    whole phase-bound interval.  Right branch: mirror through the derived
    dual (s, D flip) and recurse.  Boundary case: perturb sideways and
    recurse nearby.  A failed inequality raises CertificateFailure with a
    counterexample payload.  The character is read once, as its rank r and
    k = K.c1^D, and every branch runs on (r, k) and v.  Heart tests, charges,
    rays, chords and their meet are read off integer triples; A, B, A', B',
    their rays, R and Q are built to print.
    """
    for x, kind in ((P, StabPoint), (v, VTilde), (ch, CharVec), (L, SurfaceLattice)):
        if not isinstance(x, kind):
            raise PreconditionError(f"certificate needs a {kind.__name__}, not {x!r}")
    if not L.poisson_mode:
        raise PreconditionError("surface is not in the anticanonical regime (H.K >= 0)")
    if vtilde(ch, L) != v:
        raise PreconditionError("character projection does not match v")
    # c1^D = c1 - r*D, so K.c1^D = K.c1 - r*D.K
    return _certificate(P, v, _Reading(ch.r, L.pair(L.K, ch.c1) - ch.r * L.DK), L)


def _certificate(P, v, rk, L) -> Ext2Certificate:
    """ext2_vanishing_certificate for v = vtilde(ch, L), read as rk, and L in the regime.

    The nearby branch recurses with P moved, and the dual branch with the
    mirror's P, v and reading.  The mirror lattice has L's H^2, H.K and
    K^2, the only constants the branches read, so L is passed on.
    """
    V, _ = _ints(v)
    (Pr,) = _ring((P,))
    if not any(_cross3(Pr, V)[1:]) or not _upper(ray := _ray_at(Pr, V)):
        raise PreconditionError("character fails the heart sign test at P")
    if V[1] * V[1] - 2 * V[0] * V[2] < 0:  # discriminant(v), times M^2
        raise PreconditionError("character has negative discriminant")
    # Im Z(v) = v0*(v1/v0 - s) for v0 != 0: P.s = v1/v0 on the real axis,
    # and with Im Z > 0, P.s > v1/v0 exactly when v0 < 0
    if V[0] and not ray[1]:
        return _nearby_certificate(P, v, rk, L)
    if V[0] < 0:
        return _dual_certificate(P, v, rk, L)
    return _left_certificate(P, Pr, v, V, rk, L)


def _nearby_certificate(P, v, rk, L) -> Ext2Certificate:
    # boundary alignment: nudge sideways, direction set by the rank sign
    step = Fraction(-1) if v.v0 > 0 else Fraction(1)
    eps = Fraction(1)
    while True:
        s2 = P.s + step * eps
        if 2 * P.q > s2 * s2:
            P2 = StabPoint(s2, P.q)
            break
        eps /= 2
    inner = _certificate(P2, v, rk, L)
    data = {"P": P.to_dict(), "P_perturbed": P2.to_dict(), "v": v.to_list()}
    return Ext2Certificate("NearbyStability", data, inner)


def _dual_certificate(P, v, rk, L) -> Ext2Certificate:
    # derived_dual(ch) on L.mirrored() reads (r, -k) with v = (v0, -v1, v2):
    # c1 and D flip, so H.c1 and K.c1^D do, and D.c1 and ch2^D do not.  At
    # P2 = (-s, q) its charge is the conjugate of Z_P(v), whose Im is > 0
    # on this branch (v0 < 0, off the real axis), so it fails the heart
    # test; its shift, read as (-r, k) with the negated v, passes it.
    P2 = StabPoint(-P.s, P.q)
    v2 = VTilde(-v.v0, v.v1, -v.v2)
    inner = _certificate(P2, v2, _Reading(-rk.r, rk.k), L)
    data = {
        "P": P.to_dict(),
        "P_mirror": P2.to_dict(),
        "v": v.to_list(),
        "v_mirror": v2.to_list(),
        "shift_normalized": True,
    }
    return Ext2Certificate("DualReduction", data, inner)


def _left_certificate(P, Pr, v, V, rk, L) -> Ext2Certificate:
    # Q is P slid by delta = H.K/H.H along its parabola q = s^2/2 + const
    delta = L.HK / L.HH
    Q = StabPoint(P.s + delta, P.q + delta * (P.s + delta / 2))
    # vtilde(tensor_by_K(ch, L), L): exp(K) commutes with the twist by -D,
    # so ch2^D gains K.c1^D + r*K^2/2 and H.c1 gains r*H.K
    vK = VTilde(v.v0, v.v1 + rk.r * L.HK, _exp_ch2(rk, v.v2, rk.k, L.KK))

    base = {
        "P": P.to_dict(),
        "Q": Q.to_dict(),
        "v": v.to_list(),
        "vK": vK.to_list(),
    }
    VK, _ = _ints(vK)
    if not any(VK):
        _fail("twisted character vanishes", base)

    (Qr,) = _ring((Q,))
    # Z_P(v) != 0 (heart sign check), so v's plane point is not P; through P,
    # strictly above the parabola, a chord that is not vertical is a secant
    chord1 = PlaneLine(_wall_coeffs(V, Pr))
    if not chord1.coeffs[2]:
        _fail("character chord degenerates (vertical or tangent)", base)
    if not any(_cross3(V, VK)):
        _fail("twist does not move the plane point", base)
    # vK0 = v0 and vK1 = v1 + delta*v0: vK's plane point is at infinity or at
    # s = v1/v0 + delta > Q.s, so it is not Q, and Z_Q(vK) != 0.  The chord is
    # not vertical: at infinity that needs v0 = v1 = 0, refused above with a
    # vertical character chord.  Through Q, a line that is not vertical is a
    # secant: the twisted chord has two ends.
    chord2 = PlaneLine(_wall_coeffs(VK, Qr))
    (A, B), (Ap, Bp) = line_parabola_intersect(chord1), line_parabola_intersect(chord2)
    data = dict(base, A=pair_to_json(A), B=pair_to_json(B))
    data.update(Ap=pair_to_json(Ap), Bp=pair_to_json(Bp))

    if chord1 == chord2:
        # This never certifies.  One chord gives A = A2 and B = B2, so a
        # witness R lies strictly inside (A, B).  With vK0 = v0, Z_R(v) and
        # Z_R(vK) are v0*i times Xv - R and XvK - R, and P, Q, R, Xv and XvK
        # all lie on the chord.  On this branch XvK.x - Q.x = Xv.x - P.x > 0,
        # and discriminant(v) >= 0 puts Xv at or beyond B, so lam_v is
        # (0, the ray toward Xv).  Then R left of XvK gives lam_k the same
        # lift (compare = 0), R = XvK a zero charge, and R right of XvK a
        # half turn from Q.  A rank-zero v has failed above: its chord is
        # vertical.
        _fail("chords coincide", data)

    R = _cross3(chord1.coeffs, chord2.coeffs)
    if R[0]:
        R = R if R[0] > 0 else tuple(-x for x in R)
        side = 2 * R[0] * R[2] - R[1] * R[1]  # the sign of 2*q - s^2 at R
        if side > 0:
            return _segments_branch(Pr, Qr, V, VK, R, data)
        if side == 0:
            _fail("chords touch only on the parabola", data)
    return _dominance_branch(P, Q, v, Qr, VK, data)


def _segments_branch(Pr, Qr, V, VK, R, data) -> Ext2Certificate:
    if not any(_cross3(R, V)[1:]) or not any(_cross3(R, VK)[1:]):
        _fail("a charge vanishes at the chord intersection", data)
    lam_v = LiftedPhase(0, _ray_at(Pr, V)).transport(_ray_at(R, V))
    lam_k = LiftedPhase(0, _ray_at(Qr, VK)).transport(_ray_at(R, VK))
    data = dict(data)
    data.update(
        {
            "R": {"s": str(Fraction(R[1], R[0])), "q": str(Fraction(R[2], R[0]))},
            "phase_at_R": lam_v.to_dict(),
            "twisted_phase_at_R": lam_k.to_dict(),
        }
    )
    if lam_v.compare(lam_k) > 0:
        return Ext2Certificate("SegmentsIntersect", data)
    _fail("phase inequality fails at the chord intersection", data)


def _dominance_branch(P, Q, v, Qr, VK, data) -> Ext2Certificate:
    interval = phase_bound_interval(P, Q, v)
    lam_k = LiftedPhase(0, _ray_at(Qr, VK))
    data = dict(data)
    data.update(
        {
            "interval": interval.to_dict(),
            "twisted_phase": lam_k.to_dict(),
        }
    )
    if lam_k.compare(interval.lo) < 0:
        return Ext2Certificate("PhaseDominance", data)
    _fail("twisted phase does not sit below the interval", data)
