"""Deterministic SVG rendering of parameter-plane scenes.

Coordinates are exact until the final formatting step: every emitted
number is printed with a fixed %.4f pattern at 100 SVG units per plane
unit, y-axis flipped, so rerenders are byte-identical.  Three scenes are
bundled: a phase comparison at a single parameter point, a chord with
its deformation rays, and the translated-chord geometry used by the
vanishing certificate.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError, SchemaError

SCENES = ("phase-compare", "deform", "ext2-worked")

_SCALE = 100
_MARGIN = Fraction(1, 2)
_STEPS = 200


def _fmt(x: float) -> str:
    out = "%.4f" % (x,)
    if out == "-0.0000":
        out = "0.0000"
    return out


class _Canvas:
    def __init__(self, xs, ys):
        lo_x = min(xs) - _MARGIN
        hi_x = max(xs) + _MARGIN
        lo_y = min(ys) - _MARGIN
        hi_y = max(ys) + _MARGIN
        self.lo_x, self.hi_x = lo_x, hi_x
        self.lo_y, self.hi_y = lo_y, hi_y
        self.width = float((hi_x - lo_x) * _SCALE)
        self.height = float((hi_y - lo_y) * _SCALE)
        self.body = []

    def map(self, x, y):
        fx = float((Fraction(x) - self.lo_x) * _SCALE)
        fy = float((self.hi_y - Fraction(y)) * _SCALE)
        return fx, fy

    def polyline(self, pts, stroke, width="2", dash=None):
        coords = " ".join(
            f"{_fmt(fx)},{_fmt(fy)}" for fx, fy in (self.map(x, y) for x, y in pts)
        )
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.body.append(
            f'<polyline fill="none" stroke="{stroke}" stroke-width="{width}"'
            f'{extra} points="{coords}" />'
        )

    def segment(self, p, q, stroke, width="2", dash=None):
        self.polyline([p, q], stroke, width, dash)

    def point(self, xy, label, fill):
        fx, fy = self.map(*xy)
        self.body.append(
            f'<circle cx="{_fmt(fx)}" cy="{_fmt(fy)}" r="4" fill="{fill}" />'
        )
        self.body.append(
            f'<text x="{_fmt(fx + 7)}" y="{_fmt(fy - 7)}" font-family="monospace"'
            f' font-size="14" fill="{fill}">{label}</text>'
        )

    def parabola(self, stroke="#444444", shift=0):
        pts = []
        for k in range(_STEPS + 1):
            x = self.lo_x + Fraction(k, _STEPS) * (self.hi_x - self.lo_x)
            pts.append((x, x * x / 2 + shift))
        self.polyline(pts, stroke, width="1.5")

    def render(self) -> str:
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">'
        )
        bg = f'<rect width="{_fmt(self.width)}" height="{_fmt(self.height)}" fill="#ffffff" />'
        return "\n".join([head, bg] + self.body + ["</svg>"]) + "\n"


def _fr(a, b=1) -> Fraction:
    return Fraction(a, b)


def _scene_phase_compare() -> str:
    P = (_fr(1, 2), _fr(3, 2))
    E = (_fr(-3), _fr(-2))
    F = (_fr(3), _fr(-1))
    xs = [P[0], E[0], F[0]]
    ys = [P[1], E[1], F[1], _fr(9, 2)]  # parabola height at |x| = 3
    cv = _Canvas(xs, ys)
    cv.parabola()
    cv.segment(P, E, "#1f6fb2")
    cv.segment(P, F, "#b23a1f")
    cv.point(P, "P", "#222222")
    cv.point(E, "x(E)", "#1f6fb2")
    cv.point(F, "x(F)", "#b23a1f")
    return cv.render()


def _scene_deform() -> str:
    A = (_fr(-5, 2), _fr(25, 8))
    B = (_fr(3, 2), _fr(9, 8))
    P = (_fr(0), _fr(15, 8))
    E = (_fr(7, 2), _fr(1, 8))
    R = (_fr(1, 10), _fr(1))
    Q = (_fr(9, 50), _fr(3, 10))
    xs = [p[0] for p in (A, B, P, E, R, Q)]
    ys = [p[1] for p in (A, B, P, E, R, Q)] + [_fr(49, 8)]
    cv = _Canvas(xs, ys)
    cv.parabola()
    cv.segment(A, E, "#1f6fb2")  # chord line through A, P, B, x(E)
    for src, color in ((R, "#2e8b57"), (Q, "#b23a1f")):
        cv.segment(src, A, color, width="1.5", dash="6,4")
        cv.segment(src, B, color, width="1.5", dash="6,4")
    cv.point(A, "A", "#1f6fb2")
    cv.point(B, "B", "#1f6fb2")
    cv.point(P, "P", "#222222")
    cv.point(E, "x(E)", "#1f6fb2")
    cv.point(R, "R", "#2e8b57")
    cv.point(Q, "Q", "#b23a1f")
    return cv.render()


def _scene_ext2_worked() -> str:
    P = (_fr(-1), _fr(1))
    Q = (_fr(-4), _fr(17, 2))
    Xv = (_fr(0), _fr(0))
    XvK = (_fr(-3), _fr(9, 2))
    A = (_fr(-2), _fr(2))
    B = (_fr(0), _fr(0))
    A2 = (_fr(-5), _fr(25, 2))
    B2 = (_fr(-3), _fr(9, 2))
    pts = (P, Q, Xv, XvK, A, B, A2, B2)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    cv = _Canvas(xs, ys)
    cv.parabola()
    cv.segment(A, B, "#1f6fb2")
    cv.segment(A2, B2, "#b23a1f")
    cv.segment(P, A, "#1f6fb2", width="1", dash="4,4")
    cv.segment(Q, A2, "#b23a1f", width="1", dash="4,4")
    cv.point(P, "P", "#222222")
    cv.point(Q, "Q", "#222222")
    cv.point(A, "A", "#1f6fb2")
    cv.point(B, "B=v(E)", "#1f6fb2")
    cv.point(A2, "A'", "#b23a1f")
    cv.point(B2, "B'=v(EK)", "#b23a1f")
    return cv.render()


def _quad_float(qj: dict) -> float:
    return float(Fraction(qj["a"])) + float(Fraction(qj["b"])) * math.sqrt(
        float(Fraction(qj["delta"]))
    )


def render_certificate(data: dict) -> str:
    """Chord-translation figure from a vanishing-certificate payload.

    Draws both parabolas (the boundary one and the one through P and Q),
    both chords with their parabola intersections, and the two plane
    points when they are affine.  A figure whose coordinates lie beyond
    float range raises PreconditionError.
    """
    try:
        return _draw_certificate(data).render()
    except OverflowError as exc:
        raise PreconditionError("certificate figure lies beyond float range") from exc


def _draw_certificate(data: dict) -> _Canvas:
    P = (Fraction(data["P"]["s"]), Fraction(data["P"]["q"]))
    Q = (Fraction(data["Q"]["s"]), Fraction(data["Q"]["q"]))
    A = tuple(_quad_float(c) for c in data["A"])
    B = tuple(_quad_float(c) for c in data["B"])
    A2 = tuple(_quad_float(c) for c in data["Ap"])
    B2 = tuple(_quad_float(c) for c in data["Bp"])
    v = [Fraction(x) for x in data["v"]]
    vK = [Fraction(x) for x in data["vK"]]
    marks = [(P, "P", "#222222"), (Q, "Q", "#222222")]
    for coords, label, color in ((v, "v(E)", "#1f6fb2"), (vK, "v(EK)", "#b23a1f")):
        if coords[0] != 0:
            marks.append(((coords[1] / coords[0], coords[2] / coords[0]), label, color))
    marks += [
        (A, "A", "#1f6fb2"),
        (B, "B", "#1f6fb2"),
        (A2, "A'", "#b23a1f"),
        (B2, "B'", "#b23a1f"),
    ]
    xs = [m[0][0] for m in marks]
    ys = [m[0][1] for m in marks]
    cv = _Canvas(xs, ys)
    cv.parabola()
    cv.parabola(stroke="#999999", shift=P[1] - P[0] * P[0] / 2)
    cv.segment(A, B, "#1f6fb2")
    cv.segment(A2, B2, "#b23a1f")
    for xy, label, color in marks:
        cv.point(xy, label, color)
    return cv


_RENDERERS = {
    "phase-compare": _scene_phase_compare,
    "deform": _scene_deform,
    "ext2-worked": _scene_ext2_worked,
}


def render_scene(name: str) -> str:
    try:
        fn = _RENDERERS[name]
    except KeyError:
        raise SchemaError(
            f"unknown scene {name!r}; available: {', '.join(SCENES)}"
        ) from None
    return fn()
