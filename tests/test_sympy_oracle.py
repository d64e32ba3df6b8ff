"""An independent exact oracle: sympy re-derives signs, roots and ranks."""

import math
import random
from fractions import Fraction as F

import pytest

from walland import PlaneLine, QuadNum, cohomology, line_parabola_intersect, random_complex

sympy = pytest.importorskip("sympy")


def _sym(x):
    if isinstance(x, QuadNum):
        return _sym(x.a) + _sym(x.b) * sympy.sqrt(_sym(x.d))
    return sympy.Rational(x.numerator, x.denominator)


def _rand_frac(rng, num=40, den=9):
    return F(rng.randint(-num, num), rng.randint(1, den))


def test_quadnum_sign_against_sympy():
    rng = random.Random(7001)
    for _ in range(300):
        a, b = _rand_frac(rng), _rand_frac(rng)
        d = F(rng.randint(0, 60), rng.randint(1, 5))
        if rng.random() < 0.3:  # near ties: a = -b * (sqrt(d) to 4 decimals)
            a = -b * F(math.isqrt(int(d * 10**8)), 10**4)
        want = sympy.sign(_sym(a) + _sym(b) * sympy.sqrt(_sym(d)))
        assert QuadNum(a, b, d).sign() == want


# one line per branch of line_parabola_intersect, beside the random ones
_BRANCH_LINES = [
    (-1, -1, 1),  # y = x + 1: secant, roots 1 -+ sqrt(3)
    (-4, -1, 1),  # y = x + 4: secant, roots -2 and 4
    (2, -2, 1),  # y = 2x - 2: tangent at x = 2
    (1, 0, 1),  # y = -1: miss
    (-3, 1, 0),  # x = 3: vertical
]


def _branch(line, got):
    if line.is_vertical:
        return "vertical"
    if len(got) == 2:
        return "rational secant" if got[0][0].is_rational else "irrational secant"
    return ("miss", "tangent")[len(got)]


def test_line_parabola_roots_against_sympy_solve():
    rng = random.Random(7002)
    x, y = sympy.symbols("x y")
    drawn = [tuple(_rand_frac(rng, 9, 4) for _ in range(3)) for _ in range(60)]
    seen = set()
    for a, b, c in _BRANCH_LINES + drawn:
        if b == 0 and c == 0:
            continue
        line = PlaneLine.make(a, b, c)
        got = line_parabola_intersect(line)
        seen.add(_branch(line, got))
        ca, cb, cc = (sympy.Integer(k) for k in line.coeffs)
        eqs = [ca + cb * x + cc * y, y - x**2 / 2]
        want = sorted(
            (s for s in sympy.solve(eqs, [x, y], dict=True) if s[x].is_real),
            key=lambda s: float(s[x]),
        )
        assert len(got) == len(want)
        for (gx, gy), s in zip(got, want):
            assert sympy.simplify(_sym(gx) - s[x]) == 0
            assert sympy.simplify(_sym(gy) - s[y]) == 0
    assert seen == {
        "irrational secant", "rational secant", "tangent", "miss", "vertical"
    }


def _hom_differential_matrix(C, k):
    """Matrix of D: Hom^k -> Hom^(k+1), D f = d f - (-1)^k f d, built here."""
    n = len(C.dims)
    d = [
        sympy.Matrix(C.dims[i + 1], C.dims[i], [_sym(x) for row in m.data for x in row])
        for i, m in enumerate(C.diffs)
    ]

    def blocks(deg):
        return [(i, C.dims[i + deg], C.dims[i]) for i in range(n) if 0 <= i + deg < n]

    src, dst = blocks(k), blocks(k + 1)
    offsets, pos = {}, 0
    for i, r, c in dst:
        offsets[i], pos = pos, pos + r * c
    cols = []
    for i, r, c in src:
        for a in range(r):
            for b in range(c):
                f = sympy.zeros(r, c)
                f[a, b] = 1
                col = sympy.zeros(pos, 1)
                # f sits in component i; D f has components i (via d f) and i - 1
                parts = []
                if i in offsets and i + k < n - 1:
                    parts.append((offsets[i], d[i + k] * f))
                if i - 1 in offsets:
                    parts.append((offsets[i - 1], -((-1) ** k) * f * d[i - 1]))
                for o, g in parts:
                    size = g.rows * g.cols
                    col[o:o + size, 0] = g.reshape(size, 1)
                cols.append(col)
    return sympy.Matrix.hstack(*cols) if cols else sympy.zeros(pos, 0)


def test_cohomology_dimensions_against_sympy_ranks():
    rng = random.Random(7003)
    for _ in range(20):
        C = random_complex(rng, max_len=4, max_dim=3, entry_bound=3)
        for k in range(-(len(C.dims) - 1), len(C.dims)):
            Dk = _hom_differential_matrix(C, k)
            Dprev = _hom_differential_matrix(C, k - 1)
            n_k = Dk.cols
            rank_k = Dk.rank() if Dk.rows and Dk.cols else 0
            rank_prev = Dprev.rank() if Dprev.rows and Dprev.cols else 0
            group = cohomology(C, C, k)
            assert (group.ker_dim, group.im_dim) == (n_k - rank_k, rank_prev)
            assert group.dim == n_k - rank_k - rank_prev
