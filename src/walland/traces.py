"""Graded traces on bounded matrix complexes.

Complexes are finite towers of finite-dimensional rational vector spaces
with exact integer/rational differentials.  Morphism data lives in Hom
cochains; the module provides the Hom differential, composition, the
supertrace (chain-trace convention: only degree-zero endomorphism
cochains have diagonal content, every other degree traces to zero), the
induced pairing, and cohomology of the Hom complex computed by exact
row reduction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Tuple

from .errors import DimensionMismatch, InvariantError, PreconditionError
from .plane import parse_frac


class Mat:
    """Dense exact matrix; zero-sized shapes are legal."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        # an int shape: a bool or a float is refused, never carried along
        if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
            raise DimensionMismatch(f"matrix shape {(rows, cols)!r} is not two nonnegative ints")
        self._fill(rows, cols, tuple(tuple(parse_frac(x) for x in row) for row in data))

    @staticmethod
    def _of_fractions(rows: int, cols: int, data) -> "Mat":
        """A Mat of rows of Fractions made in this module: shape-checked, not coerced."""
        m = Mat.__new__(Mat)
        m._fill(rows, cols, tuple([tuple(r) for r in data]))
        return m

    def _fill(self, rows: int, cols: int, data: tuple) -> None:
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch("matrix data does not match its shape")
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def make(rows_list) -> "Mat":
        rows_list = list(rows_list)
        r = len(rows_list)
        c = len(rows_list[0]) if r else 0
        return Mat(r, c, rows_list)

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, [[Fraction(0)] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(
            n, n, [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        )

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.shape == other.shape
            and self.data == other.data
        )

    __hash__ = None

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise DimensionMismatch("matrix addition shape mismatch")
        return Mat(
            self.rows,
            self.cols,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
        )

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.scale(-1)

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c) -> "Mat":
        c = parse_frac(c)
        return Mat(self.rows, self.cols, [[c * x for x in row] for row in self.data])

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = Fraction(0)
                for k in range(self.cols):
                    a = self.data[i][k]
                    if a:
                        acc += a * other.data[k][j]
                row.append(acc)
            out.append(row)
        return Mat(self.rows, other.cols, out)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), Fraction(0))

    def to_json(self) -> list:
        return [[str(x) for x in row] for row in self.data]


# ---------------------------------------------------------------------------
# complexes and cochains
# ---------------------------------------------------------------------------


class MatrixComplex:
    """Terms in degrees 0..n-1 with differentials raising degree by one."""

    __slots__ = ("dims", "diffs")

    def __init__(self, dims, diffs):
        dims = tuple(dims)
        if not dims or any(type(d) is not int or d < 0 for d in dims):
            raise DimensionMismatch("complex needs nonnegative int term dimensions")
        diffs = tuple(diffs)
        if len(diffs) != len(dims) - 1:
            raise DimensionMismatch("complex needs one differential per adjacent pair")
        for i, d in enumerate(diffs):
            if d.shape != (dims[i + 1], dims[i]):
                raise DimensionMismatch(
                    f"differential {i} has shape {d.shape}, wanted"
                    f" {(dims[i + 1], dims[i])}"
                )
        for i in range(len(diffs) - 1):
            if not (diffs[i + 1] * diffs[i]).is_zero:
                raise PreconditionError("differentials do not square to zero")
        self.dims = dims
        self.diffs = diffs

    def __len__(self):
        return len(self.dims)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixComplex)
            and self.dims == other.dims
            and self.diffs == other.diffs
        )

    __hash__ = None

    def diff(self, i: int) -> Optional[Mat]:
        if 0 <= i < len(self.diffs):
            return self.diffs[i]
        return None

    def identity_endo(self) -> "HomCochain":
        comps = {i: Mat.identity(d) for i, d in enumerate(self.dims)}
        return HomCochain(self, self, 0, comps)

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "diffs": [d.to_json() for d in self.diffs],
        }


def _degree(k) -> int:
    # an int: a bool or a float is refused, never truncated
    if type(k) is not int:
        raise PreconditionError(f"cochain degree must be an int, not {k!r}")
    return k


class HomCochain:
    """Degree-k collection of maps source^i -> target^(i+k)."""

    __slots__ = ("source", "target", "degree", "comps")

    def __init__(self, source: MatrixComplex, target: MatrixComplex, degree: int, comps):
        self.source = source
        self.target = target
        self.degree = _degree(degree)
        filled: Dict[int, Mat] = {}
        for i in self._support(source, target, self.degree):
            want = (target.dims[i + self.degree], source.dims[i])
            got = comps.get(i)
            if got is None:
                got = Mat.zero(*want)
            elif got.shape != want:
                raise DimensionMismatch(
                    f"component {i} has shape {got.shape}, wanted {want}"
                )
            filled[i] = got
        for i in comps:
            if i not in filled and not comps[i].is_zero:
                raise DimensionMismatch(f"component {i} outside the cochain support")
        self.comps = filled

    @staticmethod
    def _support(source, target, degree):
        return [
            i
            for i in range(len(source.dims))
            if 0 <= i + degree < len(target.dims)
        ]

    def component(self, i: int) -> Optional[Mat]:
        return self.comps.get(i)

    @property
    def is_zero(self) -> bool:
        return all(m.is_zero for m in self.comps.values())

    def __eq__(self, other):
        return (
            isinstance(other, HomCochain)
            and self.source == other.source
            and self.target == other.target
            and self.degree == other.degree
            and self.comps == other.comps
        )

    __hash__ = None

    def __add__(self, other: "HomCochain") -> "HomCochain":
        if (
            self.source != other.source
            or self.target != other.target
            or self.degree != other.degree
        ):
            raise DimensionMismatch("cochain addition needs matching type")
        return HomCochain(
            self.source,
            self.target,
            self.degree,
            {i: self.comps[i] + other.comps[i] for i in self.comps},
        )

    def __sub__(self, other: "HomCochain") -> "HomCochain":
        return self + other.scale(-1)

    def scale(self, c) -> "HomCochain":
        return HomCochain(
            self.source,
            self.target,
            self.degree,
            {i: m.scale(c) for i, m in self.comps.items()},
        )

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "components": {str(i): self.comps[i].to_json() for i in sorted(self.comps)},
        }


def hom_differential(f: HomCochain) -> HomCochain:
    """D(f)^i = d_target^(i+k) f^i - (-1)^k f^(i+1) d_source^i.

    Computed as the sum of the integer columns of L*D (`_d_columns`, the one
    place the formula is written) weighted by the entries of f, over L.
    """
    k = f.degree
    layout = _basis_layout(f.source, f.target, k)
    out_layout = _basis_layout(f.source, f.target, k + 1)
    vec = [Fraction(0)] * sum(r * c for _, r, c in out_layout)
    L, cols = _d_columns(f.source, f.target, k)
    for x, col in zip(_flatten(f, layout), cols):
        if x:
            for j, y in enumerate(col):
                if y:
                    vec[j] += x * y
    return _unflatten(f.source, f.target, k + 1, out_layout, [v / L for v in vec])


def compose(a: HomCochain, b: HomCochain) -> HomCochain:
    """(a o b)^i = a^(i + deg b) b^i; b is applied first."""
    if b.target != a.source:
        raise DimensionMismatch("composition needs matching middle complex")
    k = a.degree + b.degree
    out: Dict[int, Mat] = {}
    for i in HomCochain._support(b.source, a.target, k):
        bi = b.component(i)
        ai = a.component(i + b.degree)
        if bi is not None and ai is not None:
            out[i] = ai * bi
    return HomCochain(b.source, a.target, k, out)


def supertrace(f: HomCochain) -> Fraction:
    """Alternating trace; chain-trace rule kills nonzero degrees."""
    if f.source != f.target:
        raise PreconditionError("supertrace needs an endomorphism cochain")
    if f.degree != 0:
        return Fraction(0)
    total = Fraction(0)
    for i, m in f.comps.items():
        t = m.trace()
        total += t if i % 2 == 0 else -t
    return total


def theta_pairing(a: HomCochain, b: HomCochain) -> Fraction:
    """Supertrace of the composite of two endomorphism cochains."""
    if a.source != a.target or b.source != b.target or a.source != b.source:
        raise PreconditionError("pairing needs endomorphism cochains of one complex")
    return supertrace(compose(a, b))


# ---------------------------------------------------------------------------
# cohomology of the Hom complex
# ---------------------------------------------------------------------------


def _basis_layout(source, target, degree):
    """Coordinates (component, row, col) of Hom^degree, with offsets."""
    layout = []
    for i in HomCochain._support(source, target, degree):
        r = target.dims[i + degree]
        c = source.dims[i]
        layout.append((i, r, c))
    return layout


def _flatten(f: HomCochain, layout) -> List[Fraction]:
    vec: List[Fraction] = []
    for i, r, c in layout:
        m = f.comps[i]
        for a in range(r):
            vec.extend(m.data[a])
    return vec


def _unflatten(source, target, degree, layout, vec: List[Fraction]) -> HomCochain:
    comps = {}
    pos = 0
    for i, r, c in layout:
        rows = [vec[pos + a * c : pos + (a + 1) * c] for a in range(r)]
        comps[i] = Mat._of_fractions(r, c, rows)
        pos += r * c
    return HomCochain(source, target, degree, comps)


def _d_columns(source, target, degree) -> Tuple[int, List[List[int]]]:
    """L and the images under L*D of the unit vectors of Hom^degree, flattened.

    L is the lcm of the denominators of the differentials D is written from,
    so L*D is an integer matrix with the kernel and the column space of D.
    Written entrywise from the differentials: the unit cochain E at
    (component i, row a, col b) of degree k maps to column a of
    d_target^(i+k), placed at column b of output component i, minus (-1)^k
    times row b of d_source^(i-1), placed at row a of output component i-1.
    """
    k = degree
    offset, m = {}, 0
    for i, r, c in _basis_layout(source, target, k + 1):
        offset[i], m = m, m + r * c
    blocks = [
        (i, r, c, target.diff(i + k), source.diff(i - 1))
        for i, r, c in _basis_layout(source, target, k)
    ]
    used = [d for *_, d_t, d_s in blocks for d in (d_t, d_s) if d is not None]
    # lcm of a list, not of a generator: CPython resizes a tuple built from a
    # generator, and the resized tuples pile up on its tuple free lists
    L = lcm(*[x.denominator for d in used for row in d.data for x in row])
    cols = []
    for i, r, c, d_t, d_s in blocks:
        t = _scaled(d_t, L)
        s = _scaled(d_s, -L if k % 2 == 0 else L)  # -(-1)^k L d_s
        for a in range(r):
            for b in range(c):
                col = [0] * m
                if t is not None:  # column a of d_t, down column b of component i
                    start = offset[i] + b
                    col[start : start + d_t.rows * c : c] = [row[a] for row in t]
                if s is not None:  # row b of d_s, along row a of component i-1
                    start = offset[i - 1] + a * d_s.cols
                    col[start : start + d_s.cols] = s[b]
                cols.append(col)
    return L, cols


def _scaled(d: Optional[Mat], L: int) -> Optional[List[List[int]]]:
    """The rows of L*d, in ints when L clears d's denominators; None for no d."""
    if d is not None:
        return [[x.numerator * (L // x.denominator) for x in row] for row in d.data]


def _echelon(rows: List[List[int]]) -> List[int]:
    """In-place forward integer elimination; returns the pivot columns.

    Each new row is divided by the gcd of its entries.  Row r ends with its
    first nonzero entry at pivots[r], each row zero at the pivots of the rows
    before it, and the rows past them zero.
    """
    pivots = []
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    for col in range(n_cols):
        lead = len(pivots)
        if lead == n_rows:
            break
        pivot_row = next((r for r in range(lead, n_rows) if rows[r][col]), None)
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
        top = rows[lead]
        for r in range(lead + 1, n_rows):
            if rows[r][col]:
                rows[r] = _cancel(rows[r], top, col)
        pivots.append(col)
    return pivots


def _back_substitute(rows: List[List[int]], pivots: List[int]) -> None:
    """Clear the entries above each pivot of `_echelon`'s rows, in place.

    Rows are replaced, never changed, so a shallow copy of the list is a copy.
    """
    for r in range(len(pivots) - 1, 0, -1):
        p, bottom = pivots[r], rows[r]
        for above in range(r):
            if rows[above][p]:
                rows[above] = _cancel(rows[above], bottom, p)


def _rref(rows: List[List[int]]) -> List[int]:
    """In-place integer Gauss-Jordan elimination; returns the pivot columns.

    `_echelon`, then `_back_substitute`.  Row r ends nonzero at pivots[r] and
    zero at the other pivots, the rows past them zero; row r over its pivot
    entry is row r of the one RREF, that of Fractions.
    """
    pivots = _echelon(rows)
    _back_substitute(rows, pivots)
    return pivots


def _cancel(row: List[int], top: List[int], col: int) -> List[int]:
    """top[col] * row - row[col] * top, zero at col, divided by its gcd."""
    p, x = top[col], row[col]
    out = [p * y - x * t for y, t in zip(row, top)]
    g = gcd(*out)
    return [y // g for y in out] if g > 1 else out


def _kernel_basis(rows: List[List[int]], n_cols: int) -> List[List[int]]:
    """Kernel of the integer matrix with these rows, in ints.

    One vector per free column of its RREF: den * v, where v is 1 at the free
    column and -row[free] / row[pivot] at each pivot, and den > 0 is the lcm
    of the pivot entries it reads.  RREF rows are zero left of their pivots,
    so den, at the free column, is the vector's last nonzero entry.
    """
    pivots = _rref(rows)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        reads = [(row, p) for row, p in zip(rows, pivots) if row[free]]
        den = lcm(*[row[p] for row, p in reads])  # a list, as in _d_columns
        vec = [0] * n_cols
        vec[free] = den
        for row, p in reads:
            vec[p] = -row[free] * (den // row[p])
        basis.append(vec)
    return basis


class CohomologyGroup:
    """Ext group of the Hom complex in one degree, with witnesses.

    `reps` are cocycles whose classes form a basis of the group, `cocycles` a
    basis of ker D^degree, and `coboundaries` the nonzero RREF rows of
    im D^(degree-1); each is a list of HomCochains.  `cocycles` and
    `coboundaries` are given as lists, or as functions that build them: a
    group from `cohomology` holds only `reps` built, and builds each of the
    other two from the integer rows it keeps on first access, once.
    """

    __slots__ = ("degree", "dim", "ker_dim", "im_dim", "reps", "_cocycles", "_coboundaries")

    def __init__(self, degree, dim, ker_dim, im_dim, reps, cocycles=None, coboundaries=None):
        self.degree = degree
        self.dim = dim
        self.ker_dim = ker_dim
        self.im_dim = im_dim
        self.reps = reps
        self._cocycles = cocycles
        self._coboundaries = coboundaries

    @property
    def cocycles(self) -> list:
        if callable(self._cocycles):
            self._cocycles = self._cocycles()
        return self._cocycles

    @property
    def coboundaries(self) -> list:
        if callable(self._coboundaries):
            self._coboundaries = self._coboundaries()
        return self._coboundaries

    def _fields(self) -> tuple:
        return (self.degree, self.dim, self.ker_dim, self.im_dim,
                self.reps, self.cocycles, self.coboundaries)

    def __eq__(self, other):
        return isinstance(other, CohomologyGroup) and self._fields() == other._fields()

    __hash__ = None

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "dim": self.dim,
            "ker_dim": self.ker_dim,
            "im_dim": self.im_dim,
            "reps": [f.to_dict() for f in self.reps],
        }


def cohomology(source: MatrixComplex, target: MatrixComplex, degree: int) -> CohomologyGroup:
    """ker D^degree / im D^(degree-1), exactly, with cocycle witnesses.

    Both D are the integer L*D of `_d_columns`, each eliminated once: D^degree
    to its RREF for the kernel basis, the image of D^(degree-1) forward only
    (`_echelon`).  The representatives are the first cocycles, in order,
    independent of the image and of the ones before: each cocycle, in ints,
    is reduced against the image's echelon rows and the representatives kept
    so far, in that order, and kept if something is left.  Each of those
    rows is zero at the pivots of the rows before it, so one pass clears
    every pivot.  Only the representatives become cochains here; the group
    builds the cocycles, and the coboundaries after a back pass over a copy
    of the image's rows, when they are first read.
    """
    degree = _degree(degree)
    layout = _basis_layout(source, target, degree)
    n = sum(r * c for _, r, c in layout)
    kernel = _kernel_basis(list(zip(*_d_columns(source, target, degree)[1])), n)
    image = _d_columns(source, target, degree - 1)[1]
    pivots = _echelon(image)
    del image[len(pivots) :]  # the zero rows
    echelon = list(zip(pivots, image))
    reps = []
    for vec in kernel:
        w = vec
        for p, row in echelon:
            if w[p]:
                w = _cancel(w, row, p)
        lead = next((j for j, y in enumerate(w) if y), None)
        if lead is not None:
            echelon.append((lead, w))
            reps.append(vec)
    dim = len(kernel) - len(image)
    if len(reps) != dim:
        raise InvariantError(f"degree {degree}: {len(reps)} representatives, dimension {dim}")

    def cochains(vecs, dens):  # each integer vector over its den, as Fractions
        zero = Fraction(0)
        return [
            _unflatten(source, target, degree, layout, [Fraction(y, d) if y else zero for y in v])
            for v, d in zip(vecs, dens)
        ]

    def cocycles(vecs):  # a kernel vector over its last nonzero entry
        return cochains(vecs, [next(y for y in reversed(v) if y) for v in vecs])

    def coboundaries():
        rows = image[:]
        _back_substitute(rows, pivots)
        return cochains(rows, [row[p] for p, row in zip(pivots, rows)])

    return CohomologyGroup(
        degree, dim, len(kernel), len(image), cocycles(reps), lambda: cocycles(kernel), coboundaries
    )


# ---------------------------------------------------------------------------
# seeded generators (shared by the fuzz tests and the CLI fuzz command)
# ---------------------------------------------------------------------------


def random_complex(rng, max_len: int = 5, max_dim: int = 4, entry_bound: int = 3) -> MatrixComplex:
    """Random exact complex: d = embed o project through coordinate zones.

    Each differential factors through a rank-r coordinate zone reserved at
    the bottom of the next term, and the following projection kills that
    zone, so consecutive products vanish identically.
    """
    n = rng.randint(2, max_len)
    dims = [rng.randint(0, max_dim) for _ in range(n)]
    if not any(dims):
        dims[rng.randrange(n)] = 1
    diffs = []
    prev_rank = 0
    for i in range(n - 1):
        cap = min(dims[i] - prev_rank, dims[i + 1])
        rank = rng.randint(0, cap) if cap > 0 else 0
        proj = [
            [
                Fraction(0)
                if b < prev_rank
                else Fraction(rng.randint(-entry_bound, entry_bound))
                for b in range(dims[i])
            ]
            for _ in range(rank)
        ]
        embed = [
            [
                Fraction(rng.randint(-entry_bound, entry_bound)) if a < rank else Fraction(0)
                for _ in range(rank)
            ]
            for a in range(dims[i + 1])
        ]
        diffs.append(Mat(dims[i + 1], rank, embed) * Mat(rank, dims[i], proj))
        prev_rank = rank
    return MatrixComplex(dims, diffs)


def random_cochain(
    rng, source: MatrixComplex, target: MatrixComplex, degree: int, entry_bound: int = 3
) -> HomCochain:
    comps = {}
    for i in HomCochain._support(source, target, degree):
        r = target.dims[i + degree]
        c = source.dims[i]
        comps[i] = Mat(
            r,
            c,
            [
                [Fraction(rng.randint(-entry_bound, entry_bound)) for _ in range(c)]
                for _ in range(r)
            ],
        )
    return HomCochain(source, target, degree, comps)


def random_coboundary(
    rng, cplx: MatrixComplex, degree: int, entry_bound: int = 3
) -> HomCochain:
    """Cheap exact cocycle of the given degree: D of a random cochain."""
    return hom_differential(
        random_cochain(rng, cplx, cplx, degree - 1, entry_bound)
    )
