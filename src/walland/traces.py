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
from .plane import _den_lcm, _scaled, parse_frac


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
        return Mat._of_fractions(
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
        return Mat._of_fractions(self.rows, self.cols, [[c * x for x in row] for row in self.data])

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
        return Mat._of_fractions(self.rows, other.cols, out)

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
    """Terms in degrees 0..n-1 with differentials raising degree by one; h[i] = dim H^i.

    Each d^i is read in integers here, once, into `_ints[i]`: L_i, the lcm of
    its denominators, and the nonzero (column, entry) pairs of L_i*d^i along
    each row and (row, entry) pairs down each column.  `_rank` ranks that
    form and `_d_rows` writes D from it.
    `_steps` parks the steps of a `cohomology` sweep with this complex as
    source until the calls for their degrees take them.
    """

    __slots__ = ("dims", "diffs", "h", "_ints", "_steps")

    def __init__(self, dims, diffs):
        dims = tuple(dims)
        if not dims or any(type(d) is not int or d < 0 for d in dims):
            raise DimensionMismatch("complex needs nonnegative int term dimensions")
        diffs = tuple(diffs)
        if len(diffs) != len(dims) - 1:
            raise DimensionMismatch("complex needs one differential per adjacent pair")
        for i, d in enumerate(diffs):
            if not isinstance(d, Mat):
                raise DimensionMismatch(f"differential {i} is a {type(d).__name__}, not a Mat")
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
        self._ints = {}
        for i, d in enumerate(diffs):
            L = _den_lcm(x for row in d.data for x in row)
            rows = [_scaled(row, L) for row in d.data]
            along = [[(x, y) for x, y in enumerate(row) if y] for row in rows]
            down = [[(a, row[b]) for a, row in enumerate(rows) if row[b]] for b in range(d.cols)]
            self._ints[i] = (L, along, down)
        ranks = [0, *map(_rank, self._ints.values()), 0]
        self.h = tuple(d - ranks[i] - ranks[i + 1] for i, d in enumerate(dims))
        self._steps = {}

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
        for i, m in comps.items():
            if not isinstance(m, Mat):
                raise DimensionMismatch(f"component {i} is a {type(m).__name__}, not a Mat")
        filled: Dict[int, Mat] = {}
        for i, r, c in _basis_layout(source, target, self.degree):
            got = comps.get(i)
            if got is None:
                got = Mat.zero(r, c)
            elif got.shape != (r, c):
                raise DimensionMismatch(
                    f"component {i} has shape {got.shape}, wanted {(r, c)}"
                )
            filled[i] = got
        for i in comps:
            if i not in filled and not comps[i].is_zero:
                raise DimensionMismatch(f"component {i} outside the cochain support")
        self.comps = filled

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

    Computed as the product of the sparse integer rows of L*D (`_d_rows`,
    the one place the formula is written) with the entries of f, over L.
    """
    k = f.degree
    x = _flatten(f, _basis_layout(f.source, f.target, k))
    L, rows = _d_rows(f.source, f.target, k)
    vec = [sum([y * x[c] for c, y in row.items()], Fraction(0)) / L for row in rows]
    return _unflatten(f.source, f.target, k + 1, _basis_layout(f.source, f.target, k + 1), vec)


def compose(a: HomCochain, b: HomCochain) -> HomCochain:
    """(a o b)^i = a^(i + deg b) b^i; b is applied first."""
    if b.target != a.source:
        raise DimensionMismatch("composition needs matching middle complex")
    k = a.degree + b.degree
    out: Dict[int, Mat] = {}
    for i, _, _ in _basis_layout(b.source, a.target, k):
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
    """(i, rows, cols) per component source^i -> target^(i+degree) of Hom^degree."""
    return [
        (i, target.dims[i + degree], c)
        for i, c in enumerate(source.dims)
        if 0 <= i + degree < len(target.dims)
    ]


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


def _d_rows(source, target, degree) -> Tuple[int, List[Dict[int, int]]]:
    """L and the rows of L*D^degree as {column: nonzero int}.

    D is written from the integer forms `_ints` the complexes made of their
    differentials: L is the lcm of the L_i of the forms it uses, and each
    block L_i*d^i is multiplied by L // L_i, so L*D is integral with the
    kernel and row space of D.  One row per coordinate of Hom^(degree+1),
    all of them, in order.  For d_t = d_target, d_s = d_source and
    k = degree, row (i, a, b) holds d_t^(i+k)[a][x] at input (i, x, b) and
    -(-1)^k d_s^i[y][b] at input (i+1, a, y).
    """
    k = degree
    offset, n = {}, 0
    for i, r, c in _basis_layout(source, target, k):
        offset[i], n = n, n + r * c
    blocks = [
        (i, r, c, target._ints.get(i + k), source._ints.get(i))
        for i, r, c in _basis_layout(source, target, k + 1)
    ]
    L = lcm(*[d[0] for *_, t, s in blocks for d in (t, s) if d])
    sign = -1 if k % 2 == 0 else 1  # -(-1)^k, the sign of d_s
    rows = []
    for i, r, c, d_t, d_s in blocks:
        L_t, along_t, _ = d_t or (1, (), ())  # a missing d is the empty form
        L_s, along_s, down_s = d_s or (1, (), ())
        f_t, f_s = L // L_t, sign * (L // L_s)
        # (column, entry) pairs at b = 0 and a = 0: along row a of d_t, down column b of d_s
        t = [[(offset[i] + x * c, y * f_t) for x, y in pairs] for pairs in along_t] or [()] * r
        s = [[(offset[i + 1] + y, v * f_s) for y, v in pairs] for pairs in down_s] or [()] * c
        c_s = len(along_s)
        for a in range(r):
            for b in range(c):
                row = {col + b: y for col, y in t[a]}
                row.update({col + a * c_s: v for col, v in s[b]})
                rows.append(row)
    return L, rows


def _cancel(row: Dict[int, int], top: Dict[int, int], col: int) -> Dict[int, int]:
    """top[col] * row - row[col] * top, zero at col, divided by its gcd."""
    g = gcd(top[col], row[col])
    p, x = top[col] // g, row[col] // g
    out = {c: p * y for c, y in row.items()} if p != 1 else dict(row)
    for c, t in top.items():
        y = out.get(c, 0) - x * t
        if y:
            out[c] = y
        else:
            del out[c]
    g = gcd(*out.values())
    return {c: y // g for c, y in out.items()} if g > 1 else out


def _insert(basis: Dict[int, Dict[int, int]], row: Dict[int, int]) -> bool:
    """Add row to the echelon basis {pivot: row}; False if it reduces to zero.

    The row is reduced at its leading column against the basis row there
    until its lead is new, where it is kept, or until it is zero.  Basis
    rows are zero left of their pivots, which are distinct.
    """
    while row:
        lead = min(row)
        top = basis.get(lead)
        if top is None:
            basis[lead] = row
            return True
        row = _cancel(row, top, lead)
    return False


def _reduced_basis(rows) -> Dict[int, Dict[int, int]]:
    """Integer Gauss-Jordan elimination: the RREF rows {pivot: row}, in pivot order.

    Every row is inserted (`_insert`); back substitution then clears the
    entries above each pivot, from the last pivot up.  A row over its pivot
    entry is the row of the one RREF, that of Fractions.
    """
    basis = {}
    for row in rows:
        _insert(basis, row)
    pivots = sorted(basis)
    for r in range(len(pivots) - 1, 0, -1):
        p, bottom = pivots[r], basis[pivots[r]]
        for above in pivots[:r]:
            if p in basis[above]:
                basis[above] = _cancel(basis[above], bottom, p)
    return {p: basis[p] for p in pivots}


def _rank(form) -> int:
    """Rank of a differential, by row insertion of the rows of its integer form."""
    basis = {}
    return sum(_insert(basis, dict(pairs)) for pairs in form[1])


def _image_step(source, target, degree, echelon):
    """(echelon, free, below, taken, unread): the step of `degree` of a sweep.

    `echelon` spans the row space of D^degree; an echelon has the pivots of
    the RREF, so `free` is the other columns, and a cocycle is fixed by its
    entries there.  The image of D^(degree-1) lies in the kernel (d o d = 0),
    so its rows at the free coordinates span its row space: inserted in
    descending free order they build `below`, the echelon of the step of
    degree-1, and `taken` holds those whose rows were kept.  `unread` counts
    the nonzero columns of D^(degree-1), among all its rows, that no free
    row reads.
    """
    _, rows = _d_rows(source, target, degree - 1)  # one row per coordinate of Hom^degree
    free = [c for c in range(len(rows)) if c not in echelon]
    image = [rows[f] for f in reversed(free)]
    below = {}
    taken = {f for f, row in zip(reversed(free), image) if _insert(below, row)}
    return echelon, free, below, taken, len(set().union(*rows)) - len(set().union(*image))


def _solve(echelon, free: int) -> Tuple[Dict[int, int], int]:
    """(v, den): v / den is the kernel vector that is 1 at free, 0 at the other free columns.

    Back substitution in ints, from the last pivot up: a row is zero left of
    its pivot, so the entries it reads right of it are known.  den > 0.
    """
    v, den = {free: 1}, 1
    for p in sorted(echelon, reverse=True):
        row = echelon[p]
        s = sum([y * v[c] for c, y in row.items() if c in v])
        if s:  # row[p] * x[p] = -s / den
            g = gcd(s, row[p])
            m = abs(row[p]) // g
            if m != 1:
                v, den = {c: m * y for c, y in v.items()}, den * m
            v[p] = -s // g if row[p] > 0 else s // g
    return v, den


class CohomologyGroup:
    """Ext group of the Hom complex in one degree, with witnesses.

    `reps` are cocycles whose classes form a basis of the group, `cocycles` a
    basis of ker D^degree, one per free column, 1 there and 0 at the other
    free columns, and `coboundaries` the nonzero RREF rows of im D^(degree-1);
    each is a list of HomCochains.  The last two are given as functions that
    build them, each called on first access, once.
    """

    __slots__ = ("degree", "dim", "ker_dim", "im_dim", "reps", "_cocycles", "_coboundaries")

    def __init__(self, degree, dim, ker_dim, im_dim, reps, cocycles, coboundaries):
        self.degree = degree
        self.dim = dim
        self.ker_dim = ker_dim
        self.im_dim = im_dim
        self.reps = reps
        self._cocycles = cocycles
        self._coboundaries = coboundaries

    def _built(self, name: str) -> list:
        got = getattr(self, name)
        if callable(got):  # the builder, called on first access
            got = got()
            setattr(self, name, got)
        return got

    cocycles = property(lambda self: self._built("_cocycles"))
    coboundaries = property(lambda self: self._built("_coboundaries"))

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

    D is the sparse integer rows of `_d_rows`, and no call row-reduces all
    of D^degree: the group is read off the image step of `degree`
    (`_image_step`), and the steps are walked in a loop from the highest
    degree with Hom != 0, where D has no rows, down to this one.  The steps
    above it are parked on the source (`MatrixComplex._steps`) and each call
    takes its own out, so a sweep up through the degrees builds and
    eliminates each D once; a lone call for a low degree does the steps of
    every degree above it.  The representatives are the cocycles, in order,
    whose free column the image does not take; a cocycle is 1 at its free
    column and 0 at the others (`_solve`).  Every nonzero column of
    D^(degree-1) must be read by a free row, and the dimension must equal
    the Kunneth sum.  Only the representatives become cochains here; the
    group builds the cocycles, and the coboundaries from the RREF of the
    transposed rows of D^(degree-1), when they are first read.
    """
    degree = _degree(degree)
    layout = _basis_layout(source, target, degree)
    n = sum(r * c for _, r, c in layout)
    # a parked entry holds its target, so the id names no other complex
    step = source._steps.pop((id(target), degree), (None, None))[1]
    if step is None:
        # D^top has no rows, Hom^(top+1) being 0; D^degree has no columns if Hom^degree is
        top = max(
            k for k in range(degree, len(target))
            if any(r * c for _, r, c in _basis_layout(source, target, k))
        ) if n else degree
        below = {}
        for k in range(top, degree - 1, -1):
            step = _image_step(source, target, k, below)
            if step[-1]:  # a coboundary zero at every free column, so no cocycle
                raise InvariantError(f"degree {k}: a coboundary is not a cocycle")
            below = step[2]
            if k > degree:
                source._steps[id(target), k] = (target, step)
    echelon, free, below, taken, _ = step
    reps = [f for f in free if f not in taken]
    dim = len(free) - len(below)
    if len(reps) != dim:
        raise InvariantError(f"degree {degree}: {len(reps)} representatives, dimension {dim}")
    kunneth = sum(source.h[i] * target.h[i + degree] for i, _, _ in layout)
    if dim != kunneth:
        raise InvariantError(f"degree {degree}: dimension {dim}, Kunneth sum {kunneth}")

    def cochains(pairs):  # each integer vector over its den, as Fractions
        zero = Fraction(0)
        dense = [[Fraction(v[j], d) if j in v else zero for j in range(n)] for v, d in pairs]
        return [_unflatten(source, target, degree, layout, v) for v in dense]

    def coboundaries():  # the RREF of the columns of D^(degree-1)
        cols = {}
        for j, row in enumerate(_d_rows(source, target, degree - 1)[1]):
            for c, y in row.items():
                cols.setdefault(c, {})[j] = y
        rref = _reduced_basis(cols.values())
        return cochains((row, row[p]) for p, row in rref.items())

    return CohomologyGroup(
        degree, dim, len(free), len(below), cochains(_solve(echelon, f) for f in reps),
        lambda: cochains(_solve(echelon, f) for f in free), coboundaries,
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
    comps = {
        i: Mat(
            r,
            c,
            [
                [Fraction(rng.randint(-entry_bound, entry_bound)) for _ in range(c)]
                for _ in range(r)
            ],
        )
        for i, r, c in _basis_layout(source, target, degree)
    }
    return HomCochain(source, target, degree, comps)


def random_coboundary(
    rng, cplx: MatrixComplex, degree: int, entry_bound: int = 3
) -> HomCochain:
    """Cheap exact cocycle of the given degree: D of a random cochain."""
    return hom_differential(
        random_cochain(rng, cplx, cplx, degree - 1, entry_bound)
    )
