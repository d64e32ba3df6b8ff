"""Reference copy of the Hom-complex cohomology with a trial loop.

The bodies below are ``cohomology`` and its helpers as they stood before
each matrix was row-reduced once: the kernel basis transposes the columns
of D^degree itself, and the representatives are picked by row-reducing
the image plus one more kernel vector again for every kernel vector.
``hom_differential`` is the one of matrix products, applied to one unit
cochain at a time, and ``_rref`` eliminates in Fractions, as both stood
before D was written entrywise and elimination ran in integers.
Tests compare the production ``cohomology``, ``hom_differential`` and
integer RREF (``_reduced_basis``) against this copy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from walland.errors import InvariantError
from walland.traces import CohomologyGroup, HomCochain, Mat, MatrixComplex


def _support(source, target, degree):
    return [i for i in range(len(source.dims)) if 0 <= i + degree < len(target.dims)]


def hom_differential(f: HomCochain) -> HomCochain:
    """D(f)^i = d_target^(i+k) f^i - (-1)^k f^(i+1) d_source^i."""
    k = f.degree
    sign = -1 if k % 2 else 1
    out = {}
    for i in _support(f.source, f.target, k + 1):
        acc = Mat.zero(f.target.dims[i + k + 1], f.source.dims[i])
        d_t = f.target.diff(i + k)
        fi = f.component(i)
        if d_t is not None and fi is not None:
            acc = acc + d_t * fi
        d_s = f.source.diff(i)
        fi1 = f.component(i + 1)
        if d_s is not None and fi1 is not None:
            acc = acc - (fi1 * d_s).scale(sign)
        out[i] = acc
    return HomCochain(f.source, f.target, k + 1, out)


def _basis_layout(source, target, degree):
    """Coordinates (component, row, col) of Hom^degree, with offsets."""
    layout = []
    for i in _support(source, target, degree):
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


def _unflatten(source, target, degree, layout, vec) -> HomCochain:
    comps = {}
    pos = 0
    for i, r, c in layout:
        rows = []
        for a in range(r):
            rows.append(vec[pos : pos + c])
            pos += c
        comps[i] = Mat(r, c, rows)
    return HomCochain(source, target, degree, comps)


def _rref(rows: List[List[Fraction]]):
    """In-place reduced row echelon form; returns pivot column list."""
    pivots = []
    lead = 0
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(lead, n_rows):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
        inv = 1 / rows[lead][col]
        rows[lead] = [x * inv for x in rows[lead]]
        for r in range(n_rows):
            if r != lead and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == n_rows:
            break
    return pivots


def _kernel_basis(mat_cols: List[List[Fraction]], n_cols: int) -> List[List[Fraction]]:
    """Kernel of the matrix whose columns are mat_cols[j] (length m each)."""
    if n_cols == 0:
        return []
    m = len(mat_cols[0]) if mat_cols else 0
    rows = [[mat_cols[j][i] for j in range(n_cols)] for i in range(m)]
    if not rows:
        return [
            [Fraction(1 if j == t else 0) for j in range(n_cols)]
            for t in range(n_cols)
        ]
    pivots = _rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for r, p in enumerate(pivots):
            if r < len(rows):
                vec[p] = -rows[r][free]
        basis.append(vec)
    return basis


def cohomology(source: MatrixComplex, target: MatrixComplex, degree: int) -> CohomologyGroup:
    """ker D^degree / im D^(degree-1), exactly, with cocycle witnesses."""
    degree = int(degree)
    layout = _basis_layout(source, target, degree)
    n = sum(r * c for _, r, c in layout)
    if n == 0:
        return CohomologyGroup(degree, 0, 0, 0, [], lambda: [], lambda: [])

    def _d_columns(from_degree):
        """Images of the standard basis of Hom^from_degree under D."""
        lay = _basis_layout(source, target, from_degree)
        out_lay = _basis_layout(source, target, from_degree + 1)
        cols = []
        for i, r, c in lay:
            for a in range(r):
                for b in range(c):
                    comps = {i: Mat.zero(r, c)}
                    rows = [[Fraction(0)] * c for _ in range(r)]
                    rows[a][b] = Fraction(1)
                    comps[i] = Mat(r, c, rows)
                    f = HomCochain(source, target, from_degree, comps)
                    cols.append(_flatten(hom_differential(f), out_lay))
        return cols

    d_cols = _d_columns(degree)
    kernel = _kernel_basis(d_cols, n)
    ker_dim = len(kernel)

    prev_cols = _d_columns(degree - 1)
    # row space of the image inside ker, tracked by rref over image rows
    rows = [list(col) for col in prev_cols if any(x != 0 for x in col)]
    if rows:
        _rref(rows)
        rows = [r for r in rows if any(x != 0 for x in r)]
    im_dim = len(rows)
    cocycle_basis = [_unflatten(source, target, degree, layout, vec) for vec in kernel]
    coboundary_basis = [
        _unflatten(source, target, degree, layout, vec) for vec in rows
    ]

    reps = []
    for vec in kernel:
        trial = rows + [list(vec)]
        _rref(trial)
        trial = [r for r in trial if any(x != 0 for x in r)]
        if len(trial) > len(rows):
            rows = trial
            reps.append(_unflatten(source, target, degree, layout, vec))
    group_dim = ker_dim - im_dim
    if len(reps) != group_dim:
        raise InvariantError(f"degree {degree}: {len(reps)} representatives, dimension {group_dim}")
    return CohomologyGroup(
        degree, group_dim, ker_dim, im_dim, reps, lambda: cocycle_basis, lambda: coboundary_basis
    )
