"""Production cohomology against the reference copy.

`reference_cohomology` keeps the cohomology that picked representatives by
row-reducing the image plus one more kernel vector for each kernel vector,
the Hom differential of matrix products and the elimination in Fractions.
The production code writes D entrywise as sparse integer rows, eliminates
them by row insertion and reads the representatives off the rows of the
image at the free coordinates; both must return the same groups, witnesses
included, in every degree, the same D and the same RREF.
"""

import hashlib
import random
from fractions import Fraction as F
from itertools import product
from math import lcm

import pytest
import reference_cohomology as ref
import walland.traces as traces
from walland.errors import InvariantError
from walland.jsonio import dumps_canonical
from walland.traces import (
    Mat,
    MatrixComplex,
    _insert,
    _reduced_basis,
    cohomology,
    hom_differential,
    random_cochain,
    random_complex,
)


def _doc(group):
    return (
        group.degree,
        group.dim,
        group.ker_dim,
        group.im_dim,
        [f.to_dict() for f in group.reps],
        [f.to_dict() for f in group.cocycles],
        [f.to_dict() for f in group.coboundaries],
    )


def _entries(cochains):
    return [x for f in cochains for m in f.comps.values() for row in m.data for x in row]


def _rational(rng, C):
    # each differential scaled by its own non-integral rational: d o d = 0 still
    scales = [F(rng.choice((1, -1, 3, -5)), rng.choice((2, 3, 7))) for _ in C.diffs]
    return MatrixComplex(C.dims, [d.scale(c) for d, c in zip(C.diffs, scales)])


def _assert_matches_reference(source, target):
    for d in range(-len(source), len(target) + 1):
        group = cohomology(source, target, d)
        assert _doc(group) == _doc(ref.cohomology(source, target, d)), d
        # no int or float leaks out of the integer elimination
        witnesses = group.reps + group.cocycles + group.coboundaries
        assert all(type(x) is F for x in _entries(witnesses)), d


def test_cohomology_matches_reference():
    # lengths up to 5, dimensions up to 5, every degree with a nonzero Hom
    # space plus one empty degree on each side; Hom(A, A) and Hom(A, B)
    rng = random.Random(5005)
    for _ in range(12):
        A = random_complex(rng, max_len=5, max_dim=5)
        B = random_complex(rng, max_len=5, max_dim=5)
        for source, target in ((A, A), (A, B)):
            _assert_matches_reference(source, target)


def test_cohomology_matches_reference_rational_differentials():
    rng = random.Random(5006)
    for _ in range(6):
        A = _rational(rng, random_complex(rng, max_len=4, max_dim=4))
        B = _rational(rng, random_complex(rng, max_len=4, max_dim=4))
        for source, target in ((A, A), (A, B), (B, A)):
            _assert_matches_reference(source, target)


def _conjugated(rng, C):
    # d_i' = S_(i+1) d_i S_i^-1, each S diagonal with denominators 2, 3, 7
    # and 10: one differential mixes denominators, and d' o d' = 0 still
    dens = (2, 3, 7, 10)
    S = [[F(rng.choice((1, -1, 3, -5)), rng.choice(dens)) for _ in range(n)] for n in C.dims]
    diffs = []
    for i, d in enumerate(C.diffs):
        rows = [
            [S[i + 1][a] * x / S[i][b] for b, x in enumerate(row)] for a, row in enumerate(d.data)
        ]
        diffs.append(Mat(d.rows, d.cols, rows))
    return MatrixComplex(C.dims, diffs)


def _mixed(C):
    return any(len({x.denominator for row in d.data for x in row if x}) > 1 for d in C.diffs)


# the term of degree 2 is zero-dimensional
ZERO_TERM = MatrixComplex(
    (2, 3, 0, 2), [Mat.make([[1, -2], [0, 0], [3, -6]]), Mat.zero(0, 3), Mat.zero(2, 0)]
)


def _mixed_pairs(rng, n):
    for t in range(n):
        A = _conjugated(rng, random_complex(rng, max_len=4, max_dim=4))
        B = _conjugated(rng, ZERO_TERM if t == 0 else random_complex(rng, max_len=4, max_dim=4))
        yield A, B


def test_cohomology_matches_reference_mixed_denominators():
    rng = random.Random(5009)
    seen_mixed = False
    for A, B in _mixed_pairs(rng, 6):
        seen_mixed |= _mixed(A) or _mixed(B)
        for source, target in ((A, A), (A, B), (B, A)):
            _assert_matches_reference(source, target)
    assert seen_mixed


def test_hom_differential_matches_reference_mixed_denominators():
    rng = random.Random(5010)
    seen_mixed = False
    for A, B in _mixed_pairs(rng, 10):
        seen_mixed |= _mixed(A) or _mixed(B)
        for source, target in ((A, A), (A, B), (B, A)):
            for k in range(-len(source), len(target) + 1):
                f = random_cochain(rng, source, target, k)
                f = f.scale(F(rng.randint(1, 4), rng.choice((3, 7))))
                got = hom_differential(f)
                assert got == ref.hom_differential(f), k
                assert all(type(x) is F for x in _entries([got])), k
    assert seen_mixed


def test_hom_differential_matches_reference():
    rng = random.Random(5007)
    for _ in range(40):
        A = random_complex(rng, max_len=5, max_dim=4)
        B = random_complex(rng, max_len=5, max_dim=4)
        if rng.random() < 0.5:
            A, B = _rational(rng, A), _rational(rng, B)
        k = rng.randint(-3, 3)
        f = random_cochain(rng, A, B, k)
        if rng.random() < 0.5:
            f = f.scale(F(rng.randint(-4, 4), rng.randint(1, 5)))
        got = hom_differential(f)
        assert got == ref.hom_differential(f)
        assert all(type(x) is F for x in _entries([got]))


def _low_rank(rng, n_rows, n_cols, rank, dens):
    left = [[F(rng.randint(-3, 3), rng.choice(dens)) for _ in range(rank)] for _ in range(n_rows)]
    right = [[F(rng.randint(-3, 3), rng.choice(dens)) for _ in range(n_cols)] for _ in range(rank)]
    return [[sum((a * b for a, b in zip(row, col)), F(0)) for col in zip(*right)] for row in left]


def _matrices(rng):
    yield []  # no rows: 0 x n
    yield [[], [], []]  # n x 0
    yield [[F(0)] * 4 for _ in range(3)]
    yield [[F(1, 2), F(-2, 3), F(0)], [F(1, 2), F(-2, 3), F(0)], [F(-1, 2), F(2, 3), F(0)]]
    for n_rows, n_cols in ((1, 1), (7, 3), (3, 7), (5, 5), (9, 12)):  # tall and wide
        for dens in ((1,), (1, 2, 3), (2, 3, 7, 10)):
            for rank in range(min(n_rows, n_cols) + 1):
                rows = _low_rank(rng, n_rows, n_cols, rank, dens)
                if rng.random() < 0.5:  # duplicate rows
                    rows += [list(rows[rng.randrange(n_rows)]) for _ in range(2)]
                    rng.shuffle(rows)
                yield rows


def _sparse(rows):
    # L*rows as {column: nonzero int}, L one lcm of the denominators as in _d_rows
    L = lcm(*(x.denominator for row in rows for x in row))
    return [{c: x.numerator * (L // x.denominator) for c, x in enumerate(row) if x} for row in rows]


def test_rref_matches_fraction_elimination():
    # _reduced_basis eliminates L*rows in ints; each pivot row over its pivot
    # entry is the Fraction RREF row
    rng = random.Random(5008)
    for rows in _matrices(rng):
        want = [list(r) for r in rows]
        n_cols = len(rows[0]) if rows else 0
        basis = _reduced_basis(_sparse(rows))
        assert list(basis) == ref._rref(want), rows
        assert all(type(x) is int for row in basis.values() for x in row.values()), rows
        normalised = [[F(row.get(c, 0), row[p]) for c in range(n_cols)] for p, row in basis.items()]
        normalised += [[F(0)] * n_cols for _ in range(len(rows) - len(basis))]
        assert normalised == want, rows


def test_echelon_finds_the_rref_pivots():
    # row insertion alone: the pivots of the Fraction RREF, each kept row
    # zero left of its pivot, and a row kept exactly when it is independent
    # of the rows inserted before it
    rng = random.Random(5008)
    for rows in _matrices(rng):
        basis, kept = {}, []
        for r, row in enumerate(_sparse(rows)):
            if _insert(basis, row):
                kept.append(r)
        assert sorted(basis) == ref._rref([list(r) for r in rows]), rows
        assert all(min(row) == p for p, row in basis.items()), rows
        for r in range(len(rows)):
            before = ref._rref([list(x) for x in rows[: r + 1]])
            assert (r in kept) == (len(before) > len(ref._rref([list(x) for x in rows[:r]]))), rows


def _row_sets(rng):
    # integer rows in Z^k of every rank up to full, with zero and duplicate rows
    yield 3, []
    yield 4, [[0] * 4 for _ in range(3)]
    for k, rank, _ in product(range(9), range(9), range(4)):
        if rank <= k:
            n_rows = rng.randint(rank, k + 2)
            left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(n_rows)]
            right = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rank)]
            rows = [[sum(a * r[c] for a, r in zip(row, right)) for c in range(k)] for row in left]
            rows += [[0] * k for _ in range(rng.randint(0, 2))]
            rows += [list(rng.choice(rows)) for _ in range(rng.randint(0, 2))] if rows else []
            rng.shuffle(rows)
            yield k, rows


def _kept_by_one_pass(k, rows):
    # each unit vector reduced against the rows and the ones kept before it,
    # in that order, in Fractions; kept if something is left
    span = [[F(x) for x in row] for row in rows]
    rank = len(ref._rref([list(r) for r in span]))
    kept = []
    for j in range(k):
        trial = span + [[F(int(i == j)) for i in range(k)]]
        if len(ref._rref([list(r) for r in trial])) > rank:
            span, rank = trial, rank + 1
            kept.append(j)
    return kept


def test_pivot_rule_keeps_the_one_pass_classes():
    # cohomology keeps the unit vectors e_j of the free coordinates that the
    # image does not take: inserted in descending j, column j of the image
    # rows (the row of D^(d-1) at free coordinate j) is taken when it is
    # independent of the columns inserted before it
    rng = random.Random(2020)
    seen_full = 0
    for k, rows in _row_sets(rng):
        basis, taken = {}, set()
        for j in reversed(range(k)):
            if _insert(basis, {r: row[j] for r, row in enumerate(rows) if row[j]}):
                taken.add(j)
        kept = [j for j in range(k) if j not in taken]
        assert kept == _kept_by_one_pass(k, rows), (k, rows)
        assert len(kept) == k - len(basis)
        seen_full += k > 0 and kept == []
    assert seen_full


def test_cohomology_refuses_a_coboundary_outside_the_kernel(monkeypatch):
    # C = Q --1--> Q: D^0 = (1, -1) has its pivot at column 0 and its free
    # column at 1, so the unit vector at column 0 is zero at the free column
    # but no cocycle
    C = MatrixComplex((1, 1), (Mat.make([[1]]),))
    real = traces._d_rows

    def one_more_column(source, target, degree):
        # D^(-1) gains the column (1, 0): a new nonzero column, at row 0 only
        L, rows = real(source, target, degree)
        if degree == -1:
            rows = [{**rows[0], 1: 1}, *rows[1:]]
        return L, rows

    monkeypatch.setattr(traces, "_d_rows", one_more_column)
    with pytest.raises(InvariantError, match="degree 0: a coboundary is not a cocycle"):
        cohomology(C, C, 0)


# sha256 of the canonical JSON of to_dict(), cocycles and coboundaries of
# cohomology(A, A, d) and cohomology(A, B, d), d in -6..6, A and B the first
# two random_complex draws of random.Random(seed), seeds 0-299; recorded
# with the dense integer elimination this one replaced
COHOMOLOGY_DIGEST = "654bf82ea3fc2d8b975c1278d9a9e3c71758d0117aa4f8b606d954998a6efcb3"
# sha256 of the canonical JSON of hom_differential of seeded random cochains
# of every degree in -6..6 on the same pairs, rational on odd seeds
DIFFERENTIAL_DIGEST = "55e10c61764005f9737d0486f6fa9cef8b284af293acdcbe705d3c2283f9c97e"


def _seeded_pairs(seed):
    rng = random.Random(seed)
    A, B = random_complex(rng), random_complex(rng)
    return rng, ((A, A), (A, B))


def _digest(docs):
    return hashlib.sha256(dumps_canonical(docs).encode()).hexdigest()


def test_cohomology_documents_pinned():
    docs = []
    for seed in range(300):
        for source, target in _seeded_pairs(seed)[1]:
            for d in range(-6, 7):
                g = cohomology(source, target, d)
                cocycles = [f.to_dict() for f in g.cocycles]
                docs.append([g.to_dict(), cocycles, [f.to_dict() for f in g.coboundaries]])
    assert _digest(docs) == COHOMOLOGY_DIGEST


def test_hom_differential_pinned():
    docs = []
    for seed in range(300):
        rng, pairs = _seeded_pairs(seed)
        for source, target in pairs:
            if seed % 2:
                source, target = _rational(rng, source), _rational(rng, target)
            for k in range(-6, 7):
                f = random_cochain(rng, source, target, k)
                f = f.scale(F(rng.randint(-4, 4), rng.choice((1, 3, 7))))
                docs.append(hom_differential(f).to_dict())
    assert _digest(docs) == DIFFERENTIAL_DIGEST
