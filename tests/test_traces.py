"""Hom-complex calculus: differentials, supertraces, pairings, cohomology."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from walland import (
    DimensionMismatch,
    HomCochain,
    InvariantError,
    Mat,
    MatrixComplex,
    PreconditionError,
    cohomology,
    compose,
    hom_differential,
    random_coboundary,
    random_cochain,
    random_complex,
    supertrace,
    theta_pairing,
)


def _hom_dim(source, target, k):
    return sum(
        target.dims[i + k] * source.dims[i]
        for i in range(len(source.dims))
        if 0 <= i + k < len(target.dims)
    )


def two_term(d):
    return MatrixComplex((1, 1), (Mat.make([[d]]),))


def test_complex_validation():
    with pytest.raises(DimensionMismatch):
        MatrixComplex((), ())
    with pytest.raises(DimensionMismatch):
        MatrixComplex((1, 1), ())
    with pytest.raises(DimensionMismatch):
        MatrixComplex((2, 1), (Mat.zero(2, 2),))
    # d o d must vanish
    d = Mat.identity(1)
    with pytest.raises(PreconditionError):
        MatrixComplex((1, 1, 1), (d, d))
    MatrixComplex((1, 1, 1), (d, Mat.zero(1, 1)))  # fine


def test_shapes_and_degrees_must_be_ints():
    # a float, a bool or a string is refused, never truncated to an int
    for bad in ([2.7], [True], ["x"], [1, 1.0]):
        with pytest.raises(DimensionMismatch):
            MatrixComplex(bad, [Mat.zero(1, 1)] * (len(bad) - 1))
    C = two_term(1)
    for bad in (0.9, 1.0, True, "0"):
        with pytest.raises(PreconditionError):
            HomCochain(C, C, bad, {})
        with pytest.raises(PreconditionError):
            cohomology(C, C, bad)
    assert HomCochain(C, C, 1, {}).degree == 1
    assert cohomology(C, C, 0).degree == 0
    for shape in ((1.0, 1), (1, True), (True, True), ("1", 1), (-1, 1)):
        with pytest.raises(DimensionMismatch):
            Mat(*shape, [[1]])
    assert Mat(1, 1, [[1]]).shape == (1, 1)


def test_non_mat_differential_or_component_is_refused():
    # a list of rows is no Mat: refused with the type named, not an AttributeError
    with pytest.raises(DimensionMismatch, match="differential 0 is a list, not a Mat"):
        MatrixComplex((1, 1), ([[1]],))
    C = two_term(1)
    with pytest.raises(DimensionMismatch, match="component 0 is a list, not a Mat"):
        HomCochain(C, C, 0, {0: [[1]]})
    with pytest.raises(DimensionMismatch, match="component 5 is a list, not a Mat"):
        HomCochain(C, C, 0, {5: [[0]]})  # outside the support too

def test_mat_arithmetic():
    a = Mat.make([[1, 2], [3, 4]])
    b = Mat.make([[0, 1], [1, 0]])
    assert (a * b).to_json() == [["2", "1"], ["4", "3"]]
    assert a.trace() == 5
    assert (a - a).is_zero
    assert Mat.identity(2) * a == a
    with pytest.raises(DimensionMismatch):
        a * Mat.zero(3, 3)
    with pytest.raises(PreconditionError):
        Mat.zero(2, 3).trace()


def test_identity_is_closed():
    rng = random.Random(11)
    for _ in range(20):
        C = random_complex(rng)
        assert hom_differential(C.identity_endo()).is_zero


def test_differential_squares_to_zero_fuzz():
    rng = random.Random(12)
    for _ in range(200):
        C1 = random_complex(rng)
        C2 = random_complex(rng)
        k = rng.randint(-3, 3)
        g = random_cochain(rng, C1, C2, k)
        assert hom_differential(hom_differential(g)).is_zero


def test_leibniz_rule_fuzz():
    rng = random.Random(13)
    for _ in range(200):
        X, Y, Z = (random_complex(rng) for _ in range(3))
        ka, kb = rng.randint(-2, 2), rng.randint(-2, 2)
        b = random_cochain(rng, X, Y, kb)
        a = random_cochain(rng, Y, Z, ka)
        lhs = hom_differential(compose(a, b))
        rhs = compose(hom_differential(a), b)
        term = compose(a, hom_differential(b))
        if ka % 2:
            rhs = rhs - term
        else:
            rhs = rhs + term
        assert (lhs - rhs).is_zero


def test_compose_identity_and_degree():
    rng = random.Random(14)
    C1, C2 = random_complex(rng), random_complex(rng)
    b = random_cochain(rng, C1, C2, 1)
    assert compose(C2.identity_endo(), b) == b
    assert compose(b, C1.identity_endo()) == b
    a = random_cochain(rng, C2, C1, -2)
    assert compose(a, b).degree == -1
    with pytest.raises(DimensionMismatch):
        compose(b, b)


def test_supertrace_examples():
    C = MatrixComplex((1, 2, 1), (Mat.zero(2, 1), Mat.zero(1, 2)))
    assert supertrace(C.identity_endo()) == 0
    assert supertrace(HomCochain(C, C, 0, {})) == 0
    # single-degree support reads back with the alternating sign
    for i, d in enumerate(C.dims):
        f = HomCochain(C, C, 0, {i: Mat.identity(d).scale(F(7, 3))})
        expect = F(7, 3) * d * (1 if i % 2 == 0 else -1)
        assert supertrace(f) == expect


def test_supertrace_rejects_non_endomorphism():
    A = two_term(0)
    B = two_term(1)
    f = HomCochain(A, B, 0, {})
    with pytest.raises(PreconditionError):
        supertrace(f)


def test_supertrace_commutator_identity_fuzz():
    # str(a o b) = (-1)^(deg a * deg b) str(b o a) whenever the composite
    # is a degree-zero endomorphism
    rng = random.Random(15)
    nonzero = 0
    for _ in range(400):
        C = random_complex(rng)
        k = rng.randint(-3, 3)
        a = random_cochain(rng, C, C, k)
        b = random_cochain(rng, C, C, -k)
        lhs = supertrace(compose(a, b))
        rhs = supertrace(compose(b, a))
        if k % 2:
            assert lhs == -rhs
        else:
            assert lhs == rhs
        if lhs != 0:
            nonzero += 1
    assert nonzero > 150  # identity is exercised, not vacuous


def test_supertrace_kills_coboundaries_fuzz():
    # degree-0 coboundaries have vanishing supertrace: the pairing descends
    rng = random.Random(16)
    nonzero_f = 0
    for _ in range(300):
        C = random_complex(rng)
        f = random_cochain(rng, C, C, -1)
        if not f.is_zero:
            nonzero_f += 1
        assert supertrace(hom_differential(f)) == 0
    assert nonzero_f > 200


def test_theta_pairing_antisymmetry_conventions():
    rng = random.Random(17)
    C = random_complex(rng, max_len=4)
    a = random_cochain(rng, C, C, 1)
    b = random_cochain(rng, C, C, 1)
    # degree-1 composites land in degree 2, where the graded trace is zero
    assert theta_pairing(a, b) == 0
    assert theta_pairing(a, b) + theta_pairing(b, a) == 0
    assert theta_pairing(a, a) == 0
    z = HomCochain(C, C, 1, {})
    assert theta_pairing(z, z) == 0


def test_theta_pairing_representative_independence():
    rng = random.Random(18)
    checked = 0
    for _ in range(300):
        C = random_complex(rng)
        k = rng.choice((1, 2))
        a = random_cochain(rng, C, C, k)
        b = random_coboundary(rng, C, -k)  # a cocycle of degree -k
        g = random_cochain(rng, C, C, k - 1)
        shifted = a + hom_differential(g)
        base = supertrace(compose(a, b))
        assert supertrace(compose(shifted, b)) == base
        assert supertrace(compose(hom_differential(g), b)) == 0
        if base != 0:
            checked += 1
    assert checked > 40


def test_theta_pairing_is_the_supertrace_of_the_composite():
    # theta_pairing reads the composite's diagonal without building it
    rng = random.Random(20)
    nonzero = 0
    for _ in range(60):
        C = random_complex(rng)
        n = len(C.dims)
        for ka in range(-n, n + 1):
            for kb in range(-n, n + 1):
                a = random_cochain(rng, C, C, ka)
                b = random_cochain(rng, C, C, kb)
                got = theta_pairing(a, b)
                assert type(got) is F and got == supertrace(compose(a, b))
                nonzero += got != 0
    assert nonzero > 100


def test_theta_pairing_rejects_mismatched_complexes():
    rng = random.Random(19)
    A = two_term(0)
    B = two_term(1)
    a = random_cochain(rng, A, A, 1)
    b = random_cochain(rng, B, B, 1)
    with pytest.raises(PreconditionError):
        theta_pairing(a, b)


def test_cohomology_zero_differential_two_term():
    C = two_term(0)
    got = {k: cohomology(C, C, k) for k in (-1, 0, 1)}
    assert (got[-1].dim, got[0].dim, got[1].dim) == (1, 2, 1)
    assert got[0].ker_dim == 2 and got[0].im_dim == 0
    # every cochain is a cocycle and none bound: witnesses span everything
    assert len(got[0].cocycles) == 2 and got[0].coboundaries == []


def test_cohomology_identity_differential_two_term():
    C = two_term(1)
    ext0 = cohomology(C, C, 0)
    ext1 = cohomology(C, C, 1)
    assert ext0.dim == 0 and ext1.dim == 0
    assert ext0.ker_dim == 1 and ext0.im_dim == 1
    assert ext1.ker_dim == 1 and ext1.im_dim == 1
    assert ext0.reps == [] and ext1.reps == []


def test_cohomology_out_of_support_degree():
    C = two_term(0)
    for k in (5, -5, 10**9, -(10**9)):  # Hom^k = 0: one step, whatever k is
        far = cohomology(C, C, k)
        assert far.dim == far.ker_dim == far.im_dim == 0
        assert far.reps == [] and far.cocycles == [] and far.coboundaries == []
    assert C._steps == {}


def test_cohomology_dimension_mismatch_raises(monkeypatch):
    # an insertion that reports a row as kept but does not keep it takes a
    # free coordinate for the image without a pivot, so the representatives
    # fall short of the dimension; the check is a raised error, so it holds
    # under python -O too
    import walland.traces as traces

    C = two_term(0)  # made first: its ranks go through _insert too
    monkeypatch.setattr(traces, "_insert", lambda basis, row: True)
    with pytest.raises(InvariantError, match="degree 0: 0 representatives, dimension 2"):
        cohomology(C, C, 0)


def test_cohomology_builds_witnesses_on_demand(monkeypatch):
    # cohomology turns only the representatives into cochains; the cocycles
    # and the coboundaries are built on first access, once, and match the
    # reference copy
    import reference_cohomology as ref
    import walland.traces as traces

    real = traces._unflatten
    built = []

    def counted(*args):
        built.append(args[2])
        return real(*args)

    monkeypatch.setattr(traces, "_unflatten", counted)
    rng = random.Random(23)
    seen = 0
    for _ in range(20):
        C = random_complex(rng)
        for k in range(1 - len(C), len(C)):
            built.clear()
            grp = cohomology(C, C, k)
            assert len(built) == grp.dim
            cocycles = grp.cocycles
            assert len(built) == grp.dim + grp.ker_dim
            coboundaries = grp.coboundaries
            assert len(built) == grp.dim + grp.ker_dim + grp.im_dim
            assert grp.cocycles is cocycles and grp.coboundaries is coboundaries
            assert len(built) == grp.dim + grp.ker_dim + grp.im_dim
            assert set(built) <= {k}
            want = ref.cohomology(C, C, k)
            assert cocycles == want.cocycles and coboundaries == want.coboundaries
            assert grp == want
            seen += grp.im_dim > 0 and grp.dim > 0
    assert seen > 10


def test_cohomology_witnesses_fuzz():
    rng = random.Random(20)
    for _ in range(60):
        S, T = random_complex(rng), random_complex(rng)
        k = rng.randint(-2, 2)
        grp = cohomology(S, T, k)
        assert grp.dim == grp.ker_dim - grp.im_dim
        assert len(grp.cocycles) == grp.ker_dim
        assert len(grp.coboundaries) == grp.im_dim
        assert len(grp.reps) == grp.dim
        for z in grp.cocycles + grp.coboundaries + grp.reps:
            assert z.degree == k
            assert hom_differential(z).is_zero


def test_cohomology_euler_characteristic_fuzz():
    rng = random.Random(21)
    for _ in range(40):
        S, T = random_complex(rng), random_complex(rng)
        ks = range(1 - len(S.dims), len(T.dims))
        ext_sum = sum((-1) ** (k % 2) * cohomology(S, T, k).dim for k in ks)
        hom_sum = sum((-1) ** (k % 2) * _hom_dim(S, T, k) for k in ks)
        assert ext_sum == hom_sum
        chi_s = sum((-1) ** (i % 2) * d for i, d in enumerate(S.dims))
        chi_t = sum((-1) ** (i % 2) * d for i, d in enumerate(T.dims))
        assert hom_sum == chi_s * chi_t


def test_cohomology_dimensions_against_kunneth():
    # a sympy-free dimension oracle: h^i of each complex from the ranks of its
    # differentials, eliminated in Fractions by the reference copy; then in
    # every degree dim H^k(Hom(S, T)) = sum_i h^i(S) h^(i+k)(T), and
    # rank D^k = dim Hom^k - dim H^k - rank D^(k-1) fixes ker_dim and im_dim
    import reference_cohomology as ref

    rng = random.Random(24)
    for _ in range(40):
        A, B = random_complex(rng), random_complex(rng)
        for C in (A, B):
            ranks = [0, *(len(ref._rref([list(r) for r in d.data])) for d in C.diffs), 0]
            assert C.h == tuple(n - ranks[i] - ranks[i + 1] for i, n in enumerate(C.dims))
        for S, T in ((A, A), (A, B), (B, A)):
            rank_prev = 0
            for k in range(-len(S.dims), len(T.dims) + 1):
                spots = range(max(0, -k), min(len(S.dims), len(T.dims) - k))
                want = sum(S.h[i] * T.h[i + k] for i in spots)
                g = cohomology(S, T, k)
                assert (g.dim, g.ker_dim, g.im_dim) == (want, want + rank_prev, rank_prev), k
                rank_prev = _hom_dim(S, T, k) - want - rank_prev
            assert rank_prev == 0


def test_cohomology_kunneth_check_raises(monkeypatch):
    # a pivot that D^0 does not have leaves the kernel one free column short,
    # with as many representatives as its dimension says; the Kunneth sum,
    # from the ranks of the complexes' own differentials, refuses it, and so
    # it refuses wrong ranks
    import walland.traces as traces

    real, phantom = traces._insert, []

    def one_phantom_pivot(basis, row):
        # the first row inserted, the zero row of D^0, is kept as a unit row
        if phantom:
            return real(basis, row)
        phantom.append(row)
        basis[0] = {0: 1}
        return True

    C = two_term(0)  # made first: its ranks go through _insert too
    monkeypatch.setattr(traces, "_insert", one_phantom_pivot)
    with pytest.raises(InvariantError, match="degree 0: dimension 1, Kunneth sum 2"):
        cohomology(C, C, 0)
    monkeypatch.undo()
    monkeypatch.setattr(traces, "_rank", lambda m: 0)
    C = two_term(1)  # h = (1, 1) now, though the cohomology is zero
    with pytest.raises(InvariantError, match="degree 0: dimension 0, Kunneth sum 2"):
        cohomology(C, C, 0)


def _documents(calls):
    # (id(target), degree) -> to_dict(), cocycles and coboundaries of each call
    docs = {}
    for S, T, d in calls:
        g = cohomology(S, T, d)
        docs[id(T), d] = [g.to_dict(), [f.to_dict() for f in g.cocycles],
                          [f.to_dict() for f in g.coboundaries]]
    return docs


def test_cohomology_is_independent_of_call_order():
    # the steps a call parks for the degrees above it give the groups a fresh
    # sweep gives, in any order, and with a second target on the same source
    # (the pairs and degrees of COHOMOLOGY_DIGEST)
    rng = random.Random(26)
    degrees = range(-6, 7)
    for seed in range(300):
        draw = random.Random(seed)
        A, B = random_complex(draw), random_complex(draw)
        up = {**_documents((A, A, d) for d in degrees), **_documents((A, B, d) for d in degrees)}
        shuffled = [(A, T, d) for T in (A, B) for d in degrees]
        rng.shuffle(shuffled)
        for calls in (
            [(A, T, d) for T in (A, B) for d in reversed(degrees)],
            shuffled,
            [(A, T, d) for d in degrees for T in (A, B)],
            [(A, T, d) for d in reversed(degrees) for T in (B, A)],
        ):
            assert _documents(calls) == up, seed


def test_cohomology_sweeps_carry_nothing_over(monkeypatch):
    # a sweep up through the degrees builds each D once and eliminates only
    # the rows of the image steps; the next sweep does the same work again,
    # and no step is left parked after either
    import walland.traces as traces

    C = random_complex(random.Random(16))  # dims (3, 3, 2, 3), h = (2, 0, 0, 3)
    counts = {"_insert": 0, "_d_rows": 0, "_reduced_basis": 0}
    for name in counts:
        def counted(*args, real=getattr(traces, name), name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(traces, name, counted)
    degrees = range(1 - len(C), len(C))
    seen = []
    for _ in range(2):
        groups = [cohomology(C, C, d) for d in degrees]
        assert all(len(g.cocycles) == g.ker_dim for g in groups)
        seen.append(dict(counts))
        assert C._steps == {}
        for name in counts:
            counts[name] = 0
    assert seen[0] == seen[1]
    assert seen[0]["_d_rows"] == len(degrees) and seen[0]["_reduced_basis"] == 0
    assert seen[0]["_insert"] > 0
    assert sum(g.dim for g in groups) > 0
    groups[0].coboundaries  # the one full-row elimination, on first access
    assert counts["_reduced_basis"] == 1


def test_cohomology_walks_its_steps_in_a_loop():
    # Hom^k(Q, T) = T^k: 1500 nonzero degrees, more steps than the default
    # recursion limit, all walked by the call for degree 0
    S = MatrixComplex((1,), ())
    T = MatrixComplex((1,) * 1500, (Mat.zero(1, 1),) * 1499)
    g = cohomology(S, T, 0)
    assert (g.dim, g.ker_dim, g.im_dim) == (1, 1, 0)
    assert len(S._steps) == 1499
    assert all(cohomology(S, T, k).dim == 1 for k in range(1, 1500))
    assert S._steps == {}


def test_differentials_are_read_in_integers_once(monkeypatch):
    # the constructor reads each rational differential into integers; after
    # that cohomology in every degree, hom_differential and the lazy witnesses
    # read no Fraction denominators again
    import walland.traces as traces

    d0, d1 = Mat.make([[F(1, 2)], [F(1, 3)], [0]]), Mat.make([[F(2, 3), -1, F(1, 4)]])
    C = MatrixComplex((1, 3, 1), (d0, d1))  # h = (0, 1, 0)
    B = two_term(F(5, 7))
    pairs = [(C, C, k) for k in range(-2, 3)] + [(C, B, k) for k in range(-2, 2)]
    rng = random.Random(25)
    cochains = [random_cochain(rng, S, T, k) for S, T, k in pairs]

    def run():
        groups = [cohomology(S, T, k) for S, T, k in pairs]
        return groups, [g.cocycles for g in groups], [g.coboundaries for g in groups], [
            hom_differential(f) for f in cochains
        ]

    want = run()
    assert any(g.dim for g in want[0]) and not all(f.is_zero for f in want[3])

    def refuse(*args):
        raise AssertionError("a differential read from Fractions again")

    monkeypatch.setattr(traces, "_den_lcm", refuse)
    monkeypatch.setattr(traces, "_scaled", refuse)
    assert run() == want
    with pytest.raises(AssertionError, match="read from Fractions again"):
        two_term(F(1, 2))  # the patch reaches the one reading, in the constructor

def test_random_complex_respects_bounds():
    rng = random.Random(22)
    for _ in range(200):
        C = random_complex(rng, max_len=5, max_dim=4, entry_bound=3)
        assert 2 <= len(C.dims) <= 5
        assert all(0 <= d <= 4 for d in C.dims)
        # constructor enforced d o d = 0 already; spot-check anyway
        for i in range(len(C.diffs) - 1):
            assert (C.diffs[i + 1] * C.diffs[i]).is_zero


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=4),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_zero_differential_cohomology_equals_hom(dims, seed):
    if not any(dims):
        dims = dims + [1]
    diffs = [Mat.zero(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
    C = MatrixComplex(dims, diffs)
    rng = random.Random(seed)
    k = rng.randint(1 - len(dims), len(dims) - 1)
    grp = cohomology(C, C, k)
    assert grp.dim == _hom_dim(C, C, k)
    assert grp.im_dim == 0
