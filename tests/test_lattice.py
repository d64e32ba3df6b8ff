"""Lattice data, twisted characters, Euler pairing, discriminant."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from walland import (
    CharVec,
    DimensionMismatch,
    DivisorClass,
    PreconditionError,
    SchemaError,
    SurfaceLattice,
    VTilde,
    derived_dual,
    discriminant,
    euler_pairing,
    tensor_by_K,
    twist_char,
    untwist_char,
    vtilde,
)

from conftest import SURFACE_DIR, rand_frac
from test_reference_walls import ODD_SCALE

F = Fraction


def rand_char(rng, lattice):
    return CharVec.make(
        rand_frac(rng), [rand_frac(rng) for _ in range(lattice.rank)], rand_frac(rng)
    )


def test_intersect_examples(p2, product_surface):
    h = p2.divisor([1])
    assert p2.pair(h, h) == 1
    assert p2.pair(p2.divisor([0]), h) == 0
    hf = product_surface.divisor([1, 1])
    assert product_surface.pair(hf, hf) == 2


RATIONAL_GRAM = SurfaceLattice.from_dict(
    # H.D = 1/2*2 + 1/3*(-3) = 0, H^2 = 1/2
    {"basis": ["a", "b"], "gram": [["1/2", "1/3"], ["1/3", "-2"]],
     "H": ["1", "0"], "D": ["2", "-3"], "K": ["-1", "1/5"], "chiO": "1"}
)


def _pair_by_fractions(L, a, b):
    # the pairing as a double sum of Fraction products
    return sum(
        (ai * bj * L.gram[i][j] for i, ai in enumerate(a.coords) for j, bj in enumerate(b.coords)),
        Fraction(0),
    )


coords = st.lists(
    st.sampled_from([2, 3, 5, 1, 30]).flatmap(
        lambda den: st.builds(Fraction, st.integers(-40, 40), st.just(den))
    ),
    min_size=2, max_size=2,
)


@settings(max_examples=200, deadline=None)
@given(coords, coords)
def test_pair_in_ints_matches_fraction_sum(a, b):
    # gram entries with denominators 2 and 3, coordinates with 2, 3 and 5
    L = RATIONAL_GRAM
    a, b = DivisorClass.make(a), DivisorClass.make(b)
    assert L.pair(a, b) == _pair_by_fractions(L, a, b) == L.pair(b, a)


def test_pair_on_a_rational_gram():
    L = RATIONAL_GRAM
    a = DivisorClass.make([F(1, 2), F(2, 3)])
    b = DivisorClass.make([F(3, 5), F(-1, 3)])
    # 1/2*3/5*1/2 + 1/2*(-1/3)*1/3 + 2/3*3/5*1/3 + 2/3*(-1/3)*(-2)
    assert L.pair(a, b) == F(3, 20) - F(1, 18) + F(2, 15) + F(4, 9)
    assert L.pair(a, b) == _pair_by_fractions(L, a, b)
    assert (L.HH, L.DD, L.KK) == (F(1, 2), F(-20), F(1, 2) - F(2, 15) - F(2, 25))
    assert L.pair(L.H, L.D) == 0
    with pytest.raises(DimensionMismatch):
        L.pair(DivisorClass.make([1]), b)
    with pytest.raises(DimensionMismatch):
        L.pair(a, DivisorClass.make([1, 2, 3]))


def test_surface_json_round_trip(p2, quartic, product_surface):
    for L in (p2, quartic, product_surface):
        again = SurfaceLattice.from_dict(json.loads(json.dumps(L.to_dict())))
        assert again == L


def test_surface_validation():
    with pytest.raises(SchemaError):
        SurfaceLattice.from_dict({"basis": ["h"]})
    with pytest.raises(SchemaError):
        # non-symmetric gram
        SurfaceLattice.from_dict(
            {"basis": ["a", "b"], "gram": [["0", "1"], ["2", "0"]],
             "H": ["1", "1"], "D": ["0", "0"], "K": ["0", "0"], "chiO": "1"}
        )
    with pytest.raises(PreconditionError):
        # H with nonpositive self-intersection
        SurfaceLattice.from_dict(
            {"basis": ["h"], "gram": [["-1"]], "H": ["1"], "D": ["0"],
             "K": ["0"], "chiO": "1"}
        )
    with pytest.raises(DimensionMismatch):
        SurfaceLattice.from_dict(
            {"basis": ["h"], "gram": [["1"]], "H": ["1"], "D": ["0", "0"],
             "K": ["0"], "chiO": "1"}
        )


def test_poisson_mode_flags(p2, quartic, product_surface):
    assert p2.poisson_mode
    assert product_surface.poisson_mode
    assert not quartic.poisson_mode  # trivial canonical class


def test_twist_char_examples(p2, product_surface):
    ch = CharVec.make(1, [2], F(1, 2))
    assert twist_char(ch, p2) == ch  # D = 0
    # D^2 = -2 on the product lattice with D = h1 - h2
    L = product_surface
    assert L.pair(L.D, L.D) == -2
    ch = CharVec.make(2, L.D.coords, 1)
    out = twist_char(ch, L)
    assert out.r == 2
    assert out.c1 == -L.D
    assert out.e == 1
    # generic rank-1 shape (1, -D, D^2/2)
    one = CharVec.make(1, [0, 0], 0)
    t = twist_char(one, L)
    assert t.c1 == -L.D and t.e == L.pair(L.D, L.D) / 2


def test_twist_untwist_inverse(product_surface):
    rng = random.Random(99)
    for _ in range(150):
        ch = rand_char(rng, product_surface)
        assert untwist_char(twist_char(ch, product_surface), product_surface) == ch
        assert twist_char(untwist_char(ch, product_surface), product_surface) == ch


def test_constants_and_twists_match_pair_definitions(p2, quartic, product_surface):
    # the lattice's constant fields and the one exp-twist against their
    # definitions written with pair alone; p1xp1_twisted and the ODD_SCALE
    # lattices have D != 0, or D^2 and H^2 that are not integers
    odd = [SurfaceLattice.from_dict(ODD_SCALE[name]) for name in sorted(ODD_SCALE)]
    rng = random.Random(2025)
    for L in [p2, quartic, product_surface] + odd:
        H, D, K = L.H, L.D, L.K
        assert (L.HH, L.HK, L.KK, L.DD) == (
            L.pair(H, H), L.pair(H, K), L.pair(K, K), L.pair(D, D)
        )
        again = SurfaceLattice.from_dict(json.loads(json.dumps(L.to_dict())))
        assert again == L and hash(again) == hash(L) and repr(again) == repr(L)
        assert "HH" not in repr(L)
        for _ in range(60):
            ch = rand_char(rng, L)
            r, c1, e = ch.r, ch.c1, ch.e
            t = CharVec(r, c1 - D.scale(r), e - L.pair(D, c1) + r * L.pair(D, D) / 2)
            assert twist_char(ch, L) == t
            assert untwist_char(ch, L) == CharVec(
                r, c1 + D.scale(r), e + L.pair(D, c1) + r * L.pair(D, D) / 2
            )
            assert tensor_by_K(ch, L) == CharVec(
                r, c1 + K.scale(r), e + L.pair(K, c1) + r * L.pair(K, K) / 2
            )
            assert vtilde(ch, L) == VTilde(L.pair(H, H) * t.r, L.pair(H, t.c1), t.e)


def test_mirrored_is_the_lattice_of_minus_D(p2, quartic, product_surface):
    # mirrored copies what D -> -D keeps and drops the cached scan
    # constants, which read D
    odd = [SurfaceLattice.from_dict(ODD_SCALE[name]) for name in sorted(ODD_SCALE)]
    for L in [p2, quartic, product_surface] + odd:
        L.scan_constants(2)
        got = L.mirrored()
        want = SurfaceLattice(L.basis, L.gram, L.H, -L.D, L.K, L.chiO)
        assert got == want and got.mirrored() == L
        assert (got.HH, got.HK, got.KK, got.DD, got._gram) == (
            want.HH, want.HK, want.KK, want.DD, want._gram
        )
        assert got.scan_constants(2) == want.scan_constants(2)


def test_vtilde_examples(p2):
    assert vtilde(CharVec.make(1, [0], 0), p2).as_tuple() == (1, 0, 0)
    assert vtilde(CharVec.make(0, [0], 1), p2).as_tuple() == (0, 0, 1)
    assert vtilde(CharVec.make(1, [-3], F(9, 2)), p2).as_tuple() == (1, -3, F(9, 2))


def test_tensor_by_K_examples(p2, quartic):
    out = tensor_by_K(CharVec.make(1, [0], 0), p2)
    assert (out.r, out.c1.coords, out.e) == (1, (-3,), F(9, 2))
    n = CharVec.make(0, [0], 5)
    assert tensor_by_K(n, p2) == n
    ch = CharVec.make(3, [2], F(-1, 2))
    assert tensor_by_K(ch, quartic) == ch  # K = 0


def test_derived_dual_examples():
    assert derived_dual(CharVec.make(1, [0], 0)) == CharVec.make(1, [0], 0)
    assert derived_dual(CharVec.make(1, [-3], F(9, 2))) == CharVec.make(1, [3], F(9, 2))
    assert derived_dual(CharVec.make(0, [0], 1)) == CharVec.make(0, [0], 1)


def test_euler_pairing_examples(p2):
    o = CharVec.make(1, [0], 0)
    assert euler_pairing(o, o, p2) == 1
    assert euler_pairing(o, CharVec.make(1, [1], F(1, 2)), p2) == 3
    for n in range(1, 5):
        ideal = CharVec.make(1, [0], -n)
        assert euler_pairing(ideal, ideal, p2) == 1 - 2 * n


def test_euler_pairing_symmetrization(p2, product_surface):
    # chi(E,F) + chi(F,E) drops the K term
    rng = random.Random(321)
    for L in (p2, product_surface):
        for _ in range(100):
            a, b = rand_char(rng, L), rand_char(rng, L)
            sym = euler_pairing(a, b, L) + euler_pairing(b, a, L)
            expect = (
                2 * a.r * b.r * L.chiO
                + 2 * (a.r * b.e + b.r * a.e)
                - 2 * L.pair(a.c1, b.c1)
            )
            assert sym == expect


def test_euler_pairing_brute_force_oracle(p2, quartic, product_surface):
    # degree-2 part of ch(E)^dual . ch(F) . (1, -K/2, chiO), term by term
    def mult(x, y, L):
        return (
            x[0] * y[0],
            x[1].scale(y[0]) + y[1].scale(x[0]),
            x[0] * y[2] + y[0] * x[2] + L.pair(x[1], y[1]),
        )

    rng = random.Random(4242)
    for L in (p2, quartic, product_surface):
        todd = (F(1), L.K.scale(F(-1, 2)), L.chiO)
        for _ in range(70):
            a, b = rand_char(rng, L), rand_char(rng, L)
            dual = (a.r, -a.c1, a.e)
            prod = mult(mult(dual, (b.r, b.c1, b.e), L), todd, L)
            assert euler_pairing(a, b, L) == prod[2]


def test_discriminant_examples(p2):
    assert discriminant(vtilde(CharVec.make(0, [0], 1), p2)) == 0
    assert discriminant(vtilde(CharVec.make(1, [0], 0), p2)) == 0
    assert discriminant(vtilde(CharVec.make(1, [-3], F(9, 2)), p2)) == 0
    assert discriminant(vtilde(CharVec.make(1, [0], -2), p2)) == 4


def test_discriminant_tensor_invariance_in_H_span(p2, product_surface):
    # c1 and K both multiples of H: the twist translates along the parabola
    rng = random.Random(777)
    for _ in range(100):
        ch = CharVec.make(rand_frac(rng), [rand_frac(rng)], rand_frac(rng))
        assert discriminant(vtilde(tensor_by_K(ch, p2), p2)) == discriminant(
            vtilde(ch, p2)
        )
    L = product_surface  # K = -2H lies in the span of H
    for _ in range(100):
        t = rand_frac(rng)
        ch = CharVec.make(rand_frac(rng), [t, t], rand_frac(rng))
        assert discriminant(vtilde(tensor_by_K(ch, L), L)) == discriminant(
            vtilde(ch, L)
        )


def test_v1_shift_under_tensor(p2, quartic, product_surface):
    rng = random.Random(31337)
    for L in (p2, quartic, product_surface):
        HK = L.pair(L.H, L.K)
        for _ in range(60):
            ch = rand_char(rng, L)
            assert (
                vtilde(tensor_by_K(ch, L), L).v1 - vtilde(ch, L).v1 == ch.r * HK
            )


def test_char_integrality(p2):
    assert CharVec.make(1, [2], F(2)).is_integral(p2)
    assert CharVec.make(1, [1], F(1, 2)).is_integral(p2)  # e = c1^2/2 mod 1
    assert not CharVec.make(1, [1], F(1, 3)).is_integral(p2)
    assert not CharVec.make(F(1, 2), [0], 0).is_integral(p2)


def test_quartic_data(quartic):
    assert quartic.chiO == 2
    assert quartic.pair(quartic.H, quartic.H) == 4
    assert quartic.K.is_zero
