"""Numerical character lattice of a polarized surface.

A surface is declared by a finitely generated intersection lattice (the
relevant part of its divisor group), a polarization H, an orthogonal twist
divisor D, the canonical class K and the structure-sheaf Euler number.
Characters (r, c1, e) project through the D-twist to three-component
vectors that drive all of the plane geometry downstream.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import chain, product

from .errors import DimensionMismatch, PreconditionError, SchemaError
from .plane import _Frozen, _den_lcm, _scaled, parse_frac


class DivisorClass(_Frozen):
    """Divisor class as rational coordinates in the declared basis."""

    __slots__ = _fields = ("coords",)

    def __init__(self, coords: tuple):
        self._set("coords", coords)

    @staticmethod
    def make(coords) -> "DivisorClass":
        return DivisorClass(tuple(parse_frac(c) for c in coords))

    def __add__(self, other):
        self._check(other)
        return DivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return DivisorClass(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return DivisorClass(tuple(-a for a in self.coords))

    def scale(self, t) -> "DivisorClass":
        t = parse_frac(t)
        return DivisorClass(tuple(t * a for a in self.coords))

    def _check(self, other):
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch("divisor classes live in different lattices")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


class SurfaceLattice(_Frozen):
    """Intersection data (basis, gram, H, D, K, chiO) of a polarized surface."""

    _fields = ("basis", "gram", "H", "D", "K", "chiO")
    # outside ==, hash and repr: H^2, H.K, K^2, D^2, D.K, the only pairings of
    # two fixed classes; (g, the rows of g*gram as ints), g the lcm of the gram's
    # denominators; (c1_bound, scan_constants(c1_bound)) of the last scan
    __slots__ = _fields + ("HH", "HK", "KK", "DD", "DK", "_gram", "_scan")

    def __init__(self, basis, gram, H, D, K, chiO):
        for name, x in zip(self._fields, (basis, gram, H, D, K, chiO)):
            self._set(name, x)
        self._set("_scan", None)
        n = len(basis)
        if len(gram) != n or any(len(row) != n for row in gram):
            raise SchemaError("gram matrix shape does not match basis")
        if any(tuple(row) != col for row, col in zip(gram, zip(*gram))):
            raise SchemaError("gram matrix must be symmetric")
        g = _den_lcm(chain(*gram))
        self._set("_gram", (g, tuple(_scaled(row, g) for row in gram)))
        # pair raises DimensionMismatch for a class of the wrong length
        for name, a, b in (("HH", H, H), ("HK", H, K), ("KK", K, K), ("DD", D, D), ("DK", D, K)):
            self._set(name, self.pair(a, b))
        if self.HH <= 0:
            raise PreconditionError("polarization must have positive self-intersection")
        if self.pair(H, D) != 0:
            raise PreconditionError("twist divisor must be orthogonal to H")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def pair(self, a: DivisorClass, b: DivisorClass) -> Fraction:
        if len(a.coords) != self.rank or len(b.coords) != self.rank:
            raise DimensionMismatch("divisor coordinates do not match basis")
        g, G = self._gram
        da, db = _den_lcm(a.coords), _den_lcm(b.coords)
        B = _scaled(b.coords, db)
        total = 0
        for ai, row in zip(_scaled(a.coords, da), G):
            if ai:
                total += ai * sum(bj * gij for bj, gij in zip(B, row))
        return Fraction(total, da * db * g)

    def mirrored(self) -> "SurfaceLattice":
        """This lattice with D replaced by -D, as the derived dual needs it.

        D -> -D keeps H.D = 0 and every slot `__init__` derives but D.K,
        which flips sign, so those are copied, not computed again; the scan
        constants read D and are not.
        """
        m = object.__new__(SurfaceLattice)
        for name in self.__slots__:
            m._set(name, getattr(self, name))
        m._set("D", -self.D)
        m._set("DK", -self.DK)
        m._set("_scan", None)
        return m

    @property
    def poisson_mode(self) -> bool:
        """True when H.K < 0, the regime where anticanonical sections exist."""
        return self.HK < 0

    def scan_constants(self, c1_bound: int):
        """Integer constants of a wall scan over |c1 coords| <= c1_bound.

        Returns (M, M*H^2, M*D^2/2, classes), M the lcm of the denominators
        of H^2, D^2/2, H.c and c^2/2 - D.c over the box, so all are ints,
        and classes one (M*H.c, M*(c^2/2 - D.c) mod M, multiplicity) per
        class of c alike in both, in product order.  The last bound's
        constants are kept on the instance: they depend on nothing else.
        """
        if self._scan is not None and self._scan[0] == c1_bound:
            return self._scan[1]
        box = map(self.divisor, product(range(-c1_bound, c1_bound + 1), repeat=self.rank))
        terms = [(self.pair(self.H, c), self.pair(c, c) / 2 - self.pair(self.D, c)) for c in box]
        M = _den_lcm(chain((self.HH, self.DD / 2), *terms))
        classes = Counter((a, b % M) for a, b in (_scaled(t, M) for t in terms))
        out = (M, *_scaled((self.HH, self.DD / 2), M),
               tuple((a, b, n) for (a, b), n in classes.items()))
        self._set("_scan", (c1_bound, out))
        return out

    def divisor(self, coords) -> DivisorClass:
        d = DivisorClass.make(coords)
        if len(d.coords) != self.rank:
            raise DimensionMismatch("divisor coordinates do not match basis")
        return d

    # -- serialization ----------------------------------------------------

    @staticmethod
    def from_dict(data: dict) -> "SurfaceLattice":
        try:
            basis = tuple(str(b) for b in data["basis"])
            gram = tuple(
                tuple(parse_frac(x) for x in row) for row in data["gram"]
            )
            H = DivisorClass.make(data["H"])
            D = DivisorClass.make(data["D"])
            K = DivisorClass.make(data["K"])
            chiO = parse_frac(data["chiO"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"surface lattice record missing field: {exc}") from exc
        return SurfaceLattice(basis, gram, H, D, K, chiO)

    def to_dict(self) -> dict:
        return {
            "basis": list(self.basis),
            "gram": [[str(x) for x in row] for row in self.gram],
            "H": [str(c) for c in self.H.coords],
            "D": [str(c) for c in self.D.coords],
            "K": [str(c) for c in self.K.coords],
            "chiO": str(self.chiO),
        }

    @staticmethod
    def load(path) -> "SurfaceLattice":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                # ints go through parse_frac as strings do, so one past the digit
                # limit raises PreconditionError here too, not a ValueError
                data = json.load(fh, parse_int=parse_frac)
        except FileNotFoundError as exc:
            raise SchemaError(f"surface file not found: {path}") from exc
        except OSError as exc:  # a directory, no permission, ...
            raise SchemaError(f"cannot read {path}: {exc.strerror}") from exc
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
        return SurfaceLattice.from_dict(data)


class CharVec(_Frozen):
    """Numerical character (rank, first Chern class, degree-2 component)."""

    __slots__ = _fields = ("r", "c1", "e")

    def __init__(self, r: Fraction, c1: DivisorClass, e: Fraction):
        self._set("r", r)
        self._set("c1", c1)
        self._set("e", e)

    @staticmethod
    def make(r, c1_coords, e) -> "CharVec":
        return CharVec(parse_frac(r), DivisorClass.make(c1_coords), parse_frac(e))

    def __add__(self, other):
        return CharVec(self.r + other.r, self.c1 + other.c1, self.e + other.e)

    def __sub__(self, other):
        return CharVec(self.r - other.r, self.c1 - other.c1, self.e - other.e)

    def __neg__(self):
        return CharVec(-self.r, -self.c1, -self.e)

    def is_integral(self, L: SurfaceLattice) -> bool:
        """Rank and c1 integral, e congruent to c1^2/2 mod 1."""
        if self.r.denominator != 1:
            return False
        if any(c.denominator != 1 for c in self.c1.coords):
            return False
        return (self.e - L.pair(self.c1, self.c1) / 2).denominator == 1

    def to_dict(self) -> dict:
        return {
            "r": str(self.r),
            "c1": [str(c) for c in self.c1.coords],
            "e": str(self.e),
        }

    @staticmethod
    def from_dict(data: dict) -> "CharVec":
        try:
            return CharVec.make(data["r"], data["c1"], data["e"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"character record missing field: {exc}") from exc


class VTilde(_Frozen):
    """Projected character (H^2*ch0^D, H.ch1^D, ch2^D)."""

    __slots__ = _fields = ("v0", "v1", "v2")

    def __init__(self, v0: Fraction, v1: Fraction, v2: Fraction):
        self._set("v0", v0)
        self._set("v1", v1)
        self._set("v2", v2)

    @staticmethod
    def make(v0, v1, v2) -> "VTilde":
        return VTilde(parse_frac(v0), parse_frac(v1), parse_frac(v2))

    def __add__(self, other):
        return VTilde(self.v0 + other.v0, self.v1 + other.v1, self.v2 + other.v2)

    def __sub__(self, other):
        return VTilde(self.v0 - other.v0, self.v1 - other.v1, self.v2 - other.v2)

    def __neg__(self):
        return VTilde(-self.v0, -self.v1, -self.v2)

    @property
    def is_zero(self) -> bool:
        return self.v0 == 0 and self.v1 == 0 and self.v2 == 0

    def as_tuple(self):
        return (self.v0, self.v1, self.v2)

    def to_list(self):
        return [str(self.v0), str(self.v1), str(self.v2)]


def _exp_ch2(ch, e: Fraction, Xc1: Fraction, XX: Fraction) -> Fraction:
    """Degree-2 part e + X.c1 + r X^2/2 of ch*exp(X); e and X.c1 are read off
    ch or off another character of ch's rank r, such as its D-twist."""
    return e + Xc1 + ch.r * XX / 2


def _times_exp(ch: CharVec, X: DivisorClass, XX: Fraction, L: SurfaceLattice) -> CharVec:
    """ch*exp(X) = (r, c1 + r X, e + X.c1 + r X^2/2), X^2 = XX read off L."""
    return CharVec(ch.r, ch.c1 + X.scale(ch.r), _exp_ch2(ch, ch.e, L.pair(X, ch.c1), XX))


def twist_char(ch: CharVec, L: SurfaceLattice) -> CharVec:
    """Multiply by exp(-D): (r, c1 - r D, e - D.c1 + r D^2/2)."""
    return _times_exp(ch, -L.D, L.DD, L)


def untwist_char(ch: CharVec, L: SurfaceLattice) -> CharVec:
    """Inverse of twist_char (multiply by exp(D))."""
    return _times_exp(ch, L.D, L.DD, L)


def vtilde(ch: CharVec, L: SurfaceLattice) -> VTilde:
    """Project the D-twisted character onto (H^2 ch0, H.ch1, ch2); H.ch1 is
    H.(c1 - r D) = H.c1, since SurfaceLattice enforces H.D = 0."""
    return VTilde(L.HH * ch.r, L.pair(L.H, ch.c1), _exp_ch2(ch, ch.e, -L.pair(L.D, ch.c1), L.DD))


def tensor_by_K(ch: CharVec, L: SurfaceLattice) -> CharVec:
    """Character of E tensor the canonical bundle: multiply by exp(K)."""
    return _times_exp(ch, L.K, L.KK, L)


def derived_dual(ch: CharVec) -> CharVec:
    """Character of the shifted derived dual: (r, -c1, e)."""
    return CharVec(ch.r, -ch.c1, ch.e)


def euler_pairing(a: CharVec, b: CharVec, L: SurfaceLattice) -> Fraction:
    """Euler form chi(a, b) by Riemann-Roch on the surface."""
    K = L.K
    return (
        a.r * b.r * L.chiO
        - Fraction(1, 2) * (a.r * L.pair(K, b.c1) - b.r * L.pair(K, a.c1))
        + a.r * b.e
        + b.r * a.e
        - L.pair(a.c1, b.c1)
    )


def discriminant(v: VTilde) -> Fraction:
    """Bogomolov-type quantity v1^2 - 2 v0 v2; >= 0 for honest sheaf characters."""
    return v.v1 * v.v1 - 2 * v.v0 * v.v2
