"""Surface lattices and projected characters, read straight from the JSON.

The projection follows the definitions in the walland README: twist the
character (r, c1, e) by exp(-D), then take (H^2 r, H.c1', ch2').  Kept
apart from `walland.lattice` so that checks do not reuse the program.
"""

from __future__ import annotations

import json
from fractions import Fraction


class Surface:
    def __init__(self, name, doc):
        self.name = name
        self.gram = [[Fraction(x) for x in row] for row in doc["gram"]]
        self.rank = len(self.gram)
        self.H = [Fraction(x) for x in doc["H"]]
        self.D = [Fraction(x) for x in doc["D"]]
        self.K = [Fraction(x) for x in doc["K"]]

    @staticmethod
    def load(path, name):
        with open(path, "r", encoding="utf-8") as fh:
            return Surface(name, json.load(fh))

    def pair(self, a, b) -> Fraction:
        return sum(
            (a[i] * self.gram[i][j] * b[j] for i in range(self.rank) for j in range(self.rank)),
            Fraction(0),
        )

    def with_twist(self, D):
        other = Surface.__new__(Surface)
        other.__dict__.update(self.__dict__)
        other.D = list(D)
        return other

    def vtilde(self, r, c1, e):
        """(H^2 r, H.(c1 - r D), e - D.c1 + r D^2/2)."""
        r, e = Fraction(r), Fraction(e)
        c1 = [Fraction(c) for c in c1]
        tc1 = [c - r * d for c, d in zip(c1, self.D)]
        te = e - self.pair(self.D, c1) + r * self.pair(self.D, self.D) / 2
        return (self.pair(self.H, self.H) * r, self.pair(self.H, tc1), te)

    def tensor_K(self, r, c1, e):
        """Character of E tensor K: multiply by exp(K)."""
        r, e = Fraction(r), Fraction(e)
        c1 = [Fraction(c) for c in c1]
        return (
            r,
            [c + r * k for c, k in zip(c1, self.K)],
            e + self.pair(c1, self.K) + r * self.pair(self.K, self.K) / 2,
        )
