"""The four workloads: seeded inputs, one timed operation, and its check.

A workload builds its distinct inputs from the seed, and `repeats` says how
often each runs per round (the worker shuffles a round by the seed).  `run`
is the timed operation and calls the program only through module attributes
(`walls.enumerate_candidate_walls`, ...), so the traced run can wrap them.
`document` turns an output into the plain data that `check` verifies and
that every later execution must reproduce exactly.

The inputs depend on the seed as follows (README: "Input laws"):

* certify draws every input from the seed, with a fixed composition per
  round, so that runs of different seeds do equal work;
* destab-walk, wall-scan and hom-cohomology run a fixed corpus whose
  per-operation cost spans one to two orders of magnitude; the seed sets
  the order, and for wall-scan mirrors each input through the derived dual
  (s -> -s, v1 -> -v1), a symmetry of the enumeration box that keeps the
  work equal.  A seed-drawn set of the size one run can hold varies in cost
  between seeds by more than any useful bound.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import checks
from bruteforce import brute_walls
from surface import Surface

F = Fraction
WALK_BOUNDS = (3, 5)
SCAN_BOUNDS = (3, 5)


class Program:
    """The modules of the program under test, loaded once in set-up."""

    def __init__(self, root, surfaces):
        import walland.jsonio
        import walland.lattice
        import walland.stability
        import walland.traces
        import walland.walls

        self.walls = walland.walls
        self.traces = walland.traces
        self.jsonio = walland.jsonio
        self.lattice = walland.lattice
        self.stability = walland.stability
        self.errors = walland.errors
        # the program's lattices for the operations, our own for the checks
        self.lattices = {
            name: walland.lattice.SurfaceLattice.load(f"{root}/surfaces/{name}.json")
            for name in surfaces
        }
        self.own = {
            name: Surface.load(f"{root}/surfaces/{name}.json", name) for name in surfaces
        }


# ---------------------------------------------------------------------------
# destab-walk
# ---------------------------------------------------------------------------


def criterion2_law(prog, seed, count):
    """(v, P, Q) drawn as tests/test_acceptance.py draws its criterion-2 corpus."""
    st = prog.stability
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        while True:
            r, c = rng.randint(-3, 3), rng.randint(-5, 5)
            e = F(rng.randint(-8, 8)) + (F(1, 2) if c % 2 else 0)
            v = (F(r), F(c), e)
            if v != (0, 0, 0) and checks.disc(v) >= 0:
                break
        P, Q = _law_point(rng), _law_point(rng)
        if checks.charge(P[0], P[1], v) == (0, 0):
            continue
        try:
            prog.walls.phase_bound_interval(
                st.StabPoint(*P), st.StabPoint(*Q), prog.lattice.VTilde(*v)
            )
        except (prog.errors.DegenerateGeometryError, prog.errors.PreconditionError):
            continue  # the corpus skips undefined windows the same way
        out.append((v, P, Q))
    return out


def _law_point(rng):
    s = F(rng.randint(-12, 12), rng.randint(1, 8))
    return (s, s * s / 2 + F(rng.randint(1, 12), rng.randint(1, 8)))


class DestabWalk:
    name = "destab-walk"
    # The criterion-2 corpus (seed 1002) up to its instance 19, which alone
    # takes about 32 s: one operation longer than a run cannot be timed.
    CORPUS_SEED = 1002
    CORPUS_SIZE = 19
    # instances 3, 9 and 15 take 1.3-6.3 s; the others, under 0.5 s, run
    # three times per round so that each has a median of its own
    HEAVY = (3, 9, 15)

    def __init__(self, prog, seed):
        self.prog = prog
        self.L = prog.lattices["p2"]
        self.inputs = criterion2_law(prog, self.CORPUS_SEED, self.CORPUS_SIZE)
        self.repeats = [1 if k in self.HEAVY else 3 for k in range(self.CORPUS_SIZE)]

    def run(self, inp):
        v, P, Q = inp
        W, st = self.prog.walls, self.prog.stability
        Ps, Qs, vt = st.StabPoint(*P), st.StabPoint(*Q), self.prog.lattice.VTilde(*v)
        interval = W.phase_bound_interval(Ps, Qs, vt)
        root = W.simulate_destabilization_paths(Ps, Qs, vt, WALK_BOUNDS, self.L)
        return interval, root

    def document(self, inp, out):
        interval, root = out
        return {"interval": interval.to_dict(), "tree": root.to_dict()}

    def check(self, inp, doc, index):
        v, P, Q = inp
        return {"nodes": checks.check_walk(P, Q, v, doc["interval"], doc["tree"])}


# ---------------------------------------------------------------------------
# wall-scan
# ---------------------------------------------------------------------------


class WallScan:
    name = "wall-scan"
    surfaces = ("p2", "p1xp1_twisted")
    CORPUS_SEED = 2004
    # characters per surface and their law (rank, c1 coordinates, e offset);
    # each character is scanned over a segment and over its box
    PER_SURFACE = {"p2": (12, (3, 5, 8)), "p1xp1_twisted": (3, (3, 2, 4))}
    BRUTE_P2 = 4

    def __init__(self, prog, seed):
        self.prog = prog
        self.grids = {n: checks.WitnessGrid(prog.own[n], *SCAN_BOUNDS) for n in self.surfaces}
        rng = random.Random(self.CORPUS_SEED)
        corpus = []
        for name in self.surfaces:
            S = prog.own[name]
            count, law = self.PER_SURFACE[name]
            for _ in range(count):
                v = _scan_char(rng, S, *law)
                P, Q = _law_point(rng), _law_point(rng)
                corpus.append((name, v, ("segment", P, Q)))
                corpus.append((name, v, ("box",) + _box_around(P, Q)))
        pick = random.Random(seed)
        self.inputs = [_mirror(i) if pick.random() < 0.5 else i for i in corpus]
        # p2 scans (under 0.5 s) run twice per round, p1xp1_twisted once
        self.repeats = [2 if name == "p2" else 1 for name, _, _ in corpus]
        # brute force (about twice the scan) confirms completeness on both
        # scans of the first BRUTE_P2 p2 characters and of the last
        # p1xp1_twisted one
        self.brute = set(range(2 * self.BRUTE_P2)) | {len(corpus) - 2, len(corpus) - 1}

    def region(self, region):
        W, st = self.prog.walls, self.prog.stability
        if region[0] == "segment":
            return W.SegmentRegion(st.StabPoint(*region[1]), st.StabPoint(*region[2]))
        return W.BoxRegion(*region[1:])

    def run(self, inp):
        name, v, region = inp
        return self.prog.walls.enumerate_candidate_walls(
            self.prog.lattice.VTilde(*v), self.region(region), *SCAN_BOUNDS, self.prog.lattices[name]
        )

    def document(self, inp, out):
        return [cw.to_dict() for cw in out]

    def check(self, inp, doc, index):
        name, v, region = inp
        checks.check_scan(self.grids[name], v, region, doc)
        if index not in self.brute:
            return {}
        want = brute_walls(self.prog.own[name], v, region, *SCAN_BOUNDS)
        checks.require(checks.scan_as_set(doc) == want, "scan differs from brute force")
        return {"brute_checked": 1}


def _scan_char(rng, S, rank_max, c1_max, e_max):
    """Integral character with discriminant >= 0."""
    while True:
        r = rng.randint(-rank_max, rank_max)
        c1 = [F(rng.randint(-c1_max, c1_max)) for _ in range(S.rank)]
        e = S.pair(c1, c1) / 2 + rng.randint(-e_max, e_max)
        v = S.vtilde(r, c1, e)
        if v != (0, 0, 0) and checks.disc(v) >= 0:
            return v


def _box_around(P, Q):
    """Bounding box of the segment in s, raised strictly above the parabola."""
    s_lo, s_hi = min(P[0], Q[0]), max(P[0], Q[0])
    q_lo = max(s_lo * s_lo, s_hi * s_hi) / 2 + F(1, 4)
    return (s_lo, s_hi, q_lo, q_lo + abs(P[1] - Q[1]) + 1)


def _mirror(inp):
    """Derived-dual mirror: v1 -> -v1 and s -> -s."""
    name, v, region = inp
    v = (v[0], -v[1], v[2])
    if region[0] == "segment":
        P, Q = region[1], region[2]
        return (name, v, ("segment", (-P[0], P[1]), (-Q[0], Q[1])))
    _, s_lo, s_hi, q_lo, q_hi = region
    return (name, v, ("box", -s_hi, -s_lo, q_lo, q_hi))


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


class Certify:
    name = "certify"
    surfaces = ("p2", "p1xp1_twisted")
    # per surface and block: left of v's point, right of it (dual branch),
    # on its vertical (nearby branch), and one skyscraper (chord failure)
    BLOCK = (("left", 10), ("right", 10), ("aligned", 2), ("skyscraper", 1))
    BLOCKS = 24

    def __init__(self, prog, seed):
        self.prog = prog
        rng = random.Random(seed)
        self.inputs = []
        for _ in range(self.BLOCKS):
            for name in self.surfaces:
                for kind, count in self.BLOCK:
                    for _ in range(count):
                        self.inputs.append(_cert_input(rng, prog.own[name], kind))
        self.repeats = [1] * len(self.inputs)

    def run(self, inp):
        name, P, ch = inp
        p = self.prog
        L = p.lattices[name]
        c = p.lattice.CharVec.make(ch[0], ch[1], ch[2])
        try:
            cert = p.walls.ext2_vanishing_certificate(
                p.stability.StabPoint(*P), p.lattice.vtilde(c, L), c, L
            )
        except p.errors.CertificateFailure as exc:
            return p.jsonio.dumps_canonical(
                {"error": "CertificateFailure", "message": str(exc), "payload": exc.payload}
            )
        return p.jsonio.dumps_canonical({"certificate": cert.to_dict()})

    def document(self, inp, out):
        return out

    def check(self, inp, doc, index):
        name, P, ch = inp
        path = checks.check_certificate_doc(self.prog.own[name], P, ch, json.loads(doc))
        return {"branch:" + path: 1}


def _cert_input(rng, S, kind):
    while True:
        if kind == "skyscraper":
            a = rng.randint(-2, 2)
            c1 = [F(0)] * S.rank
            if S.rank == 2:
                c1 = [F(a), F(-a)]  # H.c1 = 0 on the quadric
            r = 0
            e = S.pair(c1, c1) / 2 + rng.randint(1, 6)
        else:
            r = rng.randint(-3, 3)
            c1 = [F(rng.randint(-4, 4)) for _ in range(S.rank)]
            e = S.pair(c1, c1) / 2 + rng.randint(-8, 8)
        v = S.vtilde(r, c1, e)
        if v == (0, 0, 0) or checks.disc(v) < 0:
            continue
        if kind == "skyscraper" and (v[0], v[1]) != (0, 0):
            continue
        if kind != "skyscraper" and (v[0], v[1]) == (0, 0):
            continue
        if kind == "aligned":
            if v[0] >= 0:
                continue  # Z on the real axis needs Re Z < 0, so v0 < 0
            s = v[1] / v[0]
            q = max(s * s / 2, v[2] / v[0]) + F(rng.randint(1, 8), rng.randint(1, 4))
        else:
            s = F(rng.randint(-16, 16), rng.randint(1, 4))
            if v[0] != 0 and kind != "skyscraper":
                side = s - v[1] / v[0]
                if side == 0 or (side < 0) != (kind == "left"):
                    continue
            elif kind == "right":
                continue  # rank zero always takes the left branch
            q = s * s / 2 + F(rng.randint(1, 16), rng.randint(1, 4))
        re, im = checks.charge(s, q, v)
        if im > 0 or (im == 0 and re < 0):
            return (S.name, (s, q), (r, c1, e))


# ---------------------------------------------------------------------------
# hom-cohomology
# ---------------------------------------------------------------------------


class HomCohomology:
    name = "hom-cohomology"
    # (term dimensions, ranks of the differentials) of the complexes of one
    # round, each drawn COPIES times at CORPUS_SEED.
    # Criterion 1 stops at length 5 and dimension 4.
    SHAPES = (
        ((2, 3), (1,)), ((3, 1, 2), (1, 0)), ((1, 2, 2, 1), (1, 1, 1)),
        ((2, 2, 2), (1, 1)), ((3, 3), (2,)), ((4, 2, 3), (2, 0)),
        ((2, 4, 4, 2), (2, 2, 1)), ((3, 2, 1, 2), (1, 1, 0)),
        ((1, 3, 3, 3, 1), (1, 2, 1, 1)), ((4, 4), (3,)),
        ((2, 3, 3, 2, 2), (1, 2, 1, 1)), ((5, 4, 3), (3, 1)),
        ((3, 5, 3), (2, 3)), ((2, 2, 2, 2, 2), (1, 1, 1, 1)), ((4, 3, 4), (2, 1)),
    )
    COPIES = 3
    CORPUS_SEED = 3003
    PAIRS = 3  # classes per degree fed to the pairing

    def __init__(self, prog, seed):
        self.prog = prog
        rng = random.Random(self.CORPUS_SEED)
        T = prog.traces
        self.inputs = []
        for dims, ranks in self.SHAPES * self.COPIES:
            diffs = _random_complex(rng, dims, ranks)
            C = T.MatrixComplex(dims, [T.Mat(dims[i + 1], dims[i], d) for i, d in enumerate(diffs)])
            self.inputs.append((dims, diffs, C))
        self.repeats = [1] * len(self.inputs)

    def run(self, inp):
        dims, _, C = inp
        T = self.prog.traces
        n = len(dims)
        groups = {}
        for d in range(-(n - 1), n):
            if sum(dims[i] * dims[i + d] for i in range(n) if 0 <= i + d < n):
                groups[d] = T.cohomology(C, C, d)
        pairings = []
        ones = groups.get(1).reps[: self.PAIRS] if 1 in groups else []
        minus = groups.get(-1).reps[: self.PAIRS] if -1 in groups else []
        for i, a in enumerate(ones):
            str_a = T.supertrace(a)
            for j, b in enumerate(minus):
                pairings.append((1, i, -1, j, T.theta_pairing(a, b), T.theta_pairing(b, a), str_a))
            for j, b in enumerate(ones):
                pairings.append((1, i, 1, j, T.theta_pairing(a, b), T.theta_pairing(b, a), str_a))
        return groups, pairings

    def document(self, inp, out):
        groups, pairings = out
        doc = {
            d: (g.dim, g.ker_dim, g.im_dim, [{i: [list(r) for r in m.data] for i, m in f.comps.items()} for f in g.reps])
            for d, g in groups.items()
        }
        return doc, pairings

    def check(self, inp, doc, index):
        dims, diffs, _ = inp
        groups, pairings = doc
        checks.check_hom(list(dims), diffs, groups, pairings)
        return {"hom_dim": sum(_hom_dim(dims, d) for d in groups)}


def _hom_dim(dims, d):
    n = len(dims)
    return sum(dims[i] * dims[i + d] for i in range(n) if 0 <= i + d < n)


def _random_complex(rng, dims, ranks):
    """Differentials of a random complex with the given ranks, as lists of rows.

    In an adapted basis term i splits as B (image of d^(i-1)) + H + C, and
    d^i maps C invertibly onto the next B; random unimodular changes of
    basis then hide the splitting.
    """
    n = len(dims)
    for i, r in enumerate(ranks):
        if r > dims[i + 1] or r + (ranks[i - 1] if i else 0) > dims[i]:
            raise ValueError(f"ranks {ranks} do not fit dimensions {dims}")
    bases = [_unimodular(rng, d) for d in dims]
    diffs = []
    for i in range(n - 1):
        r = ranks[i]
        m = [[F(0)] * dims[i] for _ in range(dims[i + 1])]
        block = _invertible(rng, r)
        for a in range(r):
            for b in range(r):
                # columns of the C block sit last in term i, rows of B first in term i+1
                m[a][dims[i] - r + b] = block[a][b]
        U, _ = bases[i + 1]
        _, Vinv = bases[i]
        diffs.append(_matmul(_matmul(U, m), Vinv))
    return diffs


def _matmul(a, b):
    inner = len(b)
    ncols = len(b[0]) if b else 0
    return [[sum((row[k] * b[k][j] for k in range(inner)), F(0)) for j in range(ncols)] for row in a]


def _identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def _unimodular(rng, n):
    """Dense integral matrix of determinant 1, and its inverse.

    A unit lower times a unit upper triangular matrix with every off-diagonal
    entry +-1, so that every term is mixed with every other.
    """
    lower = [[F(rng.choice((-1, 1))) if j < i else F(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[F(rng.choice((-1, 1))) if j > i else F(int(i == j)) for j in range(n)] for i in range(n)]
    return _matmul(lower, upper), _matmul(_unit_inverse(upper, upper=True), _unit_inverse(lower, upper=False))


def _unit_inverse(m, upper):
    """Inverse of a unit triangular matrix by substitution."""
    n = len(m)
    inv = _identity(n)
    order = range(n - 1, -1, -1) if upper else range(n)
    for col in range(n):
        for i in order:
            others = range(i + 1, n) if upper else range(i)
            inv[i][col] = F(int(i == col)) - sum((m[i][k] * inv[k][col] for k in others), F(0))
    return inv


def _invertible(rng, r):
    """Unit lower times upper triangular: integral with determinant +-1."""
    lower = [[F(rng.choice((-1, 1))) if j < i else F(int(i == j)) for j in range(r)] for i in range(r)]
    upper = [[F(rng.choice((-1, 1))) if j > i else F(rng.choice((-1, 1)) if i == j else 0) for j in range(r)] for i in range(r)]
    return _matmul(lower, upper)


WORKLOADS = {w.name: w for w in (DestabWalk, WallScan, Certify, HomCohomology)}
