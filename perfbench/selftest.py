"""Tests of the benchmark's own checkers and brute-force enumerator.

    python3 perfbench/selftest.py

Each checker must accept the program's real output and reject a
deliberately corrupted copy of it.  Run from the root of a source checkout.
"""

import copy
import json
import os
import random
import sys
import unittest
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import exact  # noqa: E402
import workloads  # noqa: E402
from bruteforce import brute_walls  # noqa: E402

PROG = workloads.Program(ROOT, ("p2", "p1xp1_twisted"))


def _docs(wl, limit=None):
    for i, inp in enumerate(wl.inputs[:limit]):
        yield i, inp, wl.document(inp, wl.run(inp))


class LiftedPhaseOrder(unittest.TestCase):
    def test_half_turns_order_values(self):
        up, left, down = (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))
        # values 1/2, 1, -1/2, 3/2
        self.assertEqual(exact.lift_cmp((0, up), (0, left)), -1)
        self.assertEqual(exact.lift_cmp((0, down), (0, up)), -1)
        self.assertEqual(exact.lift_cmp((2, down), (0, left)), 1)
        self.assertEqual(exact.lift_cmp((1, up), (0, left)), 1)
        self.assertEqual(exact.lift_cmp((0, (F(2), F(0))), (0, (F(1), F(0)))), 0)

    def test_quad_sign(self):
        self.assertEqual(exact.Quad(3, -2, 2).sign(), 1)  # 3 - 2.83
        self.assertEqual(exact.Quad(-3, 2, 3).sign(), 1)  # -3 + 3.46
        self.assertEqual(exact.Quad(2, -1, 4).sign(), 0)


class WalkChecker(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        wl = workloads.DestabWalk.__new__(workloads.DestabWalk)
        wl.prog = PROG
        wl.L = PROG.lattices["p2"]
        wl.inputs = workloads.criterion2_law(PROG, 1002, 3)
        cls.cases = [(inp, doc) for _, inp, doc in _docs(wl) if doc["tree"]["events"]]

    def test_accepts_program_output(self):
        self.assertTrue(self.cases)
        for (v, P, Q), doc in self.cases:
            self.assertGreater(checks.check_walk(P, Q, v, doc["interval"], doc["tree"]), 1)

    def test_rejects_leaf_lift_moved_half_turn(self):
        (v, P, Q), doc = self.cases[0]
        bad = copy.deepcopy(doc)
        child = bad["tree"]["events"][0]["splits"][0]["w_node"]
        child["leaf_lift"]["n"] += 1
        with self.assertRaises(exact.CheckFailed):
            checks.check_walk(P, Q, v, bad["interval"], bad["tree"])

    def test_rejects_split_that_does_not_add_up(self):
        (v, P, Q), doc = self.cases[0]
        bad = copy.deepcopy(doc)
        split = bad["tree"]["events"][0]["splits"][0]
        split["u"][2] = str(F(split["u"][2]) + 1)
        with self.assertRaises(exact.CheckFailed):
            checks.check_walk(P, Q, v, bad["interval"], bad["tree"])


class ScanChecker(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        S = PROG.own["p2"]
        cls.grid = checks.WitnessGrid(S, 2, 3)
        cls.v = (F(1), F(-2), F(1))
        P, Q = (F(-5, 2), F(4)), (F(1, 2), F(3, 2))
        cls.region = ("segment", P, Q)
        L = PROG.lattices["p2"]
        st = PROG.stability
        out = PROG.walls.enumerate_candidate_walls(
            PROG.lattice.VTilde(*cls.v),
            PROG.walls.SegmentRegion(st.StabPoint(*P), st.StabPoint(*Q)), 2, 3, L,
        )
        cls.doc = [cw.to_dict() for cw in out]

    def test_accepts_program_output_and_matches_brute_force(self):
        self.assertTrue(self.doc)
        checks.check_scan(self.grid, self.v, self.region, self.doc)
        want = brute_walls(PROG.own["p2"], self.v, self.region, 2, 3)
        self.assertEqual(checks.scan_as_set(self.doc), want)

    def test_rejects_moved_witness(self):
        bad = copy.deepcopy(self.doc)
        # off its wall: shift ch2 on a wall that is not vertical
        cw = next(cw for cw in bad if int(cw["wall"][2]) != 0)
        w = cw["witnesses"][0]
        w[2] = str(F(w[2]) + 1)
        with self.assertRaises(exact.CheckFailed):
            checks.check_scan(self.grid, self.v, self.region, bad)
        self.assertNotEqual(checks.scan_as_set(bad), checks.scan_as_set(self.doc))

    def test_brute_force_sees_a_dropped_wall(self):
        bad = copy.deepcopy(self.doc)[1:]
        want = brute_walls(PROG.own["p2"], self.v, self.region, 2, 3)
        self.assertNotEqual(checks.scan_as_set(bad), want)


class CertificateChecker(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        wl = workloads.Certify(PROG, 11)
        cls.by_branch = {}
        for _, inp, doc in _docs(wl, 400):
            path = checks.check_certificate_doc(PROG.own[inp[0]], inp[1], inp[2], json.loads(doc))
            cls.by_branch.setdefault(path, (inp, json.loads(doc)))

    def test_all_four_branches_and_the_failure_occur(self):
        seen = " ".join(self.by_branch)
        for name in ("SegmentsIntersect", "PhaseDominance", "DualReduction", "NearbyStability",
                     "Failure:chord degenerates"):
            self.assertIn(name, seen)

    def _reject(self, path, corrupt):
        (name, P, ch), doc = self.by_branch[path]
        bad = copy.deepcopy(doc)
        corrupt(bad)
        with self.assertRaises(exact.CheckFailed):
            checks.check_certificate_doc(PROG.own[name], P, ch, bad)

    def test_rejects_shifted_R(self):
        def shift(doc):
            R = doc["certificate"]["data"]["R"]
            R["s"] = str(F(R["s"]) + F(1, 7))

        self._reject("SegmentsIntersect", shift)

    def test_rejects_wrong_mirror(self):
        def unmirror(doc):
            data = doc["certificate"]["data"]
            data["P_mirror"]["s"] = str(F(data["P_mirror"]["s"]) + 1)

        path = next(p for p in self.by_branch if p.startswith("DualReduction"))
        self._reject(path, unmirror)

    def test_rejects_unconfirmed_failure(self):
        def relabel(doc):
            doc["message"] = "chords touch only on the parabola"

        self._reject("Failure:chord degenerates", relabel)


class HomChecker(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        wl = workloads.HomCohomology.__new__(workloads.HomCohomology)
        wl.prog = PROG
        T = PROG.traces
        rng = random.Random(5)
        dims = (2, 3, 2)
        diffs = workloads._random_complex(rng, dims, (1, 1))
        C = T.MatrixComplex(dims, [T.Mat(dims[i + 1], dims[i], d) for i, d in enumerate(diffs)])
        cls.inp = (dims, diffs, C)
        cls.doc = wl.document(cls.inp, wl.run(cls.inp))

    def test_accepts_program_output(self):
        dims, diffs, _ = self.inp
        checks.check_hom(list(dims), diffs, *self.doc)

    def test_rejects_dimension_off_by_one(self):
        dims, diffs, _ = self.inp
        groups, pairings = copy.deepcopy(self.doc)
        d = next(iter(groups))
        dim, ker, im, reps = groups[d]
        groups[d] = (dim + 1, ker + 1, im, reps)
        with self.assertRaises(exact.CheckFailed):
            checks.check_hom(list(dims), diffs, groups, pairings)

    def test_formality_count(self):
        # C = k -> k (iso) + k in degree 1: h = (0, 1), Hom cohomology only in degree 0
        self.assertEqual(checks.complex_cohomology([1, 2], [[[F(1)], [F(0)]]]), [0, 1])
        self.assertEqual(checks.hom_cohomology_dims([0, 1]), {-1: 0, 0: 1, 1: 0})


if __name__ == "__main__":
    unittest.main()
