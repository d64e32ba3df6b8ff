"""The contract of the value classes: equality, hash, frozenness, repr.

Fifteen small classes carry the package's values.  Each compares equal
only to an instance of its own class with equal fields; the ten frozen
ones refuse assignment and hash as the tuple of their fields, the five
others are unhashable.  The repr strings are pinned as
``Class(field=..., ...)``, apart from the two plane classes' own forms.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from walland import (
    CandidateWall,
    CharVec,
    DivisorClass,
    EnumerationBounds,
    Ext2Certificate,
    LiftedPhase,
    PathEvent,
    PathNode,
    PhaseInterval,
    PhaseValue,
    PlaneLine,
    PlanePoint,
    PreconditionError,
    QuadNum,
    StabPoint,
    SurfaceLattice,
    VTilde,
)
from walland.walls import SplitPair

from conftest import SURFACE_DIR
from test_reference_walls import ODD_SCALE

F = Fraction

P_REPR = "StabPoint(s=Fraction(-1, 2), q=Fraction(3, 1))"
V_REPR = "VTilde(v0=Fraction(1, 1), v1=Fraction(0, 1), v2=Fraction(-1, 2))"
LIFT_REPR = "LiftedPhase(n=0, ray=(1, 1), ~0.2500)"
NODE_REPR = (
    f"PathNode(char={V_REPR}, t_start=Fraction(0, 1), entry_lift={LIFT_REPR}, "
    f"leaf_lift={LIFT_REPR}, events=[])"
)
SPLIT_REPR = f"SplitPair(w={V_REPR}, u={V_REPR}, w_node={NODE_REPR}, u_node={NODE_REPR})"
LINE_REPR = "Line(1 + -2x + 3y = 0)"


def _values():
    """(class, fields by name in order, frozen, repr) per value class."""
    lat = SurfaceLattice.load(str(SURFACE_DIR / "p2.json"))
    P = StabPoint(s=F(-1, 2), q=F(3))
    v = VTilde(v0=F(1), v1=F(0), v2=F(-1, 2))
    line = PlaneLine(coeffs=(1, -2, 3))
    lift = LiftedPhase(0, (1, 1))
    node = PathNode(char=v, t_start=F(0), entry_lift=lift, leaf_lift=lift, events=[])
    split = SplitPair(w=v, u=v, w_node=node, u_node=node)
    ends = (QuadNum(1), QuadNum(F(1, 2)))
    lattice = dict(basis=lat.basis, gram=lat.gram, H=lat.H, D=lat.D, K=lat.K, chiO=lat.chiO)
    window = dict(
        lo=lift, hi=lift, labels={"lo": "A", "hi": "B"}, Q=P, A=ends, B=ends,
        chord=line, anchor=lift, degenerate_endpoint="A",
    )
    return [
        (PlanePoint, dict(h=(1, 2, 3)), True, "[1:2:3]"),
        (PlaneLine, dict(coeffs=(1, -2, 3)), True, LINE_REPR),
        (StabPoint, dict(s=F(-1, 2), q=F(3)), True, P_REPR),
        (
            PhaseValue,
            dict(exact_ray=(1, 2), approx=0.25),
            True,
            "PhaseValue(exact_ray=(1, 2), approx=0.25)",
        ),
        (
            DivisorClass,
            dict(coords=(F(1), F(-2))),
            True,
            "DivisorClass(coords=(Fraction(1, 1), Fraction(-2, 1)))",
        ),
        (
            SurfaceLattice,
            lattice,
            True,
            "SurfaceLattice(basis=('h',), gram=((Fraction(1, 1),),), "
            "H=DivisorClass(coords=(Fraction(1, 1),)), "
            "D=DivisorClass(coords=(Fraction(0, 1),)), "
            "K=DivisorClass(coords=(Fraction(-3, 1),)), chiO=Fraction(1, 1))",
        ),
        (
            CharVec,
            dict(r=F(1), c1=DivisorClass((F(2),)), e=F(1, 2)),
            True,
            "CharVec(r=Fraction(1, 1), c1=DivisorClass(coords=(Fraction(2, 1),)), "
            "e=Fraction(1, 2))",
        ),
        (VTilde, dict(v0=F(1), v1=F(0), v2=F(-1, 2)), True, V_REPR),
        (
            EnumerationBounds,
            dict(rank_bound=2, c1_bound=3),
            True,
            "EnumerationBounds(rank_bound=2, c1_bound=3)",
        ),
        (
            CandidateWall,
            dict(wall=line, witnesses=(v,), crossing=F(1, 3)),
            True,
            f"CandidateWall(wall={LINE_REPR}, witnesses=({V_REPR},), crossing=Fraction(1, 3))",
        ),
        (
            PhaseInterval,
            window,
            False,
            f"PhaseInterval(lo={LIFT_REPR}, hi={LIFT_REPR}, labels={{'lo': 'A', 'hi': 'B'}}, "
            f"Q={P_REPR}, A=(QuadNum(1), QuadNum(1/2)), B=(QuadNum(1), QuadNum(1/2)), "
            f"chord={LINE_REPR}, anchor={LIFT_REPR}, degenerate_endpoint='A')",
        ),
        (SplitPair, dict(w=v, u=v, w_node=node, u_node=node), False, SPLIT_REPR),
        (
            PathEvent,
            dict(t=F(1, 2), R=P, wall=line, splits=[split]),
            False,
            f"PathEvent(t=Fraction(1, 2), R={P_REPR}, wall={LINE_REPR}, splits=[{SPLIT_REPR}])",
        ),
        (
            PathNode,
            dict(char=v, t_start=F(0), entry_lift=lift, leaf_lift=lift, events=[]),
            False,
            NODE_REPR,
        ),
        (
            Ext2Certificate,
            dict(branch="NearbyStability", data={"a": 1}, inner=Ext2Certificate("X", {})),
            False,
            "Ext2Certificate(branch='NearbyStability', data={'a': 1}, "
            "inner=Ext2Certificate(branch='X', data={}, inner=None))",
        ),
    ]


VALUES = _values()
IDS = [cls.__name__ for cls, *_ in VALUES]


def test_fifteen_value_classes():
    assert len(set(IDS)) == 15
    assert sum(frozen for _, _, frozen, _ in VALUES) == 10


@pytest.mark.parametrize("cls, fields, frozen, want", VALUES, ids=IDS)
def test_repr_is_pinned(cls, fields, frozen, want):
    assert repr(cls(**fields)) == want


@pytest.mark.parametrize("cls, fields, frozen, want", VALUES, ids=IDS)
def test_equality_is_same_class_then_fields(cls, fields, frozen, want):
    x, twin = cls(**fields), cls(*fields.values())
    assert twin == x and not (twin != x)

    class Sub(cls):
        __slots__ = ()

    other = Sub(**fields)
    assert other != x and x != other and not (x == other)
    assert x != tuple(fields.values())


def test_equality_reads_every_field():
    v = VTilde.make(1, 0, "-1/2")
    assert v != VTilde.make(1, 0, 0) and v != VTilde.make(0, 0, "-1/2")
    cert = Ext2Certificate("PhaseDominance", {})
    assert cert != Ext2Certificate("PhaseDominance", {}, cert)
    assert cert != Ext2Certificate("PhaseDominance", {"a": 1})


@pytest.mark.parametrize("cls, fields, frozen, want", VALUES, ids=IDS)
def test_frozen_classes_hash_their_fields_and_refuse_assignment(cls, fields, frozen, want):
    x = cls(**fields)
    first = next(iter(fields))
    if frozen:
        assert hash(x) == hash(tuple(fields.values()))
        for name in (first, "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, first)
        assert x == cls(**fields)
    else:
        with pytest.raises(TypeError):
            hash(x)
        setattr(x, first, "changed")
        assert getattr(x, first) == "changed" and x != cls(**fields)


@pytest.mark.parametrize("cls, fields, frozen, want", VALUES, ids=IDS)
def test_positional_patterns_read_the_fields(cls, fields, frozen, want):
    assert cls.__match_args__ == tuple(fields)


@pytest.mark.parametrize("cls, fields, frozen, want", VALUES, ids=IDS)
def test_copies_and_pickles_are_equal(cls, fields, frozen, want):
    x = cls(**fields)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is cls and y == x


def test_keyword_construction_and_defaults():
    line = PlaneLine((0, 1, 1))
    v = VTilde.make(1, 0, 0)
    assert CandidateWall(wall=line, witnesses=(v,)).crossing is None
    assert CandidateWall(line, (v,)) == CandidateWall(wall=line, witnesses=(v,), crossing=None)
    lift = LiftedPhase(1, (0, 1))
    P = StabPoint.make(0, 1)
    window = PhaseInterval(
        lo=lift, hi=lift, labels={}, Q=P, A=(1, 1), B=(1, 1), chord=line, anchor=lift
    )
    assert window.degenerate_endpoint is None
    assert Ext2Certificate(branch="PhaseDominance", data={}).inner is None
    match StabPoint.make(0, 1):
        case StabPoint(s, q):
            assert (s, q) == (0, 1)
        case _:
            pytest.fail("a StabPoint matches StabPoint(s, q)")
    for bad in (
        lambda: StabPoint(s=F(0), q=F(0)),
        lambda: EnumerationBounds(rank_bound=1.0, c1_bound=1),
        lambda: EnumerationBounds(rank_bound=1, c1_bound=-1),
    ):
        with pytest.raises(PreconditionError):
            bad()
    with pytest.raises(TypeError):
        VTilde(v0=F(1), v1=F(0))


def test_lattice_identity_ignores_derived_fields(p2):
    fresh = SurfaceLattice.load(str(SURFACE_DIR / "p2.json"))
    fresh.scan_constants(2)
    assert fresh._scan is not None
    assert fresh == p2 and hash(fresh) == hash(p2) and repr(fresh) == repr(p2)
    for name in ("HH", "HK", "KK", "DD", "DK", "_gram", "_scan"):
        assert f"{name}=" not in repr(fresh)


def test_mirrored_negates_D_and_DK_and_resets_scan():
    # D.K is 0 on the shipped surfaces, -1/3 on the blow-up with D in thirds
    for L in (
        SurfaceLattice.load(str(SURFACE_DIR / "p1xp1_twisted.json")),
        SurfaceLattice.from_dict(ODD_SCALE["blowup-D-thirds"]),
    ):
        L.scan_constants(1)
        before = (L.D, L.DK, L._scan, repr(L))
        m = L.mirrored()
        assert type(m) is SurfaceLattice
        assert m.D == -L.D and m.DK == -L.DK and m._scan is None and L.D != m.D
        assert (m.HH, m.HK, m.KK, m.DD, m._gram) == (L.HH, L.HK, L.KK, L.DD, L._gram)
        assert (m.basis, m.gram, m.H, m.K, m.chiO) == (L.basis, L.gram, L.H, L.K, L.chiO)
        assert (L.D, L.DK, L._scan, repr(L)) == before
        assert m.mirrored() == L


def test_import_needs_no_dataclasses_machinery():
    # every CLI process pays for its imports: the value classes are written
    # by hand, so neither dataclasses nor inspect (which it imports) loads
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, walland.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
