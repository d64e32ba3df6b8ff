"""The canonical JSON writer against json.dumps(sort_keys=True, indent=2)."""

import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from walland import QuadNum, SchemaError, cli
from walland.jsonio import dumps_canonical, quad_to_json

SURFACES = Path(__file__).resolve().parent.parent / "surfaces"
P2 = str(SURFACES / "p2.json")


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# every command, its error documents included: exit 2, 3 and 4
COMMANDS = {
    "charge": ["charge", "--surface", P2, "--char", "1,0,0", "--s=-1", "--q=1"],
    "charge-kernel": ["charge", "--surface", P2, "--char", "1,-1,1", "--s=-1", "--q=1"],
    "dim": ["dim", "--surface", P2, "--char", "1,0,-2"],
    "ext2": ["ext2", "--surface", P2, "--char", "1,0,0", "--s=-1", "--q=1"],
    "ext2-dual": ["ext2", "--surface", P2, "--char=-1,-3,-2", "--s=4", "--q=9"],
    "ext2-exit-4": ["ext2", "--surface", P2, "--char", "0,0,1", "--s=-1", "--q=1"],
    "phase-bounds": [
        "phase-bounds", "--surface", P2, "--char", "1,-1,-1",
        "--s=0", "--q=1", "--s2=1", "--q2=2",
    ],
    "walls": [
        "walls", "--surface", str(SURFACES / "p1xp1_twisted.json"), "--char", "2,1,0,-3",
        "--box=-2,1,3,6", "--rank-bound", "2", "--c1-bound", "2",
    ],
    "simulate": [
        "simulate", "--surface", P2, "--char", "1,0,-1",
        "--s=-7/4", "--q=7/4", "--s2=-5/4", "--q2=13/16",
        "--rank-bound", "3", "--c1-bound", "5",
    ],
    "supertrace-fuzz": ["supertrace-fuzz", "--n", "20", "--seed", "3"],
    "error-exit-2": ["dim", "--surface", P2, "--char", "1,0"],
    "error-exit-3": ["charge", "--surface", P2, "--char", "1,0,0", "--s=0", "--q=0"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_writer_matches_json_dumps_on_cli_documents(name, capsys, monkeypatch):
    seen = []

    def recording(obj):
        seen.append(obj)
        return dumps_canonical(obj)

    monkeypatch.setattr(cli, "dumps_canonical", recording)
    code = cli.main(COMMANDS[name])
    out = capsys.readouterr().out
    assert code == {"error-exit-2": 2, "error-exit-3": 3, "ext2-exit-4": 4}.get(name, 0)
    assert len(seen) == 1 and seen[0]
    assert out == dumps_canonical(seen[0]) == reference(seen[0])


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**4299), max_value=10**4299)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))
)
trees = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(trees)
@example([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1])
@example({"": {}, "\x00é☃\U0001f600": [[], {}, [[]]], "b": None, "a": [True, False]})
@example(10**4299)
def test_writer_matches_json_dumps_on_generated_trees(obj):
    assert dumps_canonical(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [{1: "a"}, {"a": 0, 2: 0}, {None: 0}, {"a": {(1, 2): 0}}, (1, 2), [{1, 2}], b"x", 1 + 0j],
)
def test_writer_refuses_what_the_program_never_emits(obj):
    with pytest.raises(TypeError):
        dumps_canonical(obj)


def test_over_limit_int_exits_3_through_main(capsys, monkeypatch):
    # int.__repr__ refuses past the print limit with the ValueError whose
    # text main turns into exit 3, in the writer as in json.dumps
    with pytest.raises(ValueError, match="integer string conversion"):
        dumps_canonical({"n": 10**4300})
    monkeypatch.setattr(cli, "_cmd_dim", lambda args: dumps_canonical({"n": 10**4300}))
    code = cli.main(["dim", "--surface", P2, "--char", "1,0,0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["error"] == "PreconditionError" and "print limit" in doc["message"]


@pytest.mark.parametrize("x", [0, -7, F(3, 4), F(-10**30, 7), "1/2"])
def test_quad_to_json_writes_rationals_as_quadnums(x):
    # a rational is written as the QuadNum a + 0*sqrt(0) without building one
    assert quad_to_json(x) == quad_to_json(QuadNum(x)) == {"a": str(x), "b": "0", "delta": "0"}


@pytest.mark.parametrize("x", [0.5, True, None])
def test_quad_to_json_refuses_what_quadnum_refuses(x):
    with pytest.raises(SchemaError) as want:
        QuadNum(x)
    with pytest.raises(SchemaError) as got:
        quad_to_json(x)
    assert str(got.value) == str(want.value)
