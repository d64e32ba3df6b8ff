"""Source invariants, checked on the syntax trees of src/walland."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "walland"


def _nodes():
    """(file name, enclosing function name or None, node) over the package."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        stack = [(tree, None)]
        while stack:
            node, func = stack.pop()
            yield path.name, func, node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            stack.extend((child, func) for child in ast.iter_child_nodes(node))


def test_no_assert_statements():
    # invariants are raised errors: python -O strips assert statements
    found = [
        f"{name}:{node.lineno}"
        for name, _, node in _nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_one_rational_coercion():
    defs = [
        (name, node.name)
        for name, _, node in _nodes()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert [d for d in defs if d[1] in ("_frac", "_charge")] == []
    assert [d for d in defs if d[1] == "parse_frac"] == [("plane.py", "parse_frac")]


def _writes_re_z(node) -> bool:
    # -x.v2 + <expr>
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and isinstance(node.left, ast.UnaryOp)
        and isinstance(node.left.op, ast.USub)
        and isinstance(node.left.operand, ast.Attribute)
        and node.left.operand.attr == "v2"
    )


def _writes_im_z(node) -> bool:
    # x.v1 - <expr> * x.v0
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.left, ast.Attribute)
        and node.left.attr == "v1"
        and isinstance(node.right, ast.BinOp)
        and isinstance(node.right.op, ast.Mult)
        and isinstance(node.right.right, ast.Attribute)
        and node.right.right.attr == "v0"
    )


def test_one_central_charge_formula():
    # Re Z = -v2 + q*v0 and Im Z = v1 - s*v0 are written out only in central_charge
    sites = sorted(
        (name, func, part)
        for name, func, node in _nodes()
        for part, writes in (("re", _writes_re_z), ("im", _writes_im_z))
        if writes(node)
    )
    assert sites == [
        ("stability.py", "central_charge", "im"),
        ("stability.py", "central_charge", "re"),
    ]


def _callee(node) -> str:
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
        return f"{f.value.id}.{f.attr}"
    return ""


def test_floats_only_in_display_code():
    # no float ever decides anything: floats are made only to be shown
    made = {"float", "round", "math.sqrt", "math.atan2", "sqrt", "atan2"}
    sites = sorted(
        {
            (name, func)
            for name, func, node in _nodes()
            if isinstance(node, ast.Call) and _callee(node) in made
        }
    )
    assert [s for s in sites if s[0] != "svgfig.py"] == [
        ("cli.py", "_cmd_charge"),  # the phase shown beside the exact ray
        ("plane.py", "approx"),  # QuadNum.approx
        ("stability.py", "theta_approx"),
        ("stability.py", "to_dict"),  # LiftedPhase and PhaseValue round approx
    ]


def test_one_hom_differential_formula():
    # D is written out from the complexes' differentials only in
    # traces._d_columns; hom_differential sums the columns it returns
    diff_calls = sorted(
        {
            (name, func)
            for name, func, node in _nodes()
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "diff"
        }
    )
    assert diff_calls == [("traces.py", "_d_columns")]
    d_columns_callers = {
        (name, func)
        for name, func, node in _nodes()
        if isinstance(node, ast.Call) and _callee(node) == "_d_columns"
    }
    assert ("traces.py", "hom_differential") in d_columns_callers


def test_one_integer_wall_decision():
    # enumerate_candidate_walls decides witnesses in ints at the points of
    # walls._meet; wall_clip only turns those points into Fractions
    calls = {
        (func, node.func.attr if isinstance(node.func, ast.Attribute) else _callee(node))
        for name, func, node in _nodes()
        if name == "walls.py" and isinstance(node, ast.Call)
    }
    assert ("enumerate_candidate_walls", "central_charge") not in calls
    assert ("enumerate_candidate_walls", "wall_clip") not in calls
    assert ("_wall_clip", "_meet") in calls


def test_no_float_division_in_floor_or_ceil():
    # math.floor(a / b) on ints rounds a / b to a float first; exact integer
    # floors and ceils are a // b and -(-a // b)
    found = sorted(
        (name, node.lineno)
        for name, _, node in _nodes()
        if isinstance(node, ast.Call)
        and _callee(node) in ("math.floor", "math.ceil", "floor", "ceil")
        and any(
            isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div)
            for arg in node.args
            for sub in ast.walk(arg)
        )
    )
    assert found == []
