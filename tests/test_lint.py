"""Source invariants, checked on the syntax trees of src/walland."""

import ast
from pathlib import Path

import walland

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


def test_denominators_cleared_in_plane():
    # plane._den_lcm and plane._scaled turn rationals into ints; elsewhere
    # only CharVec.is_integral reads a denominator, to test integrality
    readers = sorted(
        {
            (name, func)
            for name, func, node in _nodes()
            if name != "plane.py"
            and isinstance(node, ast.Attribute)
            and node.attr == "denominator"
        }
    )
    assert readers == [("lattice.py", "is_integral")]


def _det2_factors(node):
    # the four factors of a*b - c*d, or None
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return None
    prods = (node.left, node.right)
    if not all(isinstance(p, ast.BinOp) and isinstance(p.op, ast.Mult) for p in prods):
        return None
    return {ast.unparse(x) for p in prods for x in (p.left, p.right)}


def _writes_cross3(node) -> bool:
    # three 2x2 determinants side by side, in a tuple or a chain of tests,
    # no factor common to all three (an edge crossing fa*end - fb*start is not)
    if isinstance(node, (ast.Tuple, ast.List)):
        parts = node.elts
    elif isinstance(node, ast.BoolOp):
        parts = [v.left if isinstance(v, ast.Compare) else v for v in node.values]
    else:
        return False
    factors = [_det2_factors(p) for p in parts]
    return len(factors) == 3 and None not in factors and not set.intersection(*factors)


def test_one_integer_cross_product():
    # the integer cross product is written once, as plane._cross3: the scan's
    # corner normals and its proportionality test call it
    sites = sorted((name, func) for name, func, node in _nodes() if _writes_cross3(node))
    assert sites == [("plane.py", "_cross3")]
    defs = {node.name for name, _, node in _nodes() if isinstance(node, ast.FunctionDef)}
    assert "_proportional" not in defs
    # a ray's cross sign is the sign of its product, with no second path
    assert "_cross_sign" not in defs


def _square(node) -> bool:
    # x * x
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and ast.dump(node.left) == ast.dump(node.right)
    )


def _pairs_square_with_scaled_square(node) -> bool:
    # a * a against b * b * d, as a difference or a comparison
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        sides = (node.left, node.right)
    elif isinstance(node, ast.Compare) and len(node.comparators) == 1:
        sides = (node.left, node.comparators[0])
    else:
        return False
    scaled = [
        isinstance(x, ast.BinOp) and isinstance(x.op, ast.Mult) and _square(x.left)
        for x in sides
    ]
    return any(scaled) and any(_square(x) for x, sc in zip(sides, scaled) if not sc)


def test_sign_of_a_plus_b_root_d_decided_once():
    # plane._sign_root alone weighs a^2 against b^2*d; QuadNum division
    # takes the norm as its divisor and compares nothing
    sites = sorted(
        {(name, func) for name, func, node in _nodes() if _pairs_square_with_scaled_square(node)}
    )
    assert sites == [("plane.py", "__truediv__"), ("plane.py", "_sign_root")]
    tree = ast.parse((SRC / "plane.py").read_text(encoding="utf-8"))
    (quad,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "QuadNum"]
    methods = {n.name: n for n in quad.body if isinstance(n, ast.FunctionDef)}
    (norm,) = [
        n.targets[0].id
        for n in ast.walk(methods["__truediv__"])
        if isinstance(n, ast.Assign) and _pairs_square_with_scaled_square(n.value)
    ]
    compared = {
        x.id
        for n in ast.walk(methods["__truediv__"])
        if isinstance(n, ast.Compare)
        for x in ast.walk(n)
        if isinstance(x, ast.Name)
    }
    assert norm not in compared
    calls = {_callee(n) for n in ast.walk(methods["sign"]) if isinstance(n, ast.Call)}
    assert "_sign_root" in calls


def test_one_hom_layout():
    # traces._basis_layout alone pairs source^i with target^(i + degree)
    sites = sorted(
        {
            (name, func)
            for name, func, node in _nodes()
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "dims"
            and isinstance(node.slice, ast.BinOp)
        }
    )
    assert sites == [("traces.py", "_basis_layout")]


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
    # each complex reads its differentials in integers once, into _ints in
    # MatrixComplex.__init__; D is written out from those integer forms only
    # in traces._d_rows; hom_differential multiplies the rows it returns, the
    # image step of cohomology eliminates them, and the lazy coboundaries of
    # cohomology transpose them
    int_form = {
        (name, func, type(node.ctx).__name__)
        for name, func, node in _top_level_nodes()
        if isinstance(node, ast.Attribute) and node.attr == "_ints"
    }
    assert int_form == {
        ("traces.py", "MatrixComplex.__init__", "Store"),
        ("traces.py", "MatrixComplex.__init__", "Load"),
        ("traces.py", "_d_rows", "Load"),
    }
    scalers = {
        (name, func)
        for name, func, node in _top_level_nodes()
        if name == "traces.py" and isinstance(node, ast.Call)
        and _callee(node) in ("_den_lcm", "_scaled")
    }
    assert scalers == {("traces.py", "MatrixComplex.__init__")}
    diff_calls = {
        (name, func)
        for name, func, node in _nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "diff"
    }
    assert diff_calls == set()
    d_rows_callers = {
        (name, func)
        for name, func, node in _nodes()
        if isinstance(node, ast.Call) and _callee(node) == "_d_rows"
    }
    assert d_rows_callers == {
        ("traces.py", "hom_differential"),
        ("traces.py", "_image_step"),
        ("traces.py", "coboundaries"),
    }
    # _d_rows writes every row; a caller takes the rows it needs
    d_rows = [
        node for name, _, node in _nodes()
        if isinstance(node, ast.FunctionDef) and node.name == "_d_rows"
    ]
    assert [ast.unparse(d.args) for d in d_rows] == ["source, target, degree"]


def _top_level_nodes():
    """(file name, qualified name, node) over the package.

    A method is named Class.method, and a node in a nested function counts
    for the module-level function or method around it.
    """
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        scopes = []
        for node in tree.body:
            name = getattr(node, "name", None)
            if isinstance(node, ast.ClassDef):
                scopes += [(f"{name}.{getattr(m, 'name', '')}", m) for m in node.body]
            else:
                scopes.append((name, node))
        for qualname, scope in scopes:
            for node in ast.walk(scope):
                yield path.name, qualname, node


def _top_level_calls():
    """(file name, qualified name, call node) over the package, as in _top_level_nodes."""
    return ((n, q, node) for n, q, node in _top_level_nodes() if isinstance(node, ast.Call))


def test_trusted_rows_enter_mat_once():
    # Mat._of_fractions skips parse_frac, so only _unflatten, which writes
    # the Fractions the integer elimination made, and the Mat arithmetic,
    # whose entries are sums and products of Fractions, may build a Mat with
    # it; the elimination itself builds no Mat and coerces nothing
    private = sorted(
        {
            (name, func)
            for name, func, node in _top_level_calls()
            if isinstance(node.func, ast.Attribute) and node.func.attr == "_of_fractions"
        }
    )
    assert private == [
        ("traces.py", "Mat.__add__"),
        ("traces.py", "Mat.__mul__"),
        ("traces.py", "Mat.scale"),
        ("traces.py", "_unflatten"),
    ]
    coerced = sorted(
        (func, _callee(node))
        for name, func, node in _nodes()
        if name == "traces.py"
        and func in ("cohomology", "_reduced_basis", "_insert", "_cancel", "_image_step", "_solve", "_rank")
        and isinstance(node, ast.Call)
        and _callee(node) in ("parse_frac", "Mat")
    )
    assert coerced == []


def test_one_elimination_routine():
    # every integer row operation is _cancel inside the row insertion or the
    # back substitution of the RREF; the image step, which also finds the
    # kernel's free columns, and the ranks of the differentials go through
    # _insert, not through rows of their own
    callers = {
        (name, func)
        for name, func, node in _top_level_calls()
        if _callee(node) == "_cancel"
    }
    assert callers == {("traces.py", "_insert"), ("traces.py", "_reduced_basis")}
    inserters = {
        (name, func)
        for name, func, node in _top_level_calls()
        if _callee(node) == "_insert"
    }
    assert inserters == {
        ("traces.py", "_reduced_basis"),
        ("traces.py", "_rank"),
        ("traces.py", "_image_step"),
    }
    defs = {node.name for name, _, node in _nodes() if isinstance(node, ast.FunctionDef)}
    assert not defs & {"_d_columns", "_echelon", "_back_substitute", "_rref", "_kernel_basis"}


def test_cohomology_runs_no_full_row_elimination():
    # a call to cohomology reduces only the rows of D^(degree-1) at the free
    # coordinates (_image_step); the RREF of whole matrices (_reduced_basis)
    # runs only in the lazy coboundaries, which cohomology defines and does
    # not call
    reducers = {
        (name, func)
        for name, func, node in _nodes()
        if isinstance(node, ast.Call) and _callee(node) == "_reduced_basis"
    }
    assert reducers == {("traces.py", "coboundaries")}
    assert {
        (name, func)
        for name, func, node in _top_level_calls()
        if _callee(node) == "_reduced_basis"
    } == {("traces.py", "cohomology")}
    assert not [
        node for name, func, node in _top_level_calls()
        if func == "cohomology" and _callee(node) == "coboundaries"
    ]


def test_one_integer_wall_decision():
    # enumerate_candidate_walls decides witnesses in ints at the points of
    # walls._meet; wall_clip only turns those points into Fractions.  Kept
    # walls come from the scan's integer triples through the one integer
    # wall formula, which wall_of calls too, and its gcd-and-sign step is
    # the one that canonicalises every triple.
    calls = {
        (func, node.func.attr if isinstance(node.func, ast.Attribute) else _callee(node))
        for name, func, node in _nodes()
        if name in ("walls.py", "stability.py", "plane.py") and isinstance(node, ast.Call)
    }
    assert ("enumerate_candidate_walls", "central_charge") not in calls
    assert ("enumerate_candidate_walls", "wall_clip") not in calls
    assert ("_wall_clip", "_meet") in calls
    assert ("enumerate_candidate_walls", "wall_of") not in calls
    assert ("enumerate_candidate_walls", "_wall_coeffs") in calls
    assert ("wall_of", "_wall_coeffs") in calls
    assert {func for func, callee in calls if callee == "_primitive"} == {
        "_canonical_int_triple",
        "_wall_coeffs",
    }


def test_walls_decide_on_integer_triples():
    # the phase window, the walk and the certificate take charges, rays,
    # chords, their meet and the translated point from integer triples
    # (_cross3, _wall_coeffs, _ray_at), not from the object geometry; the
    # certificate decides its heart tests and discriminant there too, and
    # reads the twisted and the mirrored character off (r, K.c1^D) and v
    banned = {
        "central_charge",
        "canonical_ray",
        "plane_point",
        "line_through",
        "line_intersection",
        "parabola_translate",
        "heart_sign_check",
        "tensor_by_K",
        "mirrored",
        "discriminant",
    }
    calls = [
        (func, name)
        for file, func, node in _nodes()
        if file == "walls.py" and isinstance(node, ast.Call)
        for name in [node.func.attr if isinstance(node.func, ast.Attribute) else _callee(node)]
    ]
    assert sorted(c for c in calls if c[1] in banned) == []
    # the character is projected once, by the entry check
    assert [func for func, name in calls if name == "vtilde"] == ["ext2_vanishing_certificate"]
    # the certificate's branch is read off the heart position and the sign
    # of v0: Im Z(v) = v0*(v1/v0 - s), so no slope v1/v0 is divided out
    (cert,) = [
        node for name, _, node in _nodes()
        if name == "walls.py"
        and isinstance(node, ast.FunctionDef)
        and node.name == "_certificate"
    ]
    divisions = [
        node.lineno for node in ast.walk(cert)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert divisions == []


def _y_entry(node) -> bool:
    # the imaginary part of a ray or a charge: r[1] or z.im
    if isinstance(node, ast.Subscript):
        return isinstance(node.slice, ast.Constant) and node.slice.value == 1
    return isinstance(node, ast.Attribute) and node.attr == "im"


def test_one_phase_order():
    # one helper orders lifted phases, on the half-turn index
    # j = n + [theta in (0, 1]]; theta_compare is its case n = 0
    calls = {
        (func, _callee(node)) for name, func, node in _top_level_calls() if name == "stability.py"
    }
    for func in ("theta_compare", "LiftedPhase.compare", "LiftedPhase.transport"):
        assert (func, "_phase_order") in calls, func
    # the helper and its half-plane predicate alone read the sign of a y
    # entry (a zero test, as in the zero-ray refusals, reads no sign)
    tree = ast.parse((SRC / "stability.py").read_text(encoding="utf-8"))
    zero_tested = {
        id(node.left)
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and all(isinstance(c, ast.Constant) and c.value == 0 for c in node.comparators)
    }
    order = (ast.Lt, ast.Gt, ast.LtE, ast.GtE)
    readers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if (
            isinstance(node, ast.Call) and _callee(node) == "sign_of"
            and _y_entry(node.args[0]) and id(node) not in zero_tested
            or isinstance(node, ast.Compare) and any(isinstance(op, order) for op in node.ops)
            and any(_y_entry(x) for x in (node.left, *node.comparators))
        )
    }
    assert "_upper" in readers and readers <= {"_phase_order", "_upper"}, readers
    # the bucketed order, its dot-sign transport and its ray negation are gone
    retired = {"_theta_bucket", "ray_dot_sign", "_neg_ray"}
    defs = [
        (name, node.name)
        for name, _, node in _nodes()
        if isinstance(node, ast.FunctionDef) and node.name in retired
    ]
    assert defs == []
    assert retired.isdisjoint(walland.__all__)


def test_object_chord_geometry_retired():
    # chords, walls and their meets are integer triples (_wall_coeffs,
    # _cross3); the Fraction point-and-line helpers they replaced stay gone
    retired = {"line_through", "line_intersection", "parabola_translate", "ParabolaShift"}
    assert retired.isdisjoint(walland.__all__)
    defs = sorted(
        (name, node.name)
        for name, _, node in _nodes()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in retired | {"plane_point", "affine", "affine_pair"}
    )
    assert defs == []
    from_plane = sorted(
        alias.name
        for name, _, node in _nodes()
        if name == "lattice.py"
        and isinstance(node, ast.ImportFrom)
        and node.module in ("plane", "walland.plane")
        for alias in node.names
    )
    # _Frozen is the value-class base, not chord geometry
    assert from_plane == ["_Frozen", "_den_lcm", "_scaled", "parse_frac"]


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


def _fixed_class(node) -> bool:
    # L.H, self.K, ... or a local H, K or D bound to one
    fixed = ("H", "K", "D")
    return (isinstance(node, ast.Attribute) and node.attr in fixed) or (
        isinstance(node, ast.Name) and node.id in fixed
    )


def test_fixed_classes_paired_once():
    # H^2, H.K, K^2, D^2 and D.K are slots that SurfaceLattice.__init__
    # sets, and it alone pairs two of H, K and D (H.D = 0 is checked there)
    sites = sorted(
        {
            (name, func)
            for name, func, node in _nodes()
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pair"
            and len(node.args) == 2
            and all(_fixed_class(arg) for arg in node.args)
        }
    )
    assert sites == [("lattice.py", "__init__")]


def _writes_exp_twist(node):
    # <ch>.r * <X^2> / 2 and <X>.scale(<ch>.r): the terms of ch*exp(X)
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 2
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Mult)
        and isinstance(node.left.left, ast.Attribute)
        and node.left.left.attr == "r"
    ):
        return "r*X^2/2"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "scale"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Attribute)
        and node.args[0].attr == "r"
    ):
        return "r*X"
    return None


def test_one_exp_twist_formula():
    # twist_char, untwist_char and tensor_by_K are ch*exp(X) for X = -D, D
    # and K through lattice._times_exp; vtilde shares its degree-2 part
    sites = sorted(
        (name, func, term)
        for name, func, node in _nodes()
        if (term := _writes_exp_twist(node))
    )
    assert sites == [
        ("lattice.py", "_exp_ch2", "r*X^2/2"),
        ("lattice.py", "_times_exp", "r*X"),
    ]
    callers = {
        func
        for name, func, node in _nodes()
        if isinstance(node, ast.Call) and _callee(node) == "_times_exp"
    }
    assert callers == {"twist_char", "untwist_char", "tensor_by_K"}


def test_c1_box_walked_only_by_scan_constants():
    # SurfaceLattice.scan_constants walks the c1 box once and merges it
    # into classes; no other code iterates c1 vectors, so no scan can
    # bypass the merge
    imported = sorted(
        (name, alias.asname or alias.name)
        for name, _, node in _nodes()
        if isinstance(node, ast.ImportFrom) and node.module == "itertools"
        for alias in node.names
        if alias.name == "product"
    )
    assert imported == [("lattice.py", "product")]
    uses = sorted(
        (name, func)
        for name, func, node in _nodes()
        if (isinstance(node, ast.Name) and node.id == "product")
        or (isinstance(node, ast.Attribute) and node.attr == "product")
    )
    assert uses == [("lattice.py", "scan_constants")]


def test_trusted_quadnums_made_by_quadnum_arithmetic_and_chords():
    # QuadNum._of skips parse_frac and the perfect-square test, so only the
    # arithmetic whose results it builds and the chord roots may call it
    callers = sorted(
        {
            (name, func)
            for name, func, node in _nodes()
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_of"
        }
    )
    assert callers == [
        ("plane.py", "__add__"),
        ("plane.py", "__mul__"),
        ("plane.py", "__neg__"),
        ("plane.py", "__sub__"),
        ("plane.py", "__truediv__"),
        ("plane.py", "_coerce"),
        ("plane.py", "line_parabola_intersect"),
    ]


def test_one_canonical_json_writer():
    # dumps_canonical writes the document itself; json.dumps would take the
    # pure-Python encoder for indent=2
    calls = sorted(
        (node.lineno, _callee(node))
        for name, _, node in _nodes()
        if name == "jsonio.py"
        and isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == "dumps")
            or (isinstance(node.func, ast.Name) and node.func.id == "dumps")
        )
    )
    assert calls == []


def test_pair_sums_in_ints():
    # SurfaceLattice.pair sums scaled ints and makes one Fraction at the end
    tree = ast.parse((SRC / "lattice.py").read_text(encoding="utf-8"))
    (pair,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "pair"
    ]
    loops = (ast.For, ast.While, ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
    in_loops = [
        sub.lineno
        for loop in ast.walk(pair)
        if isinstance(loop, loops)
        for sub in ast.walk(loop)
        if isinstance(sub, ast.Call) and _callee(sub) == "Fraction"
    ]
    made = [
        sub.lineno
        for sub in ast.walk(pair)
        if isinstance(sub, ast.Call) and _callee(sub) == "Fraction"
    ]
    assert in_loops == [] and len(made) == 1


def _split_branches(func):
    # the bodies of `if split:` and `if split and ...:`
    for node in ast.walk(func):
        if isinstance(node, ast.If):
            test = node.test
            if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
                test = test.values[0]
            if isinstance(test, ast.Name) and test.id == "split":
                yield from node.body


def test_split_scan_makes_one_fraction():
    # the split rule decides in ints, its W1 ranges included: the one
    # Fraction it makes is the crossing of a kept wall
    tree = ast.parse((SRC / "walls.py").read_text(encoding="utf-8"))
    funcs = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name in ("enumerate_candidate_walls", "_split_w1_ranges")
    }
    scopes = list(_split_branches(funcs["enumerate_candidate_walls"]))
    scopes.append(funcs["_split_w1_ranges"])
    made = {
        id(sub): sub
        for scope in scopes
        for sub in ast.walk(scope)
        if isinstance(sub, ast.Call) and _callee(sub) in ("Fraction", "parse_frac")
    }
    (call,) = made.values()
    crossings = [
        node.value
        for scope in scopes
        for node in ast.walk(scope)
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Subscript)
        and isinstance(node.targets[0].value, ast.Name)
        and node.targets[0].value.id == "crossing"
    ]
    assert crossings == [call]
