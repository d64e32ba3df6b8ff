"""Command-line front end.

Every command prints a single deterministic document (canonical JSON, or
SVG for figures) to stdout or --out.  Exit codes: 0 success, 2 input or
schema problems, 3 violated mathematical preconditions, 4 certificate
failures (the counterexample payload is printed as JSON).
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .errors import CertificateFailure, PreconditionError, SchemaError, WallandError
from .jsonio import dumps_canonical, parse_frac
from .lattice import CharVec, SurfaceLattice, vtilde
from .stability import (
    HeartPosition,
    StabPoint,
    central_charge,
    heart_sign_check,
    phase,
    theta_approx,
)
from .svgfig import SCENES, render_certificate, render_scene
from .traces import (
    compose,
    hom_differential,
    random_cochain,
    random_complex,
    supertrace,
)
from .walls import (
    BoxRegion,
    EnumerationBounds,
    SegmentRegion,
    collect_leaves,
    enumerate_candidate_walls,
    expected_moduli_dim,
    ext2_vanishing_certificate,
    phase_bound_interval,
    simulate_destabilization_paths,
)


def _parse_char(text: str, L: SurfaceLattice) -> CharVec:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != L.rank + 2:
        raise SchemaError(
            f"character needs {L.rank + 2} comma-separated entries"
            f" (r, {L.rank} c1 coords, e); got {len(parts)}"
        )
    return CharVec.make(parts[0], parts[1:-1], parts[-1])


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc.strerror}") from exc


def _error_doc(exc: WallandError) -> str:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, CertificateFailure):
        doc["payload"] = exc.payload
    return dumps_canonical(doc)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_charge(args) -> str:
    L = SurfaceLattice.load(args.surface)
    ch = _parse_char(args.char, L)
    P = StabPoint.make(args.s, args.q)
    v = vtilde(ch, L)
    z = central_charge(P, v)
    heart = heart_sign_check(P, v)
    doc = {"vtilde": v.to_list(), "Z": z.to_dict(), "heart": heart.name}
    doc["phase_approx"] = (
        None if z.is_zero else round(theta_approx((z.re, z.im)), 12)
    )
    doc["phase"] = (
        phase(P, v).to_dict() if heart is not HeartPosition.Fails else None
    )
    return dumps_canonical(doc)


def _cmd_dim(args) -> str:
    L = SurfaceLattice.load(args.surface)
    ch = _parse_char(args.char, L)
    return dumps_canonical({"expected_dim": str(expected_moduli_dim(ch, L))})


def _cmd_ext2(args) -> str:
    L = SurfaceLattice.load(args.surface)
    ch = _parse_char(args.char, L)
    P = StabPoint.make(args.s, args.q)
    cert = ext2_vanishing_certificate(P, vtilde(ch, L), ch, L)
    if args.svg:
        leaf = cert
        while leaf.inner is not None:
            leaf = leaf.inner
        _write(args.svg, render_certificate(leaf.data))
    return dumps_canonical({"certificate": cert.to_dict()})


def _cmd_phase_bounds(args) -> str:
    L = SurfaceLattice.load(args.surface)
    ch = _parse_char(args.char, L)
    P = StabPoint.make(args.s, args.q)
    Q = StabPoint.make(args.s2, args.q2)
    interval = phase_bound_interval(P, Q, vtilde(ch, L))
    return dumps_canonical({"interval": interval.to_dict()})


def _parse_quad_flags(args):
    vals = [p.strip() for p in args.split(",")]
    if len(vals) != 4:
        raise SchemaError(f"expected 4 comma-separated rationals, got {len(vals)}")
    return [parse_frac(v) for v in vals]


def _cmd_walls(args) -> str:
    L = SurfaceLattice.load(args.surface)
    ch = _parse_char(args.char, L)
    if (args.segment is None) == (args.box is None):
        raise SchemaError("provide exactly one of --segment or --box")
    if args.segment is not None:
        s1, q1, s2, q2 = _parse_quad_flags(args.segment)
        region = SegmentRegion(StabPoint.make(s1, q1), StabPoint.make(s2, q2))
    else:
        s_lo, s_hi, q_lo, q_hi = _parse_quad_flags(args.box)
        region = BoxRegion(s_lo, s_hi, q_lo, q_hi)
    walls = enumerate_candidate_walls(
        vtilde(ch, L), region, args.rank_bound, args.c1_bound, L
    )
    return dumps_canonical({"walls": [w.to_dict() for w in walls]})


def _cmd_simulate(args) -> str:
    L = SurfaceLattice.load(args.surface)
    ch = _parse_char(args.char, L)
    P = StabPoint.make(args.s, args.q)
    Q = StabPoint.make(args.s2, args.q2)
    bounds = EnumerationBounds(args.rank_bound, args.c1_bound)
    root = simulate_destabilization_paths(P, Q, vtilde(ch, L), bounds, L)
    leaves = [
        {"char": char.to_list(), "lift": lift.to_dict()}
        for char, lift in collect_leaves(root)
    ]
    return dumps_canonical({"tree": root.to_dict(), "leaves": leaves})


def _cmd_supertrace_fuzz(args) -> str:
    if args.n < 0:
        raise PreconditionError(f"--n must be nonnegative, not {args.n}")
    seed = args.seed
    if seed is None:
        try:
            seed = int(os.environ.get("WALLAND_SEED", "0"))
        except ValueError as exc:
            raise SchemaError("WALLAND_SEED must be an integer") from exc
    rng = random.Random(seed)
    violations = 0
    for _ in range(args.n):
        cplx = random_complex(rng)
        k = rng.randint(-2, 2)
        a = random_cochain(rng, cplx, cplx, k)
        b = random_cochain(rng, cplx, cplx, -k)
        sign = -1 if (k * k) % 2 else 1
        if supertrace(compose(a, b)) != sign * supertrace(compose(b, a)):
            violations += 1
        g = random_cochain(rng, cplx, cplx, -1)
        if supertrace(hom_differential(g)) != 0:
            violations += 1
    return dumps_canonical({"n": args.n, "violations": violations, "seed": seed})


def _cmd_figure(args) -> str:
    return render_scene(args.scene)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_surface_char(p):
    p.add_argument("--surface", required=True, help="surface lattice JSON file")
    p.add_argument(
        "--char", required=True, help="character as r,c1...,e (rank+2 rationals)"
    )


def _add_point(p, suffix=""):
    p.add_argument(f"--s{suffix}", required=True)
    p.add_argument(f"--q{suffix}", required=True)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="walland",
        description="Exact stability-wall computations on polarized surfaces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("charge", help="central charge and approximate phase")
    _add_surface_char(p)
    _add_point(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_charge)

    p = sub.add_parser("dim", help="expected moduli dimension 1 - chi(v, v)")
    _add_surface_char(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("ext2", help="vanishing certificate for Hom(E, E tensor K)")
    _add_surface_char(p)
    _add_point(p)
    p.add_argument("--svg", help="also draw the chord figure to this file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ext2)

    p = sub.add_parser("phase-bounds", help="lifted phase interval at a deformed point")
    _add_surface_char(p)
    _add_point(p)
    _add_point(p, suffix="2")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_phase_bounds)

    p = sub.add_parser("walls", help="candidate walls meeting a region")
    _add_surface_char(p)
    p.add_argument("--segment", help="s1,q1,s2,q2 parameter segment")
    p.add_argument("--box", help="s_lo,s_hi,q_lo,q_hi parameter box")
    p.add_argument("--rank-bound", type=int, required=True)
    p.add_argument("--c1-bound", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_walls)

    p = sub.add_parser("simulate", help="destabilization paths along a segment")
    _add_surface_char(p)
    _add_point(p)
    _add_point(p, suffix="2")
    p.add_argument("--rank-bound", type=int, required=True)
    p.add_argument("--c1-bound", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("supertrace-fuzz", help="seeded graded-trace identity fuzz")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=None, help="default: WALLAND_SEED or 0")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_supertrace_fuzz)

    p = sub.add_parser("figure", help="render a bundled SVG scene")
    p.add_argument("--scene", required=True, help=f"one of: {', '.join(SCENES)}")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_figure)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = 0, args.func(args)
    except SchemaError as exc:
        code, text = 2, _error_doc(exc)
    except PreconditionError as exc:
        code, text = 3, _error_doc(exc)
    except CertificateFailure as exc:
        code, text = 4, _error_doc(exc)
    except ValueError as exc:  # str() of an int longer than Python prints
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        code, text = 3, _error_doc(
            PreconditionError(f"result has a number beyond the {limit}-digit print limit")
        )
    if args.out:
        try:
            _write(args.out, text)
            return code
        except SchemaError as exc:  # the document goes to stdout instead
            code, text = 2, _error_doc(exc)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
