"""End-to-end command tests: schemas, exit codes, determinism."""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from walland.cli import main
from walland.plane import QuadNum

SURFACES = Path(__file__).resolve().parent.parent / "surfaces"
P2 = str(SURFACES / "p2.json")
QUARTIC = str(SURFACES / "k3_quartic.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_charge_structure_sheaf(capsys):
    code, doc = run_json(
        capsys, "charge", "--surface", P2, "--char", "1,0,0", "--s=-1", "--q=1"
    )
    assert code == 0
    assert doc["vtilde"] == ["1", "0", "0"]
    assert doc["Z"] == {"re": "1", "im": "1"}
    assert doc["heart"] == "StrictUpper"
    assert doc["phase_approx"] == 0.25
    assert doc["phase"]["ray"] == ["1", "1"]


def test_charge_skyscraper_phase_one(capsys):
    code, doc = run_json(
        capsys, "charge", "--surface", P2, "--char", "0,0,1", "--s=2", "--q=9"
    )
    assert code == 0
    assert doc["Z"] == {"re": "-1", "im": "0"}
    assert doc["heart"] == "NegativeRealAxis"
    assert doc["phase_approx"] == 1.0
    assert doc["phase"]["approx"] == 1.0


def test_charge_kernel_reports_null_phase(capsys):
    code, doc = run_json(
        capsys, "charge", "--surface", P2, "--char", "1,-1,1", "--s=-1", "--q=1"
    )
    assert code == 0
    assert doc["Z"] == {"re": "0", "im": "0"}
    assert doc["phase_approx"] is None
    assert doc["phase"] is None


def run_process(*argv):
    """The CLI in a fresh interpreter: (exit code, stdout, stderr)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "walland.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_charge_huge_character_no_traceback():
    # the display phase of a charge beyond float range must not crash
    code, out, err = run_process(
        "charge", "--surface", P2, "--char", "1,0,-1e400", "--s=0", "--q=1"
    )
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err + out
    assert json.loads(out)["phase_approx"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ("charge", "--char", "1,0,-1e5000", "--s=0", "--q=1"),
        ("dim", "--char", "1,0,1e5000"),
        ("dim", "--char", "1e3000,0,1e3000"),  # r*e outgrows the limit
        ("ext2", "--char", "1,0,-1e5000", "--s=-1", "--q=1"),
    ],
)
def test_result_too_long_to_print_exit_3(argv):
    # exact results past Python's int-to-str digit limit cannot be printed
    code, out, err = run_process(argv[0], "--surface", P2, *argv[1:])
    assert code == 3
    assert "Traceback" not in err + out
    assert json.loads(out)["error"] == "PreconditionError"


@pytest.mark.parametrize(
    "char, code, doc",
    [
        ("1,0,1e10000000", 3, {"error": "PreconditionError"}),
        ("1,0,0e10000000", 0, {"expected_dim": "0"}),
    ],
)
def test_exponent_literal_decided_before_expanding(char, code, doc):
    # 10**10000000 alone takes seconds; neither answer needs it
    start = time.perf_counter()
    got_code, out, err = run_process("dim", "--surface", P2, "--char", char)
    assert time.perf_counter() - start < 2
    assert got_code == code and "Traceback" not in err + out
    assert doc.items() <= json.loads(out).items()


@pytest.mark.parametrize("literal", ["1" + "0" * 4300, "1e4300"])
def test_over_long_literal_exit_3_either_way(capsys, literal):
    # 10**4300 is past the 4300-digit print limit written out or as an
    # exponent; neither message echoes the literal's 4301 digits
    code, doc = run_json(capsys, "dim", "--surface", P2, "--char", f"1,0,{literal}")
    assert code == 3 and doc["error"] == "PreconditionError"
    assert len(doc["message"]) < 120


def test_boolean_surface_entries_exit_2(capsys, tmp_path):
    surface = tmp_path / "bools.json"
    surface.write_text(json.dumps(
        {"basis": ["h"], "gram": [[True]], "H": [True], "D": [False], "K": ["0"],
         "chiO": "1"}
    ))
    code, doc = run_json(capsys, "dim", "--surface", str(surface), "--char", "1,0,0")
    assert code == 2
    assert doc["error"] == "SchemaError"


def test_charge_boundary_point_exit_3(capsys):
    code, doc = run_json(
        capsys, "charge", "--surface", P2, "--char", "1,0,0", "--s=2", "--q=2"
    )
    assert code == 3
    assert doc["error"] == "PreconditionError"


def test_charge_bad_char_arity_exit_2(capsys):
    code, doc = run_json(
        capsys, "charge", "--surface", P2, "--char", "1,0", "--s=-1", "--q=1"
    )
    assert code == 2
    assert doc["error"] == "SchemaError"


def test_missing_surface_file_exit_2(capsys):
    code, doc = run_json(
        capsys, "charge", "--surface", "no/such.json", "--char", "1,0,0",
        "--s=-1", "--q=1",
    )
    assert code == 2
    assert doc["error"] == "SchemaError"


def test_dim_ideal_sheaf(capsys):
    code, doc = run_json(capsys, "dim", "--surface", P2, "--char", "1,0,-2")
    assert code == 0
    assert doc == {"expected_dim": "4"}


def test_ext2_worked_instance(capsys, tmp_path):
    svg_file = tmp_path / "cert.svg"
    code, doc = run_json(
        capsys, "ext2", "--surface", P2, "--char", "1,0,0", "--s=-1", "--q=1",
        "--svg", str(svg_file),
    )
    assert code == 0
    cert = doc["certificate"]
    assert cert["branch"] == "PhaseDominance"
    assert cert["data"]["Q"] == {"s": "-4", "q": "17/2"}
    assert cert["data"]["vK"] == ["1", "-3", "9/2"]
    text = svg_file.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_ext2_dual_reduction(capsys):
    code, doc = run_json(
        capsys, "ext2", "--surface", P2, "--char=-1,-3,-2", "--s=4", "--q=9"
    )
    assert code == 0
    cert = doc["certificate"]
    assert cert["branch"] == "DualReduction"
    assert cert["inner"]["branch"] == "SegmentsIntersect"


def test_ext2_quartic_exit_3(capsys):
    code, doc = run_json(
        capsys, "ext2", "--surface", QUARTIC, "--char", "1,0,0", "--s=-1", "--q=1"
    )
    assert code == 3
    assert doc["error"] == "PreconditionError"


def test_ext2_skyscraper_exit_4_with_payload(capsys):
    code, doc = run_json(
        capsys, "ext2", "--surface", P2, "--char", "0,0,1", "--s=-1", "--q=1"
    )
    assert code == 4
    assert doc["error"] == "CertificateFailure"
    assert doc["payload"]["v"] == ["0", "0", "1"]


def test_ext2_equal_chords_exit_4(capsys, tmp_path):
    # On the blow-up of P2 at a point both chords are one line here, and a
    # witness on it would take the twisted charge through a half turn from
    # Q; one chord is refused outright, as a certificate failure.
    surface = tmp_path / "blowup.json"
    surface.write_text(json.dumps(
        {"basis": ["l", "e"], "gram": [["1", "0"], ["0", "-1"]], "H": ["2", "-1"],
         "D": ["0", "0"], "K": ["-3", "1"], "chiO": "1"}
    ))
    code, doc = run_json(
        capsys, "ext2", "--surface", str(surface), "--char", "1,-6,6,5",
        "--s=-71/30", "--q=71/25",
    )
    assert code == 4
    assert doc["error"] == "CertificateFailure"
    assert doc["message"] == "chords coincide"
    assert doc["payload"]["A"] == doc["payload"]["Ap"]


def test_walls_segment_pinned(capsys):
    code, doc = run_json(
        capsys, "walls", "--surface", P2, "--char", "1,0,0",
        "--segment", "3/5,7/20,4/5,7/20", "--rank-bound", "1", "--c1-bound", "1",
    )
    assert code == 0
    assert doc == {
        "walls": [{"wall": ["0", "1", "-2"], "witnesses": [["1", "1", "1/2"]]}]
    }


def test_walls_zero_bounds_empty(capsys):
    code, doc = run_json(
        capsys, "walls", "--surface", P2, "--char", "1,0,0",
        "--segment", "3/5,7/20,4/5,7/20", "--rank-bound", "0", "--c1-bound", "0",
    )
    assert code == 0
    assert doc == {"walls": []}


def test_walls_region_flags_are_exclusive(capsys):
    code, doc = run_json(
        capsys, "walls", "--surface", P2, "--char", "1,0,0",
        "--rank-bound", "1", "--c1-bound", "1",
    )
    assert code == 2
    code, doc = run_json(
        capsys, "walls", "--surface", P2, "--char", "1,0,0",
        "--segment", "0,1,1,2", "--box", "0,1,1,2",
        "--rank-bound", "1", "--c1-bound", "1",
    )
    assert code == 2


def test_simulate_crossing_segment(capsys):
    code, doc = run_json(
        capsys, "simulate", "--surface", P2, "--char", "1,0,-1",
        "--s=-7/4", "--q=7/4", "--s2=-5/4", "--q2=13/16",
        "--rank-bound", "3", "--c1-bound", "5",
    )
    assert code == 0
    assert len(doc["leaves"]) == 5
    ev = doc["tree"]["events"][0]
    assert ev["t"] == "2/3"
    assert ev["wall"] == ["2", "3", "2"]
    assert ev["R"] == {"s": "-17/12", "q": "9/8"}


def test_phase_bounds_interval(capsys):
    code, doc = run_json(
        capsys, "phase-bounds", "--surface", P2, "--char", "1,-1,-1",
        "--s=0", "--q=1", "--s2=1", "--q2=2",
    )
    assert code == 0
    itv = doc["interval"]
    assert itv["labels"] == {"lo": "A", "hi": "B"}
    assert itv["degenerate_endpoint"] is None
    assert itv["A"][0] == {"a": "2", "b": "-1", "delta": "6"}
    assert itv["lo"]["n"] == 0


def test_phase_bounds_beyond_float_range(capsys, monkeypatch):
    # the chord ends' ray components overflow float(), so theta_approx
    # floors them exactly (QuadNum.__floor__) and scales them down to show
    floors = []
    floor = QuadNum.__floor__
    monkeypatch.setattr(QuadNum, "__floor__", lambda x: floors.append(x) or floor(x))
    code, doc = run_json(
        capsys, "phase-bounds", "--surface", P2, "--char", "1,0,-1",
        "--s=1e200", "--q=1e401", "--s2=-1e200", "--q2=1e401",
    )
    assert code == 0
    assert len(floors) == 4  # both components of both ends' rays
    itv = doc["interval"]
    assert all(math.isfinite(itv[end]["approx"]) for end in ("lo", "hi"))


def test_supertrace_fuzz_clean(capsys):
    code, doc = run_json(capsys, "supertrace-fuzz", "--n", "50", "--seed", "7")
    assert code == 0
    assert doc == {"n": 50, "seed": 7, "violations": 0}


def test_supertrace_fuzz_negative_n_exit_3(capsys):
    # a negative count is refused, not reported as a run that never happened
    code, doc = run_json(capsys, "supertrace-fuzz", "--n", "-3", "--seed", "7")
    assert code == 3
    assert doc["error"] == "PreconditionError"
    code, doc = run_json(capsys, "supertrace-fuzz", "--n", "0", "--seed", "7")
    assert code == 0
    assert doc == {"n": 0, "seed": 7, "violations": 0}


def test_supertrace_fuzz_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("WALLAND_SEED", "9")
    code, doc = run_json(capsys, "supertrace-fuzz", "--n", "10")
    assert code == 0
    assert doc["seed"] == 9 and doc["violations"] == 0
    monkeypatch.setenv("WALLAND_SEED", "not-an-int")
    code, doc = run_json(capsys, "supertrace-fuzz", "--n", "10")
    assert code == 2


def test_figure_scenes_render(capsys):
    for scene in ("phase-compare", "deform", "ext2-worked"):
        code, out = run(capsys, "figure", "--scene", scene)
        assert code == 0
        assert out.startswith("<svg")
        assert out.rstrip().endswith("</svg>")
    code, doc = run_json(capsys, "figure", "--scene", "bogus")
    assert code == 2
    assert doc["error"] == "SchemaError"


def test_repeated_invocations_byte_identical(capsys):
    argv = [
        "simulate", "--surface", P2, "--char", "1,0,-1",
        "--s=-7/4", "--q=7/4", "--s2=-5/4", "--q2=13/16",
        "--rank-bound", "3", "--c1-bound", "5",
    ]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second
    _, fig1 = run(capsys, "figure", "--scene", "deform")
    _, fig2 = run(capsys, "figure", "--scene", "deform")
    assert fig1 == fig2


def test_figure_scenes_match_goldens(capsys):
    goldens = Path(__file__).resolve().parent / "goldens"
    for scene in ("phase-compare", "deform", "ext2-worked"):
        code, out = run(capsys, "figure", "--scene", scene)
        assert code == 0
        assert out == (goldens / f"{scene}.svg").read_text()


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "doc.json"
    code, out = run(
        capsys, "dim", "--surface", P2, "--char", "1,0,0", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"expected_dim": "0"}


def test_unreadable_surface_exit_2(capsys, tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\x7fELF\xd0\xff\xfe\x00")
    deep = tmp_path / "deep.json"  # nesting beyond the JSON decoder's recursion
    deep.write_text("[" * 100_000)
    for surface in (str(tmp_path), str(binary), str(deep)):
        code, doc = run_json(
            capsys, "charge", "--surface", surface, "--char", "1,0,0",
            "--s=-1", "--q=1",
        )
        assert code == 2
        assert doc["error"] == "SchemaError"


def test_over_long_int_in_surface_exit_3(capsys, tmp_path):
    # an int literal past the digit limit is refused as it is in --char
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"chiO": 1' + "0" * 5000 + "}")
    code, doc = run_json(
        capsys, "charge", "--surface", str(long_int), "--char", "1,0,0", "--s=-1", "--q=1"
    )
    assert code == 3 and doc["error"] == "PreconditionError"
    _, want = run_json(capsys, "dim", "--surface", P2, "--char", "1,0,1" + "0" * 5000)
    assert doc["message"] == want["message"]
    assert "over 4300 digits" in doc["message"]


def test_out_or_svg_in_missing_directory_exit_2(capsys, tmp_path):
    missing = str(tmp_path / "missing" / "file")
    for extra in (("--out", missing), ("--svg", missing)):
        code, doc = run_json(
            capsys, "ext2", "--surface", P2, "--char", "1,0,0", "--s=-1", "--q=1",
            *extra,
        )
        assert code == 2
        assert doc["error"] == "SchemaError"
    assert not (tmp_path / "missing").exists()


def test_ext2_figure_beyond_float_range_exit_3(capsys, tmp_path):
    # the certificate itself holds; only its figure cannot be drawn
    for char in ("1,0,-1e400", "0,1,1e400"):
        argv = ["ext2", "--surface", P2, "--char", char, "--s=-1", "--q=1"]
        code, doc = run_json(capsys, *argv)
        assert code == 0 and "certificate" in doc
        code, doc = run_json(capsys, *argv, "--svg", str(tmp_path / "f.svg"))
        assert code == 3
        assert doc["error"] == "PreconditionError"


def test_cli_fuzz_exit_codes(capsys, tmp_path):
    # seeded argv from a fixed token pool: every call ends in 0, 2, 3 or 4
    # (argparse's SystemExit(2) included) and raises nothing else
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00\x81")
    bad_paths = (str(tmp_path), str(tmp_path / "no.json"), str(binary))
    surfaces = (P2,) * 12 + (str(SURFACES / "p1xp1_twisted.json"), QUARTIC) + bad_paths
    outs = (str(tmp_path / "out"), str(tmp_path / "missing" / "out"), str(tmp_path))
    odd, plain = ("1/0", "nan", "1e400"), ("-7/4", "0", "1", "-1", "2", "3", "1/2")
    bounds = ("0", "1", "2")
    chars = ("1,0,0", "0,0,1", "1,0,-1", "-1,-3,-2", "1,0,-1e400", "0,1,1e400")
    scenes = ("phase-compare", "deform", "ext2-worked", "x")
    rng = random.Random(4242)

    def rational():
        return rng.choice(odd if rng.random() < 0.08 else plain)

    def rationals(counts):
        return ",".join(rational() for _ in range(rng.choice(counts)))

    def count():
        return rng.choice(bounds) if rng.random() < 0.9 else rational()

    def char():
        return rng.choice(chars) if rng.random() < 0.5 else rationals((2, 3, 4))

    values = {
        "--surface": lambda: rng.choice(surfaces),
        "--char": char,
        "--segment": lambda: rationals((3, 4, 4, 4)),
        "--box": lambda: rationals((3, 4, 4, 4)),
        "--rank-bound": count,
        "--c1-bound": count,
        "--n": count,
        "--seed": count,
        "--scene": lambda: rng.choice(scenes),
        "--out": lambda: rng.choice(outs),
        "--svg": lambda: rng.choice(outs),
    }
    for flag in ("--s", "--q", "--s2", "--q2"):
        values[flag] = rational
    point, bound = ("--s", "--q"), ("--rank-bound", "--c1-bound")
    commands = {
        "charge": ("--surface", "--char") + point,
        "dim": ("--surface", "--char"),
        "ext2": ("--surface", "--char") + point,
        "phase-bounds": ("--surface", "--char", "--s2", "--q2") + point,
        "walls": ("--surface", "--char") + bound,
        "simulate": ("--surface", "--char", "--s2", "--q2") + point + bound,
        "supertrace-fuzz": ("--n", "--seed"),
        "figure": ("--scene",),
    }
    codes = set()
    for _ in range(400):
        command = rng.choice(sorted(commands))
        flags = [f for f in commands[command] if rng.random() < 0.97]
        if command == "walls":
            flags.append(rng.choice(("--segment", "--box")))
        for extra in ("--out", "--svg", rng.choice(sorted(values))):
            if rng.random() < 0.1:
                flags.append(extra)
        argv = [command]
        for flag in flags:
            if rng.random() < 0.97:
                argv.append(f"{flag}={values[flag]()}")
            else:
                argv += [flag, values[flag]()]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the report names the argv
            pytest.fail(f"{argv}: {exc!r}")
        capsys.readouterr()
        assert code in (0, 2, 3, 4), argv
        codes.add(code)
    assert codes == {0, 2, 3, 4}
