"""The names the benchmark's tracer wraps still exist where it looks them up.

perfbench/tracing.py patches each attribute through ``owner.__dict__[attr]``,
so a wrapped name that is deleted, renamed or only inherited breaks its
traced run.  The tables are read from the file, which is not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANNED, module.COUNTED


SPANNED, COUNTED = _tables()


def _owner(path):
    # as Tracer._owner: "walls" is walland.walls, "walls.SegmentRegion" a class in it
    mod, _, cls = path.partition(".")
    owner = importlib.import_module(f"walland.{mod}")
    return getattr(owner, cls) if cls else owner


@pytest.mark.parametrize(
    "path, attr",
    [(path, attr) for path, attr, _ in SPANNED]
    + [(path, attr) for path, attr, _, _ in COUNTED],
)
def test_traced_name_in_owner_dict(path, attr):
    assert attr in vars(_owner(path))
