"""Canonical JSON helpers.

Rationals are encoded as exact "p/q" strings (plain "n" when integral),
quadratic numbers as {"a", "b", "delta"} objects.  Serialization is
byte-deterministic: sorted keys, two-space indent, trailing newline.
"""

from __future__ import annotations

import json

from .errors import SchemaError
from .plane import QuadNum, parse_frac


def frac_str(f) -> str:
    return str(parse_frac(f))


def quad_to_json(x) -> dict:
    if not isinstance(x, QuadNum):
        x = QuadNum(x)
    return {"a": frac_str(x.a), "b": frac_str(x.b), "delta": frac_str(x.d)}


def quad_from_json(d: dict) -> QuadNum:
    try:
        return QuadNum(parse_frac(d["a"]), parse_frac(d["b"]), parse_frac(d["delta"]))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad quadratic-number record: {d!r}") from exc


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
