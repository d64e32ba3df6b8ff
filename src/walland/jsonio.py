"""Canonical JSON helpers.

Rationals are encoded as exact "p/q" strings (plain "n" when integral),
quadratic numbers as {"a", "b", "delta"} objects.  Serialization is
byte-deterministic: sorted keys, two-space indent, trailing newline.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _str

from .errors import SchemaError
from .plane import QuadNum, parse_frac


def frac_str(f) -> str:
    return str(parse_frac(f))


def quad_to_json(x) -> dict:
    if not isinstance(x, QuadNum):
        return {"a": frac_str(x), "b": "0", "delta": "0"}
    return {"a": frac_str(x.a), "b": frac_str(x.b), "delta": frac_str(x.d)}


def pair_to_json(xy) -> list:
    """A coordinate pair (x, y) of rationals or QuadNums."""
    return [quad_to_json(xy[0]), quad_to_json(xy[1])]


def quad_from_json(d: dict) -> QuadNum:
    try:
        return QuadNum(parse_frac(d["a"]), parse_frac(d["b"]), parse_frac(d["delta"]))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad quadratic-number record: {d!r}") from exc


def dumps_canonical(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\n", written directly.

    Only the types the program emits are taken: dicts with str keys, lists,
    str, int, float, bool and None; anything else raises TypeError.  An int
    past the print limit raises int.__repr__'s ValueError, as json.dumps does.
    """
    out = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(o, nl: str, put) -> None:
    t = type(o)
    if t is str:
        put(_str(o))
    elif t is dict:
        if not o:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(o):  # keys of mixed types fail to sort: TypeError too
            if type(k) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(k).__name__}")
            put(sep + _str(k) + ": ")
            _write(o[k], inner, put)
            sep = "," + inner
        put(nl + "}")
    elif t is list:
        if not o:
            put("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for x in o:
            put(sep)
            _write(x, inner, put)
            sep = "," + inner
        put(nl + "]")
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif t is int:
        put(int.__repr__(o))
    elif t is float:
        if o != o:
            put("NaN")
        elif o == math.inf:
            put("Infinity")
        elif o == -math.inf:
            put("-Infinity")
        else:
            put(float.__repr__(o))
    else:
        raise TypeError(f"no canonical JSON for {t.__name__}")
