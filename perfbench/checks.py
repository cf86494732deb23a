"""Check a query's printed output against its reference values.

``verify`` returns None when the output is right and a one-line reason
when it is not.  The program's values are read back with
``oracle.evaluate`` at the points the reference values were taken at.
"""

from __future__ import annotations

import json
from fractions import Fraction

from oracle import EvalError, evaluate


def _point(key) -> dict:
    """Variable assignment for a reference key: () is a constant, a bare
    number is a value of y, (var, x) a value of var, and ("uv", s) puts
    u = v = s."""
    if key == ():
        return {}
    if isinstance(key, int):
        return {"y": key}
    var, x = key
    if var == "uv":
        return {"u": x, "v": x}
    if var == "t":
        return {"t": x, "u": x, "v": x}
    return {var: x}


def _values(text: str, expect: dict, label: str):
    for key, want in expect.items():
        got = evaluate(text, _point(key))
        if got != want:
            return f"{label} at {key}: got {got}, want {want}"
    return None


def verify(query, rc: int, out) -> str | None:
    if rc != 0:
        return f"exit code {rc}, want 0"
    try:
        return _CHECKS[query.kind](query.expect, out)
    except (EvalError, ZeroDivisionError, KeyError, TypeError,
            ValueError) as exc:
        return f"unreadable output: {exc}"


def _scalar_or_poly(expect, out):
    return _values(out.strip(), expect, "value")


def _hrr(expect, out):
    data = json.loads(out)
    want = Fraction(expect["sections"])
    if Fraction(data["sections"]) != want or Fraction(data["integral"]) != want:
        return f"sections {data['sections']} / integral {data['integral']}, " \
               f"want {want}"
    return None if data["equal"] is True else "equal is not true"


def _compare(expect, out):
    data = json.loads(out)
    for label, points in expect.items():
        row = data[label]
        if row["equal"] is not True:
            return f"{label} reported unequal"
        for side in ("first", "second"):
            wrong = _values(row[side], points, f"{label} {side}")
            if wrong:
                return wrong
    return None


def _oracle(expect, out):
    data = json.loads(out)
    if data["verdict"] is not True:
        return "verdict is not true"
    for label in ("partial", "closed"):
        wrong = _values(data[label], {("L", q): v for q, v in
                                      expect[label].items()}, label)
        if wrong:
            return wrong
    return None


def _partition(expect, out):
    return None if out is expect["holds"] else f"partition_check gave {out}"


_CHECKS = {
    "genus": _scalar_or_poly,
    "ty": _scalar_or_poly,
    "hrr": _hrr,
    "compare": _compare,
    "integral": _scalar_or_poly,
    "efun": _scalar_or_poly,
    "euler": _scalar_or_poly,
    "oracle": _oracle,
    "partition": _partition,
}
