"""Golden CLI outputs of the genus on projective spaces.

Every case runs ``genera genus --series S --n N`` for the five series at
n in {0, 1, 7, 17, 20}, ``genera ty --n N`` for n <= 10 and n in {12, 16,
17, 20}, or ``genera hrr --n N --d D`` for n in {0, 1, 5, 11, 16} and d in
{0, 3, 8}, in text and in json, and its exit code, stdout and stderr must
match ``golden/genus_cli.json`` byte for byte.  The file was written by
the series power on Fraction and MultiPoly coefficients and the ring class
by sequential products, so it pins the integer paths to their results.
The ty cases at n >= 12 came later, written by the ring class powered on
term dicts in (y, h), before its coefficients in y were packed into ints.

Regenerate the golden file (only when an output is meant to change) with
``PYTHONPATH=src python tests/test_genus_golden.py``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from genera.catalog import SERIES_NAMES
from genera.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "genus_cli.json"


def cases() -> list:
    """(case name, argv) pairs."""
    out = []
    for output in ("text", "json"):
        for series in SERIES_NAMES:
            for n in (0, 1, 7, 17, 20):
                out.append(["genus", "--series", series, "--n", str(n),
                            "--output", output])
        for n in (*range(11), 12, 16, 17, 20):
            out.append(["ty", "--n", str(n), "--output", output])
        for n in (0, 1, 5, 11, 16):
            for d in (0, 3, 8):
                out.append(["hrr", "--n", str(n), "--d", str(d),
                            "--output", output])
    return [(" ".join(argv), argv) for argv in out]


def run_case(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


GOLDEN_CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_every_case_has_a_golden_output():
    assert sorted(GOLDEN_CASES) == sorted(name for name, _ in cases())


@pytest.mark.parametrize("name,argv", cases(), ids=[n for n, _ in cases()])
def test_golden_output(name, argv):
    assert run_case(argv) == GOLDEN_CASES[name]


if __name__ == "__main__":
    golden = {name: run_case(argv) for name, argv in cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
