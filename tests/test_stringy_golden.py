"""Golden CLI outputs of the stringy invariants.

Every case runs ``genera stringy integral|efun|chiy|euler|compare
--output json`` on a fixture or on a product datum written here, or
``genera stringy integral --relative --output json``, which prints the
open-stratum classes, on each resolution-datum fixture; its exit code,
stdout and stderr must match ``golden/stringy_cli.json`` byte for byte.
The product data are built by multiplying the class expressions of
their factors, so they do not depend on ``product_datum`` of
``tests/references.py``.

Regenerate the golden file (only when an output is meant to change) with
``PYTHONPATH=src python tests/test_stringy_golden.py``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from genera.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden" / "stringy_cli.json"

DATUM_FIXTURES = ("a1_cone", "blowup_c2", "blowup_c2_bad", "identity_c2")
# every fixture that is a resolution datum, the two invalid ones included
RELATIVE_FIXTURES = (
    "a1_cone", "a1_cone_r2", "atom_bad_dim", "atom_fractional_e",
    "atom_t_index2", "big_coefficients", "blowup_c2", "blowup_c2_bad",
    "blowup_c2_x8", "budget_edge", "budget_eight", "curve_atom",
    "identity_c2", "index2_half")
ACTIONS = ("integral", "efun", "chiy", "euler")

HALF = {
    "flavor": "stringy", "index_r": 2,
    "components": [{"name": "E", "a": "1/2"}],
    "strata": [{"subset": [], "class": "L^2 - 1"},
               {"subset": ["E"], "class": "L + 1"}],
}

SEVERAL_ATOMS = {
    "flavor": "stringy", "index_r": 1,
    "atoms": [{"name": "C", "dim": 1, "e": "1 - 2*u - 2*v + u*v"},
              {"name": "T", "dim": 1, "e": "u*v - 1"}],
    "components": [{"name": "E", "a": "1"}, {"name": "F", "a": "2"}],
    "strata": [{"subset": [], "class": "C*T + L^2 - 3 + T^2"},
               {"subset": ["E"], "class": "C + T - 1"},
               {"subset": ["F"], "class": "2*C*L - C*T + L^2*T"},
               {"subset": ["E", "F"], "class": "1"}],
}


def product(factors):
    """JSON datum of a product: components are renamed E1, E2, ...
    in order, and each stratum class is the product of its factors'."""
    comps, strata, offset = [], {(): "1"}, 0
    for f in factors:
        names = {c["name"]: f"E{offset + i + 1}"
                 for i, c in enumerate(f["components"])}
        comps += [{"name": names[c["name"]], "a": c["a"]}
                  for c in f["components"]]
        offset += len(names)
        strata = {key + tuple(names[n] for n in entry["subset"]):
                  f"{cls}*({entry['class']})"
                  for key, cls in strata.items() for entry in f["strata"]}
    return {"flavor": factors[0]["flavor"], "index_r": factors[0]["index_r"],
            "components": comps,
            "strata": [{"subset": list(key), "class": cls}
                       for key, cls in strata.items()]}


def data() -> dict:
    """File name -> JSON datum, for every datum a case reads."""
    fixtures = {name: json.loads((FIXTURES / f"{name}.json").read_text())
                for name in DATUM_FIXTURES + RELATIVE_FIXTURES}
    blowup, identity = fixtures["blowup_c2"], fixtures["identity_c2"]
    out = {f"{name}.json": d for name, d in fixtures.items()}
    for k in range(2, 6):
        out[f"blowup_x{k}.json"] = product([blowup] * k)
    for k in range(1, 6):
        out[f"blowup_x{k - 1}_identity.json"] = product(
            [blowup] * (k - 1) + [identity])
        out[f"blowup_x{k - 1}_a1.json"] = product(
            [blowup] * (k - 1) + [fixtures["a1_cone"]])
    for k in range(1, 4):
        out[f"half_x{k}.json"] = product([HALF] * k)
    out["several_atoms.json"] = SEVERAL_ATOMS
    return out


def cases() -> list:
    """(case name, argv) pairs; file arguments name entries of data()."""
    out = []

    def add(*argv):
        out.append((" ".join(argv), ["stringy", *argv, "--output", "json"]))

    single = [f"{n}.json" for n in DATUM_FIXTURES] + \
        [f"blowup_x{k}.json" for k in range(2, 6)] + \
        [f"blowup_x{k}_identity.json" for k in range(0, 5)] + \
        [f"blowup_x{k}_a1.json" for k in range(0, 5)] + \
        [f"half_x{k}.json" for k in range(1, 4)] + \
        ["several_atoms.json",
         # class coefficients past 10^30 of both signs, and a curve atom
         "big_coefficients.json"]
    for name in single:
        for action in ACTIONS:
            add(action, name)
    for a in DATUM_FIXTURES:
        for b in DATUM_FIXTURES:
            add("compare", f"{a}.json", f"{b}.json")
    for k in range(1, 6):
        blowup = "blowup_c2.json" if k == 1 else f"blowup_x{k}.json"
        add("compare", blowup, f"blowup_x{k - 1}_identity.json")
        add("compare", f"blowup_x{k - 1}_a1.json", blowup)
    add("compare", "several_atoms.json", "several_atoms.json")
    add("compare", "big_coefficients.json", "big_coefficients.json")
    for name in RELATIVE_FIXTURES:
        add("integral", f"{name}.json", "--relative")
    return out


def run_case(workdir: Path, argv) -> dict:
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for name, datum in data().items():
        (path / name).write_text(json.dumps(datum))
    return path


GOLDEN_CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_every_case_has_a_golden_output():
    assert sorted(GOLDEN_CASES) == sorted(name for name, _ in cases())


@pytest.mark.parametrize("name,argv", cases(), ids=[n for n, _ in cases()])
def test_golden_output(workdir, name, argv):
    assert run_case(workdir, argv) == GOLDEN_CASES[name]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, datum in data().items():
            (tmp / name).write_text(json.dumps(datum))
        golden = {}
        for name, argv in cases():
            golden[name] = run_case(tmp, argv)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
