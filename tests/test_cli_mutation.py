"""Seeded mutation sweep of the file verbs: each case changes one value of
a fixture (drops a key or an entry, swaps a type, puts in a huge int or
breaks an expression) and runs one verb on it through ``cli.main``.

Whatever the input, ``main`` must return an exit code in {0, 1, 2, 3},
and an exit of 2 or 3 must print one line on stderr: never a traceback,
a MemoryError or a RecursionError."""

import json
import random
from pathlib import Path

from genera.cli import EXIT_IO, EXIT_MATH, EXIT_OK, EXIT_VALIDATION, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CASES = 400
SEED = 34

STRINGY = (("stringy", "integral"), ("stringy", "efun"), ("stringy", "chiy"),
           ("stringy", "euler"), ("stringy", "compare"))
TOWER = (("pro",), ("k0", "pro"))
BLOWUP = (("k0", "blowup-check"),)

# values that change the type of whatever they replace
OTHER_TYPES = (None, True, False, 0, -1, 1.5, "", "x", "1/0", [], [1], {},
               {"name": "E"})
HUGE_INTS = (10 ** 9, -10 ** 9, 10 ** 30, -10 ** 30, 2 ** 63, 10 ** 400)


def verbs_of(data: dict):
    if "strata" in data:
        return STRINGY
    if "mode" in data:
        return TOWER
    return BLOWUP


def paths(value, prefix=()):
    """Every (path, value) below value, the root excluded."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,), child
        yield from paths(child, prefix + (key,))


def broken(rng: random.Random, text: str) -> str:
    """text with one fault: cut short, an operator or a bracket put in,
    an exponent made huge, or nested far too deep."""
    cut = rng.randint(0, len(text))
    return rng.choice((
        text[:cut],
        text[:cut] + rng.choice("+-*^/()$²") + text[cut:],
        text + "^" + str(rng.choice(HUGE_INTS)),
        f"({text})^{rng.choice((10 ** 5, 10 ** 9, -3))}",
        "(" * 300 + text + ")" * 300,
        "-" * 2000 + text,
        f"{rng.choice(HUGE_INTS)}*{text}",
    ))


def mutated(rng: random.Random, data: dict) -> dict:
    data = json.loads(json.dumps(data))
    path, value = rng.choice(list(paths(data)))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kind = rng.choice(("drop", "type", "huge", "expr"))
    if kind == "expr" and not isinstance(value, str):
        kind = "huge" if isinstance(value, (int, float)) else "type"
    if kind == "drop":
        del parent[key]
    elif kind == "type":
        parent[key] = rng.choice(OTHER_TYPES)
    elif kind == "huge":
        parent[key] = rng.choice(HUGE_INTS + tuple(map(str, HUGE_INTS)))
    else:
        parent[key] = broken(rng, value)
    return data


def test_mutated_fixtures_exit_with_one_line(tmp_path, capsys):
    rng = random.Random(SEED)
    fixtures = sorted(FIXTURES.glob("*.json"))
    seen = set()
    for case in range(CASES):
        source = rng.choice(fixtures)
        data = json.loads(source.read_text())
        mutant = mutated(rng, data)
        verb = rng.choice(verbs_of(data))
        path = tmp_path / f"case{case}.json"
        path.write_text(json.dumps(mutant))
        argv = [*verb, str(path)] + ([str(source)] if "compare" in verb
                                     else [])
        code = main(argv)
        out, err = capsys.readouterr()
        label = f"case {case}: {' '.join(verb)} on {source.name} -> {mutant}"
        assert code in (EXIT_OK, EXIT_MATH, EXIT_IO, EXIT_VALIDATION), label
        if code in (EXIT_IO, EXIT_VALIDATION):
            assert len(err.splitlines()) == 1 and not out, label
        assert "Traceback" not in err, label
        seen.add(code)
    # the sweep reaches both the accepted and the rejected inputs
    assert {EXIT_OK, EXIT_VALIDATION} <= seen
