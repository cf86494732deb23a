"""Command-line interface: dispatch, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from genera import cli
from genera.cli import (EXIT_IO, EXIT_MATH, EXIT_OK, EXIT_VALIDATION,
                        build_parser, emit_table, main)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = FIXTURES.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_genus(capsys):
    code, out, _ = run(capsys, "genus", "--series", "hirzebruch", "--n", "4")
    assert code == EXIT_OK
    assert out.strip() == "1 - y + y^2 - y^3 + y^4"


def test_genus_json_roundtrip(capsys):
    code, out, _ = run(capsys, "genus", "--series", "hirzebruch", "--n", "2",
                       "--output", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    from genera.expr import parse_expr
    from genera.rings import MultiPoly
    y = MultiPoly.var("y")
    assert parse_expr(payload["value"]) == 1 - y + y ** 2


def test_determinism(capsys):
    first = run(capsys, "stringy", "efun", str(FIXTURES / "a1_cone.json"))
    second = run(capsys, "stringy", "efun", str(FIXTURES / "a1_cone.json"))
    assert first == second
    assert first[0] == EXIT_OK


def test_hrr_and_ty(capsys):
    code, out, _ = run(capsys, "hrr", "--n", "2", "--d", "1")
    assert code == EXIT_OK
    assert "3" in out and "True" in out
    code, out, _ = run(capsys, "ty", "--n", "2")
    assert out.strip() == "1 - y + y^2"


def test_k0_actions(capsys):
    code, out, _ = run(capsys, "k0", "chiy", "1 + L + L^2")
    assert code == EXIT_OK and out.strip() == "1 - y + y^2"
    code, out, _ = run(capsys, "k0", "euler", "L - 1")
    assert code == EXIT_OK and out.strip() == "0"
    code, out, _ = run(capsys, "k0", "eval", "(L+1)^3")
    assert code == EXIT_OK and out.strip() == "1 + 3*L + 3*L^2 + L^3"
    code, out, _ = run(capsys, "k0", "euler", "(L^3 - 2*L + 1)^2")
    assert code == EXIT_OK and out.strip() == "0"
    code, _, _ = run(capsys, "k0", "blowup-check",
                     str(FIXTURES / "blowup_relation.json"))
    assert code == EXIT_OK
    code, _, _ = run(capsys, "k0", "blowup-check",
                     str(FIXTURES / "blowup_relation_bad.json"))
    assert code == EXIT_MATH


def poly_text(coeffs, var):
    """The CLI's text of the sum of coeffs[k] * var^k."""
    out = ""
    for k, c in enumerate(coeffs):
        if c:
            mono = "" if k == 0 else var if k == 1 else f"{var}^{k}"
            body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else \
                mono or str(abs(c))
            out = f"{out} {'-' if c < 0 else '+'} {body}" if out else \
                f"{'-' if c < 0 else ''}{body}"
    return out or "0"


def cubic_power(n):
    """The coefficients of (L^3 - 2*L + 1)^n: L^(3i + j) from i factors
    L^3, j factors -2*L and n - i - j factors 1."""
    coeffs = [0] * (3 * n + 1)
    for i in range(n + 1):
        for j in range(n - i + 1):
            coeffs[3 * i + j] += math.comb(n, i) * math.comb(n - i, j) \
                * (-2) ** j
    return coeffs


@pytest.mark.parametrize("n", (0, 1, 3, 17, 40))
def test_k0_powers_of_one_variable(capsys, n):
    # each class is parsed as a one-variable MultiPoly power; under chi_y
    # L goes to -y, under the Euler number to 1
    binomial = [math.comb(n, k) for k in range(n + 1)]
    cubic = cubic_power(n)
    for text, coeffs in ((f"(L+1)^{n}", binomial),
                         (f"(L^3 - 2*L + 1)^{n}", cubic)):
        chi_y = [(-1) ** k * c for k, c in enumerate(coeffs)]
        for verb, expected in (("eval", poly_text(coeffs, "L")),
                               ("chiy", poly_text(chi_y, "y")),
                               ("euler", str(sum(coeffs)))):
            assert run(capsys, "k0", verb, text) == (EXIT_OK,
                                                     expected + "\n", "")


def test_stringy_compare(capsys):
    code, out, _ = run(capsys, "stringy", "compare",
                       str(FIXTURES / "identity_c2.json"),
                       str(FIXTURES / "blowup_c2.json"))
    assert code == EXIT_OK
    assert out.count("True") == 4
    code, _, _ = run(capsys, "stringy", "compare",
                     str(FIXTURES / "identity_c2.json"),
                     str(FIXTURES / "blowup_c2_bad.json"))
    assert code == EXIT_MATH


def test_jets(capsys):
    code, out, _ = run(capsys, "jets", "oracle", "--dim", "1",
                       "--exponents", "1", "--pmax", "8")
    assert code == EXIT_OK
    assert "True" in out


def test_pro(capsys):
    code, out, _ = run(capsys, "pro", str(FIXTURES / "tower_euler.json"))
    assert code == EXIT_OK and out.strip() == "2"
    code, out, _ = run(capsys, "pro", str(FIXTURES / "tower_arc.json"))
    assert code == EXIT_OK and out.strip() == "1 + L + L^2"


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


def test_stringy_with_several_atoms(tmp_path, capsys):
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(SEVERAL_ATOMS))
    code, out, _ = run(capsys, "stringy", "integral", str(path), "--relative")
    assert code == EXIT_OK
    assert out == (
        "stratum  class\n"
        "-------  --------------------\n"
        "{}       -3 + C*T + L^2 + T^2\n"
        "{E}      -1 + C + T\n"
        "{F}      2*C*L - C*T + L^2*T\n"
        "{E, F}   1\n")
    code, out, _ = run(capsys, "stringy", "efun", str(path))
    assert code == EXIT_OK
    # in lowest terms: over the integral's denominator at L = uv
    assert out == (
        "(-2 - 2*v - 2*u - 4*u*v - 4*u*v^2 - 4*u^2*v - 4*u^2*v^2"
        " - 4*u^2*v^3 - 4*u^3*v^2 + 2*u^3*v^3 - 2*u^3*v^4 - 2*u^4*v^3"
        " + 5*u^4*v^4 - 2*u^4*v^5 - 2*u^5*v^4 + 3*u^5*v^5)"
        " / (1 + 2*u*v + 2*u^2*v^2 + u^3*v^3)\n")


def test_relative_rows_by_size_then_lexicographic(tmp_path, capsys):
    # mask order would put {E, F} before {G} from three components on;
    # the entries are written in neither order
    names = ("E", "F", "G")
    subsets = [["E", "F", "G"], ["G"], ["F", "G"], [], ["E", "G"], ["F"],
               ["E"], ["E", "F"]]
    path = tmp_path / "three.json"
    path.write_text(json.dumps({
        "flavor": "stringy", "index_r": 1,
        "components": [{"name": n, "a": "1"} for n in names],
        "strata": [{"subset": s, "class": f"{len(s)} + {i}*L"}
                   for i, s in enumerate(subsets)]}))
    code, out, _ = run(capsys, "stringy", "integral", str(path), "--relative")
    assert code == EXIT_OK
    assert out == (
        "stratum    class\n"
        "---------  -------\n"
        "{}         3*L\n"
        "{E}        1 + 6*L\n"
        "{F}        1 + 5*L\n"
        "{G}        1 + L\n"
        "{E, F}     2 + 7*L\n"
        "{E, G}     2 + 4*L\n"
        "{F, G}     2 + 2*L\n"
        "{E, F, G}  3\n")


def test_exit_codes(capsys):
    code, _, err = run(capsys, "stringy", "integral", "missing.json")
    assert code == EXIT_IO
    assert "missing.json" in err
    code, _, _ = run(capsys, "k0", "chiy", "1 +")
    assert code == EXIT_VALIDATION


def test_validation_error_from_datum(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "flavor": "stringy", "index_r": 1,
        "components": [{"name": "E", "a": "-1"}],
        "strata": [{"subset": [], "class": "L"},
                   {"subset": ["E"], "class": "1"}],
    }))
    code, _, _ = run(capsys, "stringy", "integral", str(bad))
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("names, subsets", [
    (["E", "E"], [[], ["E"]]),
    (["E", "E"], [[], ["E"], ["E", "E"]]),
    (["E", "F", "E"], [[], ["E"], ["F"], ["E", "F"]]),
])
def test_repeated_component_name_exits_3(tmp_path, capsys, names, subsets):
    # a repeated name stands for its first component, so no subset reaches
    # the strata on its later bits
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({
        "flavor": "stringy", "index_r": 1,
        "components": [{"name": name, "a": "1"} for name in names],
        "strata": [{"subset": s, "class": "1"} for s in subsets]}))
    expected = "duplicate stratum entry" if ["E", "E"] in subsets else \
        "missing stratum entry {E}"
    assert run(capsys, "stringy", "euler", str(path)) == \
        (EXIT_VALIDATION, "", f"error: {expected}\n")


GOOD_DATUM = {
    "flavor": "stringy", "index_r": 1,
    "components": [{"name": "E", "a": "1"}],
    "strata": [{"subset": [], "class": "L^2 - 1"},
               {"subset": ["E"], "class": "L + 1"}],
}


@pytest.mark.parametrize("argv, data", [
    (("stringy", "integral"), {**GOOD_DATUM, "atoms": [{"name": "C", "dim": 1}]}),
    (("stringy", "integral"), {**GOOD_DATUM, "atoms": [{"e": "u*v", "dim": 1}]}),
    (("stringy", "integral"), {**GOOD_DATUM, "atoms": [{"name": "C", "e": "u*v"}]}),
    (("stringy", "integral"),
     {**GOOD_DATUM, "atoms": [{"name": "L", "dim": 1, "e": "u"}]}),
    (("stringy", "integral"),
     {**GOOD_DATUM, "atoms": [{"name": "C", "dim": 1, "e": "u*v"},
                              {"name": "C", "dim": 1, "e": "u*v - 1"}]}),
    (("stringy", "integral"), {**GOOD_DATUM, "components": [{"a": "1"}]}),
    (("stringy", "integral"), {**GOOD_DATUM, "components": [{"name": "E"}]}),
    (("pro",), {"mode": "euler", "eulers": [2, 2], "level": 2}),
    (("pro",), {"mode": "euler", "eulers": [2, 2], "chi": 4}),
    (("pro",), {"mode": "euler", "level": 2, "chi": 4}),
    (("k0", "pro"), {"mode": "class", "level": 2, "value": "L"}),
    (("pro",), [1, 2]),
    (("k0", "blowup-check"), [1, 2]),
    (("stringy", "integral"), {**GOOD_DATUM, "strata": 5}),
    (("stringy", "integral"), {**GOOD_DATUM, "strata": {"a": 1}}),
    (("stringy", "integral"), {**GOOD_DATUM, "strata": ["x"]}),
    (("stringy", "integral"),
     {**GOOD_DATUM, "strata": [{"subset": 5, "class": "L"}]}),
    (("stringy", "integral"),
     {**GOOD_DATUM, "strata": [{"subset": [["E"]], "class": "L"}]}),
    (("stringy", "integral"), {**GOOD_DATUM, "strata": [{"class": "L"}]}),
    (("stringy", "integral"),
     {**GOOD_DATUM, "strata": [{"subset": [], "class": 3}]}),
    (("stringy", "integral"),
     {**GOOD_DATUM, "components": [{"name": ["E"], "a": "1"}]}),
    (("stringy", "integral"), {**GOOD_DATUM, "index_r": 1.5}),
    (("stringy", "integral"), {**GOOD_DATUM, "index_r": True}),
    (("k0", "blowup-check"), {"x": 5, "y": "L", "bl": "L", "exc": "1"}),
    (("pro",), {"mode": "class", "level": 2, "gamma": 5, "value": "L"}),
    (("pro",), {"mode": "euler", "eulers": 5, "level": 2, "chi": 4}),
    (("pro",), {"mode": "euler", "eulers": [2, True], "level": 2, "chi": 4}),
    (("pro",), {"mode": "euler", "eulers": [2, 2], "level": [2], "chi": 4}),
    (("pro",), {"mode": "euler", "eulers": [2, 2], "level": 1.5, "chi": 4}),
    (("pro",), {"mode": "euler", "eulers": [2, 2], "level": True, "chi": 4}),
    (("pro",), {"mode": "euler", "eulers": [2, 2], "level": 2, "chi": "4"}),
    (("k0", "pro"), {"mode": "class", "level": 1.5, "gamma": "L^2",
                     "value": "L"}),
    (("stringy", "integral"),
     {**GOOD_DATUM, "strata": [{"subset": [], "class": "L^\u00b2"},
                               {"subset": ["E"], "class": "L + 1"}]}),
    (("stringy", "integral"),
     {**GOOD_DATUM, "strata": [{"subset": [], "class": "L^\u0663"},
                               {"subset": ["E"], "class": "L + 1"}]}),
])
def test_malformed_input_exits_3(tmp_path, capsys, argv, data):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, *argv, str(path))
    assert code == EXIT_VALIDATION
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
def test_non_ascii_digit_exits_3(capsys, digit):
    # a superscript two, an Arabic-Indic three: no int() message, and no
    # silent "L^3"
    assert run(capsys, "k0", "eval", f"L^{digit}") == \
        (EXIT_VALIDATION, "",
         f"error: unexpected character {digit!r} (at offset 2)\n")


def test_compare_at_the_denominator_budget(capsys):
    # one component at a = 4095, the largest the budget admits: the
    # reduced one-variable values compare their parts
    path = str(FIXTURES / "budget_edge.json")
    code, out, err = run(capsys, "stringy", "compare", path, path)
    assert code == EXIT_OK and err == ""
    assert out.count("True") == 4


def test_atom_named_t_at_index_two(capsys, tmp_path):
    # at index r > 1 the integral's variable is t = L^(1/r), which an atom
    # named t would merge with; the E-function realises the atom instead,
    # so efun and euler keep their values
    path = str(FIXTURES / "atom_t_index2.json")
    message = "error: an atom named 't' clashes with t = L^(1/2)\n"
    assert run(capsys, "stringy", "integral", path) == \
        (EXIT_VALIDATION, "", message)
    assert run(capsys, "stringy", "compare", path, path) == \
        (EXIT_VALIDATION, "", message)
    assert run(capsys, "stringy", "efun", path) == \
        (EXIT_OK, "(t^2 + 2*t^3 + 2*t^4) / (1 + t + t^2)\n", "")
    assert run(capsys, "stringy", "euler", path) == (EXIT_OK, "5/3\n", "")
    # at index 1 the variable is L, and t is one more atom: t + L plus
    # (L - 1)/(L^2 - 1), the common factor L - 1 cancelled from the
    # denominator and from the coefficient of each power of t
    data = json.loads(Path(path).read_text())
    data.update(index_r=1, components=[{"name": "E", "a": "1"}])
    one = tmp_path / "atom_t_index1.json"
    one.write_text(json.dumps(data))
    assert run(capsys, "stringy", "integral", str(one)) == \
        (EXIT_OK, "(1 + t + L + L*t + L^2) / (1 + L)\n", "")


STRINGY_VERBS = ("integral", "efun", "chiy", "euler")


@pytest.mark.parametrize("verb", STRINGY_VERBS)
@pytest.mark.parametrize("atom, message", [
    ({"dim": 1.5}, "atom dimension must be an integer, got 1.5"),
    ({"dim": True}, "atom dimension must be an integer, got True"),
    ({"dim": "2"}, "atom dimension must be an integer, got '2'"),
    ({"e": "1/2*u"}, "the E-polynomial of atom 'C' must be an integer "
     "polynomial in u and v, got 1/2*u"),
    ({"e": "u^-1 + u*v"}, "the E-polynomial of atom 'C' must be an "
     "integer polynomial in u and v, got u^-1 + u*v"),
], ids=["dim-float", "dim-bool", "dim-str", "e-fraction", "e-laurent"])
def test_malformed_atom_exits_3(tmp_path, capsys, verb, atom, message):
    # the atom is checked where it is built, so every verb rejects it
    data = {**GOOD_DATUM, "atoms": [{"name": "C", "dim": 1, "e": "u*v",
                                     **atom}]}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "stringy", verb, str(path)) == \
        (EXIT_VALIDATION, "", f"error: {message}\n")


FILE_VERBS = (("pro",), ("k0", "pro"), ("k0", "blowup-check"),
              ("stringy", "integral"), ("stringy", "efun"),
              ("stringy", "chiy"), ("stringy", "euler"),
              ("stringy", "compare"))


@pytest.mark.parametrize("content, code, message", [
    (None, EXIT_IO, "cannot read {path}: No such file or directory"),
    ("{", EXIT_VALIDATION, "invalid JSON in {path}: Expecting property "
     "name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("[1, 2]", EXIT_VALIDATION, "{path} must hold a JSON object"),
    pytest.param('{"a": ' + "[" * 2000 + "]" * 2000 + "}", EXIT_VALIDATION,
                 "invalid JSON in {path}: nested too deeply", id="deep"),
])
def test_file_faults_read_the_same_for_every_verb(tmp_path, capsys, content,
                                                   code, message):
    path = tmp_path / "datum.json"
    if content is not None:
        path.write_text(content)
    for verb in FILE_VERBS:
        assert run(capsys, *verb, str(path)) == \
            (code, "", f"error: {message.format(path=path)}\n")


@pytest.mark.parametrize("a, code", [(4095, EXIT_OK),
                                     (4096, EXIT_VALIDATION)])
def test_denominator_budget(tmp_path, capsys, a, code):
    # one component: the sum of r * (a + 1) is a + 1
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(
        {**GOOD_DATUM, "components": [{"name": "E", "a": str(a)}]}))
    for argv in (("stringy", "integral", str(path)),
                 ("jets", "oracle", "--dim", "1", "--exponents", str(a))):
        got, _, err = run(capsys, *argv)
        assert got == code
        if code == EXIT_VALIDATION:
            assert err == "error: the sum of r * (a_i + 1) over the " \
                "components is 4097; at most 4096 is supported\n"


def strata(*classes):
    """The strata entries of GOOD_DATUM's one component E."""
    return [{"subset": [], "class": classes[0]},
            {"subset": ["E"], "class": classes[1]}]


@pytest.mark.parametrize("data, message", [
    # the index and the components are checked before any class is split
    ({**GOOD_DATUM, "index_r": 0, "strata": strata("C", "L + 1")},
     "index r must be a positive integer"),
    ({**GOOD_DATUM, "index_r": -10 ** 5}, "index r must be a positive integer"),
    ({**GOOD_DATUM, "index_r": 10 ** 5}, "the sum of r * (a_i + 1) over the "
     "components is 200000; at most 4096 is supported"),
    ({**GOOD_DATUM, "components": [{"name": "E", "a": "5000"}],
      "strata": strata("L^5000", "C")},
     "the sum of r * (a_i + 1) over the components is 5001; at most 4096 "
     "is supported"),
    # a class is split into dense parts of its degree in the integral's
    # variable, which the budget bounds too
    ({**GOOD_DATUM, "index_r": 10 ** 5, "components": [],
      "strata": [{"subset": [], "class": "L^2 - 1"}]},
     "a stratum class has degree 200000 in t; at most 4096 is supported"),
    ({**GOOD_DATUM, "strata": strata("L^100000 - 1", "L + 1")},
     "a stratum class has degree 100000 in L; at most 4096 is supported"),
    ({**GOOD_DATUM, "index_r": 2, "strata": strata("1", "L^2049")},
     "a stratum class has degree 4098 in t; at most 4096 is supported"),
], ids=["index-0-unknown-atom", "index-negative", "index-huge",
        "components-past-budget", "no-components-huge-index",
        "class-degree-huge", "class-degree-at-index-2"])
def test_budgets_are_checked_before_the_classes_are_split(tmp_path, capsys,
                                                          data, message):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(data))
    for verb in STRINGY_VERBS:
        assert run(capsys, "stringy", verb, str(path)) == \
            (EXIT_VALIDATION, "", f"error: {message}\n")


def test_a_class_at_the_degree_budget_loads(tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({**GOOD_DATUM, "index_r": 2,
                                "strata": strata("1", "L^2048")}))
    code, out, err = run(capsys, "stringy", "euler", str(path))
    assert (code, err) == (EXIT_OK, "")


@pytest.mark.parametrize("text, message", [
    ("(" * 250 + "L" + ")" * 250,
     "factors nested more than 100 deep (at offset 100)"),
    ("-" * 1000 + "L", "factors nested more than 100 deep (at offset 100)"),
    ("(L+1)^15000", "a power of up to 15001 terms of 15000 bits; at most "
     "10000 terms of 8192 bits are supported (at offset 6)"),
    # three terms, but powered as a Dense of 2 * 16000000 + 1 slots
    ("(L^16000000+1)^2", "a power of up to 32000001 terms of 2 bits; at "
     "most 10000 terms of 8192 bits are supported (at offset 15)"),
], ids=["parens", "minus", "power", "sparse-power"])
def test_expression_past_a_budget_exits_3(capsys, text, message):
    assert run(capsys, "k0", "eval", "--", text) == \
        (EXIT_VALIDATION, "", f"error: {message}\n")


@pytest.mark.parametrize("text", ["", "L +", "(L*"])
def test_expression_that_ends_early_exits_3(capsys, text):
    assert run(capsys, "k0", "eval", "--", text) == (
        EXIT_VALIDATION, "",
        f"error: unexpected token: end of input (at offset {len(text)})\n")


def test_product_past_the_budget_exits_3(capsys):
    # each factor is within the power budget, their product is not
    code, out, err = run(capsys, "k0", "eval", "(L+1)^8000*(L+1)^8000")
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == "error: a product of up to 16001 terms of 16000 bits; " \
        "at most 10000 terms of 8192 bits are supported (at offset 10)\n"
    assert "Traceback" not in err


def test_stringy_compare_at_index_two(tmp_path, capsys):
    # chi_y is not defined at index 2: the other three rows decide
    path = FIXTURES / "index2_half.json"
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps({**json.loads(path.read_text()), "strata": [
        {"subset": [], "class": "L^2 - 1"},
        {"subset": ["E"], "class": "L + 2"}]}))
    code, out, err = run(capsys, "stringy", "compare", str(path), str(path),
                         "--output", "json")
    assert code == EXIT_OK and err == ""
    report = json.loads(out)
    assert report["chi_y"] is None
    assert [report[key]["equal"] for key in
            ("integral", "E-function", "euler")] == [True, True, True]
    code, out, err = run(capsys, "stringy", "compare", str(path), str(path))
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[4].split() == ["chi_y", "n/a", "n/a", "n/a"]
    code, out, err = run(capsys, "stringy", "compare", str(path),
                         str(changed), "--output", "json")
    assert code == EXIT_MATH
    assert "Traceback" not in err
    assert json.loads(out)["euler"] == {
        "first": "4/3", "second": "2", "equal": False}


def test_stringy_compare_across_indices(tmp_path, capsys):
    # index_r only has to make r * a_i integral, so one datum may be
    # written at r = 1, 2 and 3; the rows compare at the lcm of the two
    # indices, where t = L^(1/r) is t^(lcm/r), and print each datum's own
    # values.  chi_y needs index 1 on both sides
    one, two = FIXTURES / "a1_cone.json", FIXTURES / "a1_cone_r2.json"
    three = tmp_path / "a1_cone_r3.json"
    three.write_text(json.dumps({**json.loads(one.read_text()),
                                 "index_r": 3}))
    own = {one: ("L + L^2", "u*v + u^2*v^2"), two: ("t^2 + t^4",) * 2,
           three: ("t^3 + t^6",) * 2}
    for first in own:
        for second in own:
            code, out, err = run(capsys, "stringy", "compare", str(first),
                                 str(second), "--output", "json")
            assert (code, err) == (EXIT_OK, ""), (first, second)
            report = json.loads(out)
            for key, i in (("integral", 0), ("E-function", 1)):
                assert report[key] == {"first": own[first][i],
                                       "second": own[second][i],
                                       "equal": True}
            assert report["euler"]["equal"] is True
            assert (report["chi_y"] is None) == (first != one or
                                                 second != one)
    # negative control: a changed stratum at another index still differs
    changed = tmp_path / "changed_r2.json"
    changed.write_text(json.dumps({**json.loads(two.read_text()), "strata": [
        {"subset": [], "class": "L^2 - 1"},
        {"subset": ["E"], "class": "L + 2"}]}))
    for other in (one, three):
        code, out, err = run(capsys, "stringy", "compare", str(other),
                             str(changed), "--output", "json")
        assert code == EXIT_MATH and err == ""
        report = json.loads(out)
        assert [report[key]["equal"] for key in
                ("integral", "E-function", "euler")] == [False, False, False]
    # at an lcm above 1, an atom named t on the index-1 side clashes too
    data = json.loads((FIXTURES / "atom_t_index2.json").read_text())
    data.update(index_r=1, components=[{"name": "E", "a": "1"}])
    atom_t = tmp_path / "atom_t_index1.json"
    atom_t.write_text(json.dumps(data))
    assert run(capsys, "stringy", "compare", str(atom_t), str(two)) == \
        (EXIT_VALIDATION, "",
         "error: an atom named 't' clashes with t = L^(1/2)\n")


def test_emit_table():
    assert emit_table([], header=("a", "bb")) == "a  bb\n-  --"
    text = emit_table([[1, "xx"], [22, "y"]], header=("n", "v"))
    lines = text.splitlines()
    assert lines[0].startswith("n")
    assert lines[2].split() == ["1", "xx"]
    assert emit_table([]) == ""


DISPATCH_ARGV = [
    [], [""], ["-h"], ["nosuch"], ["genus"], ["genus", "-h"],
    ["genus", "--series", "todd", "--n", "3", "extra"],   # left over
    ["--output", "json", "ty", "--n", "2"],                # no verb first
    ["genus", "--ser", "todd", "--n", "2"],                # abbreviation
    ["genus", "--series", "nosuch", "--n", "3"],           # bad choice
    ["hrr", "--n", "2"],                                   # missing --d
    ["jets", "oracle", "--dim", "x", "--exponents", "1"],  # bad int
    ["jets", "oracle", "--dim", "1", "--exponents", "1", "--pmax", "4"],
    ["stringy", "integral", "--relative", str(FIXTURES / "a1_cone.json")],
    ["k0", "eval", "--", "-L"],
    ["hrr", "--n", "11", "--d", "30", "--output", "json"],
]


def argv_id(argv):
    return " ".join(a.replace(str(FIXTURES), "fixtures") or '""'
                    for a in argv) or "(none)"


def outcome(capsys, parse, argv):
    """(parsed value or exit code, stdout, stderr) of one parse."""
    try:
        value = parse(list(argv))
    except SystemExit as exc:
        value = exc.code
    out = capsys.readouterr()
    return value, out.out, out.err


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=argv_id)
def test_dispatch_reads_argv_as_the_full_parser(capsys, argv):
    # main parses with the verb's own parser where it can: each argv must
    # get the full parser's exit code, help and errors, or its arguments
    # apart from the command name, which nothing reads
    reference = outcome(capsys, build_parser().parse_args, argv)
    if not isinstance(reference[0], argparse.Namespace):
        assert outcome(capsys, main, argv) == reference
        return
    parsed, out, err = outcome(capsys, cli._parse, argv)
    assert (out, err) == ("", "")
    assert {k: v for k, v in vars(parsed).items() if k != "command"} == \
        {k: v for k, v in vars(reference[0]).items() if k != "command"}
    assert outcome(capsys, main, argv)[0] == EXIT_OK


def test_a_verb_query_skips_the_full_parser(monkeypatch, capsys):
    def full_parse(argv=None):
        raise AssertionError("full parser")

    monkeypatch.setattr(cli._parser(), "parse_args", full_parse)
    monkeypatch.setattr(sys, "argv", ["genera", "ty", "--n", "2"])
    assert run(capsys, "genus", "--series", "todd", "--n", "3") == \
        (EXIT_OK, "1\n", "")
    assert main() == EXIT_OK
    assert capsys.readouterr().out == "1 - y + y^2\n"
    for argv in (["--output", "json", "ty", "--n", "2"],
                 ["ty", "--n", "2", "extra"]):
        with pytest.raises(AssertionError, match="full parser"):
            main(argv)


def test_cached_parser_keeps_no_state(capsys):
    # one parser serves every call of a process: each call must still
    # match a fresh process, whatever the calls before it did
    calls = [
        ["genus", "--series", "nosuch", "--n", "3"],          # argparse: 2
        ["genus", "--series", "todd", "--n", "-1"],           # validation: 3
        ["genus", "--series", "hirzebruch", "--n", "5"],
        ["ty", "--n", "4", "--output", "json"],
        ["stringy", "euler", str(FIXTURES / "blowup_c2.json")],
        ["genus", "--series", "todd", "--n", "3", "extra"],   # argparse: 2
        ["--output", "json", "ty", "--n", "2"],                # argparse: 2
        ["jets", "oracle", "--dim", "x", "--exponents", "1"],  # argparse: 2
        ["hrr", "--n", "11", "--d", "30"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    codes = []
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "genera.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, out.out, out.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [2, EXIT_VALIDATION, EXIT_OK, EXIT_OK, EXIT_OK, 2, 2, 2,
                     EXIT_OK]
