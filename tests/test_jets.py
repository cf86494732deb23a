"""Jet-space counting oracle for monomial divisors."""

import random
from itertools import product
from pathlib import Path

import pytest

from genera import jets
from genera.cli import EXIT_MATH, EXIT_OK, EXIT_VALIDATION, main
from genera.jets import (JetSpec, cylinder_measure, oracle_integral,
                         partition_check)
from genera.k0 import LEFSCHETZ, K0Class, lefschetz
from genera.rings import MultiPoly, RationalFunction
from genera.stringy import (ResolutionDatum, load_datum, motivic_integral,
                            stringy_chi_y, stringy_E, stringy_euler)
from references import closed_integral, coordinate_datum, tail_bound_check

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

L = MultiPoly.var("L")


def test_spec_validation():
    with pytest.raises(ValueError):
        JetSpec(5, (1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        JetSpec(1, (1,), 100)
    with pytest.raises(ValueError):
        JetSpec(2, (1,))
    with pytest.raises(ValueError):
        JetSpec(1, (-1,))


def test_cylinder_measure_examples():
    spec = JetSpec(1, (1,), 8)
    assert cylinder_measure(spec, 2) == (L - 1) * L ** (-2)
    zero = JetSpec(1, (0,), 8)
    assert cylinder_measure(zero, 0) == L
    assert cylinder_measure(zero, 3) == MultiPoly.const(0)
    diag = JetSpec(2, (1, 1), 8)
    assert cylinder_measure(diag, 1) == 2 * (L - 1) ** 2 * L ** (-1)


def test_stabilization():
    for level in (5, 9, 17):
        spec = JetSpec(2, (2, 1), level)
        assert cylinder_measure(spec, 4) == \
            cylinder_measure(JetSpec(2, (2, 1), 4), 4)
    with pytest.raises(ValueError):
        cylinder_measure(JetSpec(1, (1,), 2), 5)


def test_closed_form_examples():
    assert closed_integral(JetSpec(1, (1,), 4)) == \
        RationalFunction(L ** 2, L + 1)
    assert closed_integral(JetSpec(1, (0,), 4)) == RationalFunction(L)
    # Fubini: d = 2, a = (1, 0)
    assert closed_integral(JetSpec(2, (1, 0), 4)) == \
        RationalFunction(L ** 3, L + 1)


def test_oracle_verdicts():
    for d in (1, 2):
        for exponents in product((0, 1, 2, 3), repeat=d):
            spec = JetSpec(d, exponents, 24)
            partial, closed, verdict = oracle_integral(spec, 24)
            assert verdict, (d, exponents)
            assert tail_bound_check(spec, 24), (d, exponents)


def test_total_measure_partition():
    for d in (1, 2):
        for exponents in product((0, 1, 2), repeat=d):
            assert partition_check(JetSpec(d, exponents, 6))


def test_coordinate_datum_shape():
    datum = coordinate_datum(JetSpec(2, (1, 0), 4))
    assert len(datum.components) == 1
    from genera.k0 import euler_of_class
    total = sum(datum.strata, K0Class.zero())
    # [C^2] has chi = 1
    assert euler_of_class(total) == 1


def reference_strata(spec: JetSpec) -> tuple:
    """coordinate_datum's strata by K0Class arithmetic: free * torus^j
    at a mask that misses j of the m components."""
    m = sum(a > 0 for a in spec.exponents)
    free = lefschetz(1) ** (spec.dimension - m) \
        if spec.dimension > m else K0Class.point()
    torus = lefschetz(1) - K0Class.point()
    return tuple(free * torus ** (m - mask.bit_count())
                 for mask in range(1 << m))


def test_coordinate_datum_against_k0_arithmetic():
    for d in range(1, 5):
        for exponents in product((0, 1, 2), repeat=d):
            spec = JetSpec(d, exponents, 4)
            datum = coordinate_datum(spec)
            assert datum.strata == reference_strata(spec), exponents
            assert [a for _, a in datum.components] == \
                [a for a in exponents if a > 0]


ORACLE_SPECS = [(1, (0,)), (1, (2,)), (2, (0, 0)), (2, (1, 3)),
                (3, (1, 0, 2)), (4, (0, 1, 0, 2))]


def oracle_exit(dim, exponents) -> int:
    return main(["jets", "oracle", "--dim", str(dim), "--exponents",
                 ",".join(map(str, exponents)), "--pmax", "3",
                 "--output", "json"])


def test_a_shifted_closed_numerator_fails_the_verdict(monkeypatch, capsys):
    # negative control: the closed form times L disagrees with the fold
    honest = jets._closed_parts
    for dim, exponents in ORACLE_SPECS:
        assert oracle_integral(JetSpec(dim, exponents, 3), 3)[2]
        assert oracle_exit(dim, exponents) == EXIT_OK
    monkeypatch.setattr(jets, "_closed_parts",
                        lambda spec: (honest(spec)[0].shift(1),
                                      honest(spec)[1]))
    for dim, exponents in ORACLE_SPECS:
        assert not oracle_integral(JetSpec(dim, exponents, 3), 3)[2]
        assert oracle_exit(dim, exponents) == EXIT_MATH
    capsys.readouterr()


def test_a_changed_stratum_fails_the_verdict(monkeypatch, capsys):
    # negative control: one stratum of the verdict's Dense table plus a
    # point still passes the fold's own open/closed check, but no longer
    # matches the closed form
    honest = jets._coordinate_strata

    def bumped(spec):
        components, table = honest(spec)
        return components, [table[0] + 1] + table[1:]

    monkeypatch.setattr(jets, "_coordinate_strata", bumped)
    for dim, exponents in ORACLE_SPECS:
        assert not oracle_integral(JetSpec(dim, exponents, 3), 3)[2]
        assert oracle_exit(dim, exponents) == EXIT_MATH
    capsys.readouterr()


def test_coordinate_datum_is_the_image_of_the_verdict_table():
    rng = random.Random(23)
    for _ in range(40):
        dim = rng.randint(1, 4)
        spec = JetSpec(dim, tuple(rng.randint(0, 3) for _ in range(dim)),
                       rng.randint(0, 6))
        components, table = jets._coordinate_strata(spec)
        datum = coordinate_datum(spec)
        assert datum.components == components
        assert datum.strata == tuple(
            K0Class(part.to_poly(), {"L": LEFSCHETZ}) for part in table)
        assert len(set(map(id, table))) == len(components) + 1


def budget_exit(exponents) -> int:
    return main(["jets", "oracle", "--dim", str(len(exponents)),
                 "--exponents", ",".join(map(str, exponents))])


def test_denominator_budget_on_the_oracle(capsys):
    # the sum of a_i + 1 is the degree of the integral's denominator
    for exponents, total in (((4096,), 4097), ((2047, 2048), 4097)):
        assert budget_exit(exponents) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: the sum of r * (a_i + 1) over the components "
                       f"is {total}; at most 4096 is supported\n")
    assert budget_exit((2046, 2048)) == EXIT_OK
    assert "verdict  True" in capsys.readouterr().out


def test_the_budget_is_checked_before_the_closed_form(monkeypatch):
    # the closed form and the partial sum build polynomials of the
    # exponents' degree; past the budget neither may be reached
    def unreachable(*args):
        raise AssertionError("built past the denominator budget")

    monkeypatch.setattr(jets, "_closed_parts", unreachable)
    monkeypatch.setattr(jets, "_partial", unreachable)
    for exponents in ((4096,), (10 ** 9,), (3, 4093)):
        spec = JetSpec(len(exponents), exponents)
        with pytest.raises(ValueError, match="at most 4096 is supported"):
            oracle_integral(spec, 4)


def copied(datum: ResolutionDatum) -> ResolutionDatum:
    """The datum with every stratum an equal but distinct object."""
    strata = tuple(K0Class(cls.poly, cls.atoms) for cls in datum.strata)
    return ResolutionDatum(datum.flavor, datum.index_r, datum.components,
                           strata)


def test_repeated_stratum_objects_fold_like_copies():
    curve = load_datum(str(FIXTURES / "curve_atom.json")).strata
    data = [coordinate_datum(JetSpec(4, (1, 2, 0, 3), 4))]
    for r in (1, 2):
        data.append(ResolutionDatum("stringy", r, (("E", 1), ("F", 2)),
                                    (curve[0], curve[2], curve[0],
                                     curve[2])))
    for datum in data:
        assert len(set(map(id, datum.strata))) < len(datum.strata)
        twin = copied(datum)
        assert len(set(map(id, twin.strata))) == len(twin.strata)
        assert motivic_integral(datum) == motivic_integral(twin)
        assert stringy_E(datum) == stringy_E(twin)
        assert stringy_euler(datum) == stringy_euler(twin)


def test_fraction_values_build_no_multipoly(monkeypatch):
    # the fold's values reach their printed lowest terms on Dense parts:
    # once the datum is loaded, the verbs and their text construct no
    # MultiPoly, nor does the oracle's closed form
    built = []
    real = MultiPoly.__init__

    def counted(self, *args):
        built.append(1)
        real(self, *args)

    verbs = {"blowup_c2_x8": (motivic_integral, stringy_E, stringy_chi_y),
             "index2_half": (motivic_integral, stringy_E)}
    for name, funcs in verbs.items():
        d = load_datum(str(FIXTURES / f"{name}.json"))
        monkeypatch.setattr(MultiPoly, "__init__", counted)
        texts = [str(f(d)) for f in funcs]
        monkeypatch.undo()
        assert built == [], (name, len(built))
        assert all(texts)
    spec = JetSpec(3, (1, 2, 0), 8)
    monkeypatch.setattr(MultiPoly, "__init__", counted)
    partial, closed, verdict = oracle_integral(spec, 8)
    assert len(built) == 1  # the partial sum, returned as a MultiPoly
    text = str(closed)
    monkeypatch.undo()
    assert len(built) == 1 and verdict
    assert text == str(closed_integral(spec))
    # negative control: the views are MultiPolys, built on first read
    monkeypatch.setattr(MultiPoly, "__init__", counted)
    closed.numerator
    monkeypatch.undo()
    assert len(built) == 3
