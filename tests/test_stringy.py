"""Stringy invariants from resolution data."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from genera import stringy
from genera.cli import EXIT_VALIDATION, main
from genera.expr import parse_expr
from genera.k0 import (Atom, K0Class, LEFSCHETZ, chi_y_of_class,
                       lefschetz)
from genera.rings import MultiPoly, RationalFunction, TruncSeries, _parts_in
from genera.stringy import (ConsistencyError, ResolutionDatum, StringyValue,
                            ValidationError, datum_from_dict,
                            invariance_check, jacobian_factor_limit,
                            load_datum, motivic_integral, rewrite_uv,
                            stringy_E, stringy_chi_y, stringy_euler)
from references import euler_formula, product_datum, stringy_value_from_expr

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

L = MultiPoly.var("L")
Y = MultiPoly.var("y")


def blowup_datum():
    return ResolutionDatum("stringy", 1, (("E", Fraction(1)),), (
        lefschetz(2) - 1,
        lefschetz(1) + 1,
    ))


def identity_datum():
    return ResolutionDatum("stringy", 1, (), (lefschetz(2),))


def a1_datum():
    return ResolutionDatum("stringy", 1, (("E", Fraction(0)),), (
        lefschetz(2) - 1,
        lefschetz(1) + 1,
    ))


def test_datum_validation():
    with pytest.raises(ValidationError):
        ResolutionDatum("stringy", 1, (("E", Fraction(-1)),),
                        (lefschetz(2), lefschetz(1)))
    with pytest.raises(ValidationError):
        ResolutionDatum("stringy", 2, (("E", Fraction(1, 3)),),
                        (lefschetz(2), lefschetz(1)))
    with pytest.raises(ValidationError):
        ResolutionDatum("arc", 1, (("E", Fraction(1, 2)),),
                        (lefschetz(2), lefschetz(1)))
    with pytest.raises(ValidationError):
        ResolutionDatum("stringy", 1, (("E", Fraction(1)),),
                        (lefschetz(2),))


def test_motivic_integral_fixtures():
    assert motivic_integral(blowup_datum()) == RationalFunction(L ** 2)
    assert motivic_integral(identity_datum()) == RationalFunction(L ** 2)
    # crepant: all a_i = 0 gives the total class of the resolution space
    assert motivic_integral(a1_datum()) == RationalFunction(L ** 2 + L)


def test_rewrite_uv_canonical():
    u, v, t = (MultiPoly.var(n) for n in "uvt")
    assert rewrite_uv(u * v, 1) == t
    assert rewrite_uv(u ** 2 * v, 2) == u * t ** 2
    assert rewrite_uv(u + v, 3) == u + v


def test_stringy_value_is_canonical_when_built():
    u, v, t = (MultiPoly.var(n) for n in "uvt")
    assert StringyValue(u ** 2 * v, 1, 2).num == u * t ** 2
    assert StringyValue(u * v - 1, t - 1, 1) == StringyValue(1, 1, 1)
    with pytest.raises(ValidationError):
        StringyValue(MultiPoly.const(1), u - 1, 1)
    with pytest.raises(ValidationError):
        StringyValue(t, t * v + 1, 1)


@pytest.mark.parametrize("r", (1, 2, 3))
def test_stringy_values_are_in_lowest_terms(r):
    # a common factor f in Z[t] cancels: equal values with equal hashes;
    # the denominator has content 1 and a positive leading coefficient,
    # and no factor in common with all the (u, v)-parts of the numerator
    sympy = pytest.importorskip("sympy")
    ts = sympy.Symbol("t")
    rng = random.Random(25 + r)

    def poly_in(names, terms):
        return sum((MultiPoly.monomial(
            {n: rng.randint(0, 3) for n in names}, rng.randint(-4, 4))
            for _ in range(terms)), MultiPoly.const(0))

    def in_t(poly):
        return sympy.Add(*(Fraction(c) * ts ** (e[0] if e else 0)
                           for e, c in poly.terms.items()))

    for _ in range(60):
        n = poly_in("uvt", rng.randint(0, 4))
        d, f = (poly_in("t", rng.randint(1, 4)) for _ in range(2))
        if d.is_zero() or f.is_zero():
            continue
        value = StringyValue(n, d, r)
        scaled = StringyValue(n * f, d * f, r)
        assert scaled == value and hash(scaled) == hash(value)
        assert StringyValue(n, d, r % 3 + 1) != value
        den = [Fraction(value.den.terms[e]) for e in sorted(value.den.terms)]
        assert all(c.denominator == 1 for c in den) and den[-1] > 0
        assert math.gcd(*(c.numerator for c in den)) == 1
        # the numerator times a power of t, which den does not share
        num = value.num * MultiPoly.var("t") ** 8
        parts = {}  # (u, v)-exponents -> that part of the numerator, in t
        for expo, c in num.terms.items():
            split = dict(zip(num.vars, expo))
            te, key = split.pop("t"), tuple(split.values())
            parts[key] = parts.get(key, 0) + Fraction(c) * ts ** te
        common = sympy.gcd_list([*parts.values(), in_t(value.den)])
        assert in_t(value.den).subs(ts, 0) != 0
        assert sympy.Poly(common, ts).degree() <= 0


def test_fixture_E_functions_hash_by_value():
    values = [stringy_E(load_datum(str(FIXTURES / name))) for name in (
        "identity_c2.json", "blowup_c2.json", "a1_cone.json",
        "blowup_c2_bad.json", "index2_half.json")]
    assert len(set(values)) == 4
    assert len({hash(e) for e in values}) == 4
    assert values[0] == values[1] and hash(values[0]) == hash(values[1])


def test_equal_stringy_values_hash_alike():
    pairs = [(stringy_value_from_expr("u*v"), stringy_value_from_expr("t")),
             (stringy_value_from_expr("u^3*v^2 + 1", 2),
              stringy_value_from_expr("u*t^4 + 1", 2)),
             (stringy_E(blowup_datum()), stringy_value_from_expr("(u*v)^2")),
             (stringy_E(a1_datum()), stringy_value_from_expr("t^2 + t"))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert len({a for pair in pairs for a in pair}) == len(pairs)
    assert stringy_value_from_expr("t", 2) != stringy_value_from_expr("t")


def test_stringy_values_equal_only_stringy_values():
    # equal to a scalar, the values of "1" at index 1 and 2 would both
    # equal 1 without equalling each other, and {value, 1} would have two
    # equal elements
    one, half = stringy_value_from_expr("1"), stringy_value_from_expr("1", 2)
    for scalar in (1, Fraction(1), MultiPoly.const(1)):
        assert one != scalar and half != scalar
        assert len({one, scalar}) == 2
    assert one == StringyValue(1, 1, 1) and one != half


def test_stringy_E_fixtures():
    uv2 = stringy_value_from_expr("(u*v)^2")
    assert stringy_E(blowup_datum()) == uv2
    assert stringy_E(identity_datum()) == uv2
    assert stringy_E(a1_datum()) == stringy_value_from_expr("(u*v)^2 + u*v")


def test_stringy_chi_y_fixtures():
    assert stringy_chi_y(blowup_datum()) == RationalFunction(Y ** 2)
    assert stringy_chi_y(identity_datum()) == RationalFunction(Y ** 2)
    # smooth space, empty divisor: plain chi_y of the class
    smooth = ResolutionDatum("stringy", 1, (),
                             (lefschetz(1) + 1,))
    assert stringy_chi_y(smooth) == \
        RationalFunction(chi_y_of_class(lefschetz(1) + 1))


def test_stringy_euler_fixtures():
    assert stringy_euler(blowup_datum()) == 1
    assert stringy_euler(identity_datum()) == 1
    assert stringy_euler(a1_datum()) == 2


def test_fubini_product():
    d = product_datum(blowup_datum(), a1_datum())
    assert motivic_integral(d) == \
        motivic_integral(blowup_datum()) * motivic_integral(a1_datum())
    assert stringy_euler(d) == \
        stringy_euler(blowup_datum()) * stringy_euler(a1_datum())


def test_repeated_product_renames_uniquely():
    d = load_datum(str(FIXTURES / "blowup_c2.json"))
    triple = product_datum(product_datum(d, d), d)
    assert [name for name, _ in triple.components] == ["E", "E'", "E''"]
    assert stringy_euler(triple) == stringy_euler(d) ** 3


def test_fractional_index():
    # one component, a = 1/2, r = 2: denominator (L^{3/2} - 1) via t
    datum = ResolutionDatum("stringy", 2, (("E", Fraction(1, 2)),), (
        lefschetz(2) - 1,
        lefschetz(1) + 1,
    ))
    value = motivic_integral(datum)
    t = MultiPoly.var("t")
    num = (t ** 4 - 1) * (t ** 3 - 1) + (t ** 2 + 1) * (t ** 2 - 1)
    assert value == RationalFunction(num, t ** 3 - 1)


def test_invariance_report():
    rep = invariance_check(identity_datum(), blowup_datum())
    assert rep.all_equal
    rep = invariance_check(blowup_datum(), blowup_datum())
    assert rep.all_equal
    bad = ResolutionDatum("stringy", 1, (("E", Fraction(2)),), (
        lefschetz(2) - 1,
        lefschetz(1) + 1,
    ))
    rep = invariance_check(identity_datum(), bad)
    assert not rep.all_equal


def test_jacobian_factor_limit():
    for a in (1, 2, 3):
        series = jacobian_factor_limit(a, 6)
        assert series[0] == RationalFunction(1)
    flat = jacobian_factor_limit(0, 6)
    assert all(c == RationalFunction(1 if k == 0 else 0)
               for k, c in enumerate(flat.coeffs))
    with pytest.raises(ValidationError):
        jacobian_factor_limit(-1, 4)


def long_division(num, den, var, order):
    """num/den by long division, coefficient lists to a TruncSeries."""
    d0 = RationalFunction(den[0])
    out = []
    for kk in range(order + 1):
        acc = RationalFunction(num[kk])
        for j in range(kk):
            acc = acc - out[j] * RationalFunction(den[kk - j])
        out.append(acc / d0)
    return TruncSeries(var, order, out)


def test_jacobian_factor_against_long_division():
    order = 6
    exp = [Fraction((-1) ** k, math.factorial(k)) for k in range(order + 1)]
    one = [1] + [0] * order
    for a in range(5):
        ya1 = Y ** (a + 1)
        num = [(Y - 1) * (c - ya1 * e) for c, e in zip(one, exp)]
        den = [(ya1 - 1) * (c - Y * e) for c, e in zip(one, exp)]
        series = jacobian_factor_limit(a, order)
        if a == 0:
            expected = [RationalFunction(c) for c in one]
        else:
            expected = long_division(num, den, "e", order).coeffs
        assert len(series.coeffs) == order + 1
        for got, want in zip(series.coeffs, expected):
            assert got == want, a


def test_jacobian_check_is_live(monkeypatch):
    real = TruncSeries.invert

    def perturbed(self):
        out = real(self)
        return out + TruncSeries.from_coeffs(out.var, [0] * out.order + [1])

    monkeypatch.setattr(TruncSeries, "invert", perturbed)
    with pytest.raises(ConsistencyError):
        jacobian_factor_limit(2, 4)


def test_euler_formula_reads_each_class_once(monkeypatch):
    # the 256 strata of the eight-fold blow-up share nine parts objects
    d = load_datum(str(FIXTURES / "blowup_c2_x8.json"))
    calls = []
    real = stringy._euler_of_parts
    monkeypatch.setattr(stringy, "_euler_of_parts",
                        lambda split, atoms: calls.append(split)
                        or real(split, atoms))
    assert stringy_euler(d) == 1
    assert 0 < len(calls) <= 9


def test_euler_check_is_live(monkeypatch):
    # either path off by one must fail the check
    d = load_datum(str(FIXTURES / "index2_half.json"))
    for path in ("_euler_formula", "_euler_limit"):
        real = getattr(stringy, path)
        with monkeypatch.context() as patch:
            patch.setattr(stringy, path,
                          lambda *args, real=real: real(*args) + 1)
            with pytest.raises(ConsistencyError):
                stringy_euler(d)
            with pytest.raises(ConsistencyError):
                invariance_check(blowup_datum(), blowup_datum())


def test_jacobian_factor_e1_value():
    # hand derivative at e = 0 of the a = 1 factor: y/(y^2 - 1)
    series = jacobian_factor_limit(1, 2)
    assert series[1] == RationalFunction(Y, Y ** 2 - 1)


def test_json_fixtures_load():
    blow = load_datum(str(FIXTURES / "blowup_c2.json"))
    assert motivic_integral(blow) == RationalFunction(L ** 2)
    ident = load_datum(str(FIXTURES / "identity_c2.json"))
    assert invariance_check(ident, blow).all_equal
    a1 = load_datum(str(FIXTURES / "a1_cone.json"))
    assert stringy_euler(a1) == 2
    bad = load_datum(str(FIXTURES / "blowup_c2_bad.json"))
    assert not invariance_check(ident, bad).all_equal


def test_json_schema_errors():
    with pytest.raises(ValidationError):
        datum_from_dict({"flavor": "stringy"})
    with pytest.raises(ValidationError):
        datum_from_dict({
            "flavor": "stringy", "index_r": 1,
            "components": [{"name": "E", "a": "1"}],
            "strata": [{"subset": ["nope"], "class": "L"}],
        })


TWO_COMPONENTS = {"flavor": "stringy", "index_r": 1,
                  "components": [{"name": "E", "a": "1"},
                                 {"name": "F", "a": "2"}]}


def entries(*subsets):
    return [{"subset": s, "class": "1"} for s in subsets]


@pytest.mark.parametrize("strata, message", [
    (entries([], ["E"], ["G"]), "unknown component 'G'"),
    (entries([], ["E"], ["F"], ["E", "F"], ["F", "E"]),
     "duplicate stratum entry"),
    (entries([], ["E"], ["E"]), "duplicate stratum entry"),
    (entries([], ["E"], ["E", "F"]), r"missing stratum entry \{F\}"),
    (entries(["E"], ["F"]), r"missing stratum entry \{\}"),
    ([{"class": "1"}], "stratum entry misses key 'subset'"),
    ([{"subset": []}], "stratum entry misses key 'class'"),
])
def test_loader_stratum_errors(strata, message):
    with pytest.raises(ValidationError, match=message):
        datum_from_dict({**TWO_COMPONENTS, "strata": strata})


def test_loader_fills_the_table_by_bitmask():
    data = {**TWO_COMPONENTS, "strata": [
        {"subset": ["F", "E"], "class": "3"}, {"subset": ["F"], "class": "2"},
        {"subset": [], "class": "L"}, {"subset": ["E"], "class": "1"}]}
    assert datum_from_dict(data).strata == (
        lefschetz(1), K0Class.point(), K0Class.point(2), K0Class.point(3))


def test_datum_takes_only_a_tuple_of_two_to_the_k_classes():
    comps = (("E", Fraction(1)),)
    for strata in ([lefschetz(2), lefschetz(1)],
                   {(): lefschetz(2), (0,): lefschetz(1)},
                   (lefschetz(2),),
                   (lefschetz(2), lefschetz(1), lefschetz(1))):
        with pytest.raises(ValidationError, match="tuple of 2 classes"):
            ResolutionDatum("stringy", 1, comps, strata)


def test_component_cap_is_checked_before_the_strata():
    # the unparsable class shows that no stratum was read
    k = stringy.MAX_COMPONENTS + 1
    data = {"flavor": "stringy", "index_r": 1,
            "components": [{"name": f"E{i}", "a": "1"} for i in range(k)],
            "strata": [{"subset": [], "class": "L +"}]}
    with pytest.raises(ValidationError, match="at most 14 components"):
        datum_from_dict(data)
    data["components"].pop()
    with pytest.raises(ValueError, match="unexpected token"):
        datum_from_dict(data)


def test_loader_parses_each_class_text_once():
    d = load_datum(str(FIXTURES / "blowup_c2_x8.json"))
    assert len(d.strata) == 256
    assert len({id(cls) for cls in d.strata}) == 9
    assert len({id(split) for split in d.parts}) == 9
    # the fixture is the 8-fold product of blowup_c2.json
    blow = load_datum(str(FIXTURES / "blowup_c2.json"))
    product = blow
    for _ in range(7):
        product = product_datum(product, blow)
    assert d.strata == product.strata
    assert [a for _, a in d.components] == [a for _, a in product.components]


def repeated(*texts):
    """TWO_COMPONENTS with the four strata classes in mask order."""
    subsets = ([], ["E"], ["F"], ["E", "F"])
    return {**TWO_COMPONENTS, "strata": [
        {"subset": s, "class": t} for s, t in zip(subsets, texts)]}


def test_shared_class_gives_the_values_of_distinct_texts():
    shared = datum_from_dict(repeated("L^2 + L", "L + 1", "L + 1", "L + 1"))
    apart = datum_from_dict(repeated("L^2 + L", "L + 1", "1 + L", "(L+1)"))
    assert shared.strata[1] is shared.strata[2] is shared.strata[3]
    assert len({id(cls) for cls in apart.strata}) == 4
    assert shared.strata == apart.strata
    assert motivic_integral(shared) == motivic_integral(apart)
    assert stringy_E(shared) == stringy_E(apart)
    assert stringy_euler(shared) == stringy_euler(apart)


@pytest.mark.parametrize("texts", [
    ("L", "L +", "L +", "1"),
    ("L", ["L"], ["L"], "1"),
    ("L", 3, 3, "1"),
])
def test_repeated_bad_class_exits_3(tmp_path, capsys, texts):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(repeated(*texts)))
    assert main(["stringy", "integral", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


# the resolution-datum fixtures that load
LOADING_FIXTURES = (
    "a1_cone", "a1_cone_r2", "atom_t_index2", "big_coefficients",
    "blowup_c2", "blowup_c2_bad", "blowup_c2_x8", "budget_edge",
    "budget_eight", "curve_atom", "identity_c2", "index2_half")


def random_text_datum(k: int, r: int, seed: int) -> dict:
    """JSON datum with k components at index r whose class texts are
    random sums of monomials in L and the atoms C and T, a third of the
    strata drawing from a pool of three shared texts."""
    rng = random.Random(seed)

    def text():
        terms = []
        for _ in range(rng.randint(1, 4)):
            mono = "*".join(f"{n}^{rng.randint(1, 3)}" for n in "LCT"
                            if rng.random() < 0.5)
            c = rng.randint(-5, 5)
            terms.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(terms)

    pool = [text() for _ in range(3)]
    names = [f"E{i}" for i in range(k)]
    return {"flavor": "stringy", "index_r": r,
            "atoms": [{"name": "C", "dim": 1, "e": "1 - 2*u - 2*v + u*v"},
                      {"name": "T", "dim": 1, "e": "u*v - 1"}],
            "components": [{"name": n, "a": f"{rng.randint(1 - r, 2 * r)}/{r}"}
                           for n in names],
            "strata": [{"subset": [n for i, n in enumerate(names)
                                   if m >> i & 1],
                        "class": rng.choice(pool) if rng.random() < 0.3
                        else text()} for m in range(1 << k)]}


def held_form_cases() -> list:
    cases = [json.loads((FIXTURES / f"{name}.json").read_text())
             for name in LOADING_FIXTURES]
    return cases + [random_text_datum(k, r, 10 * k + r)
                    for r in (1, 2, 3) for k in range(5)]


def constructed(data: dict) -> ResolutionDatum:
    """The datum of the JSON data through the public constructor: one
    K0Class per stratum, each class text parsed on its own."""
    atoms = {"L": LEFSCHETZ}
    for a in data.get("atoms", ()):
        atoms[a["name"]] = Atom(a["name"], a["dim"],
                                parse_expr(a["e"], variables=("u", "v")))
    names = [c["name"] for c in data["components"]]
    classes = [None] * (1 << len(names))
    for entry in data["strata"]:
        mask = sum(1 << names.index(n) for n in entry["subset"])
        classes[mask] = K0Class(
            parse_expr(entry["class"], variables=tuple(atoms)), atoms)
    return ResolutionDatum(
        data["flavor"], data["index_r"],
        tuple((c["name"], Fraction(str(c["a"]))) for c in data["components"]),
        tuple(classes))


@pytest.mark.parametrize("data", held_form_cases())
def test_loader_parts_are_the_constructor_split(data):
    d, built = datum_from_dict(data), constructed(data)
    r = d.index_r
    assert d.var == ("L" if r == 1 else "t")
    # rings._parts_in of each parsed class is the reference split
    assert list(d.parts) == [_parts_in(cls.poly, "L", d.var, r)
                             for cls in built.strata]
    assert built.parts == d.parts and built.atoms == d.atoms
    assert built == d and hash(built) == hash(d)
    # the K0Class view, built from the parts, prints each class as given
    assert d.strata == built.strata
    assert list(map(str, d.strata)) == list(map(str, built.strata))
    # one view class per distinct parts object
    assert len(set(map(id, d.strata))) == len(set(map(id, d.parts)))


@pytest.mark.parametrize("data", held_form_cases())
def test_int_euler_formula_against_the_fraction_fold(data):
    d = datum_from_dict(data)
    assert stringy._euler_formula(d) == euler_formula(d)


def test_datum_equality_follows_the_held_form():
    d = load_datum(str(FIXTURES / "curve_atom.json"))
    strata = list(d.strata)
    twin = ResolutionDatum(d.flavor, d.index_r, d.components, tuple(strata))
    assert twin == d and hash(twin) == hash(d) and len({twin, d}) == 1
    strata[3] = strata[3] + 1
    assert ResolutionDatum(d.flavor, d.index_r, d.components,
                           tuple(strata)) != d
    assert ResolutionDatum(d.flavor, 2, d.components, d.strata) != d
    with pytest.raises(AttributeError):
        d.index_r = 2


def test_two_atoms_with_one_name_are_rejected():
    other = Atom("C", 1, MultiPoly.var("u") * MultiPoly.var("v"))
    curve = load_datum(str(FIXTURES / "curve_atom.json")).strata[1]
    with pytest.raises(ValidationError, match="two different atoms"):
        ResolutionDatum("stringy", 1, (("E", 1),),
                        (curve, K0Class.atom(other)))
    with pytest.raises(ValidationError, match="unknown atom 'X'"):
        stringy._split({(("X", 1),): 1}, {"L": LEFSCHETZ}, {}, "L", 1)


@pytest.mark.parametrize("text, message", [
    ("1/2*L", "K0 classes have integer coefficients"),
    ("L^-1 + 1", "negative atom powers are not in K0"),
    ("1/2*L + L^-1", "K0 classes have integer coefficients"),
    ("L^-1 + 1/2*L", "negative atom powers are not in K0"),
    ("X + 1", "unknown variable 'X' (at offset 0)"),
    ("1/2 + X", "unknown variable 'X' (at offset 6)"),
])
def test_bad_class_text_exits_3_with_its_message(tmp_path, capsys, text,
                                                 message):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(repeated(text, "L", "L", "1")))
    assert main(["stringy", "integral", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"


def test_integral_fractions_are_integer_coefficients():
    # 2/2 and 1/2 + 1/2 are the ints K0 asks for
    d = datum_from_dict(repeated("2/2*L + L^0", "1/2 + 1/2", "L", "1"))
    assert d == datum_from_dict(repeated("L + 1", "1", "L", "1"))


def test_loading_and_euler_build_no_class_per_stratum(monkeypatch):
    # the loader splits the class texts straight into the parts, and the
    # Euler formula reads them: no MultiPoly and no K0Class
    built = {MultiPoly: 0, K0Class: 0}
    for cls in built:
        def counted(self, *args, cls=cls, real=cls.__init__):
            built[cls] += 1
            real(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    d = load_datum(str(FIXTURES / "blowup_c2_x8.json"))
    assert stringy_euler(d) == 1
    assert built == {MultiPoly: 0, K0Class: 0}
    # negative control: the K0Class view builds one class per parts object
    assert len(d.strata) == 256
    assert built == {MultiPoly: 9, K0Class: 9}
