"""Characteristic series catalog and genus evaluation."""

import re
from fractions import Fraction
from math import comb as binomial, factorial

import pytest

from genera.catalog import (builtin_series, genus_logarithm,
                            genus_on_projective, ghrr_integrand,
                            hirzebruch_specialize, rescaled_series,
                            twisted_chi_y, unnormalize_invariance_check)
from genera.rings import MultiPoly, TruncSeries

Y = MultiPoly.var("y")


def chi_y_poly(n):
    out = MultiPoly.const(0)
    for i in range(n + 1):
        out = out + (-Y) ** i
    return out


def test_builtin_expansions():
    td = builtin_series("todd", 4)
    assert list(td.coeffs) == [1, Fraction(1, 2), Fraction(1, 12), 0,
                               Fraction(-1, 720)]
    lg = builtin_series("lgenus", 4)
    assert list(lg.coeffs) == [1, 0, Fraction(1, 3), 0, Fraction(-1, 45)]
    ch = builtin_series("chern", 4)
    assert list(ch.coeffs) == [1, 1, 0, 0, 0]
    h1 = builtin_series("hirzebruch", 1)
    assert h1[0] == MultiPoly.const(1)
    assert h1[1] == (1 - Y) * Fraction(1, 2)


def test_unknown_series_rejected():
    with pytest.raises(ValueError):
        builtin_series("elliptic")


def test_genus_values():
    h = builtin_series("hirzebruch", 8)
    for n in range(9):
        assert genus_on_projective(h, n) == chi_y_poly(n)
    lg = builtin_series("lgenus", 8)
    for n in range(9):
        assert genus_on_projective(lg, n) == (1 if n % 2 == 0 else 0)
    assert genus_on_projective(builtin_series("chern", 4), 3) == 4
    assert genus_on_projective(builtin_series("ahat", 4), 2) == \
        Fraction(-1, 8)


def test_genus_truncation_guard():
    with pytest.raises(ValueError):
        genus_on_projective(builtin_series("todd", 3), 5)


def test_genus_logarithm():
    g = genus_logarithm(builtin_series("todd", 6), 6)
    assert list(g.coeffs) == [0] + [Fraction(1, k) for k in range(1, 7)]
    g = genus_logarithm(builtin_series("lgenus", 6), 6)
    assert list(g.coeffs) == [0, 1, 0, Fraction(1, 3), 0, Fraction(1, 5), 0]
    # (1/(1+y)) log((1+yt)/(1-t)): check via series of the closed form
    order = 6
    g = genus_logarithm(builtin_series("hirzebruch", order), order)
    log_part = TruncSeries.zero("t", order)
    for k in range(1, order + 1):
        term = (MultiPoly.const(1) - (-Y) ** k) * Fraction(1, k)
        log_part = log_part + TruncSeries.from_coeffs(
            "t", [0] * k + [1], order) * term
    # multiply g by (1+y) and compare
    assert g.map_coeffs(lambda c: MultiPoly._coerce(c) * (1 + Y)) == \
        log_part.map_coeffs(MultiPoly._coerce)


def test_specializations():
    for y0, name in ((-1, "chern"), (0, "todd"), (1, "lgenus")):
        spec = hirzebruch_specialize(y0, 16)
        assert spec == builtin_series(name, 16)


def test_unnormalized_rescaling_invariance():
    assert unnormalize_invariance_check(builtin_series("chern", 6), 2)
    assert unnormalize_invariance_check(builtin_series("todd", 6), 1)
    g = ghrr_integrand(6)
    assert g.constant_term() == 1 + Y
    assert unnormalize_invariance_check(g, 1 + Y, n_max=6)
    with pytest.raises(ValueError):
        unnormalize_invariance_check(builtin_series("todd", 4), 0)


def test_rescaling_by_a_non_divisor_is_a_value_error():
    # a = 1 + y does not divide the constant term 1 of the Todd series
    for a, f in ((1 + Y, builtin_series("todd", 7)),
                 (MultiPoly.const(0), builtin_series("chern", 4)),
                 (Fraction(0), ghrr_integrand(4))):
        message = re.escape(f"a = {a} does not divide")
        with pytest.raises(ValueError, match=message):
            unnormalize_invariance_check(f, a)
        with pytest.raises(ValueError, match=message):
            rescaled_series(f, a)


def test_ghrr_integrand_genus_is_chi_y():
    g = ghrr_integrand(8)
    for n in range(7):
        assert genus_on_projective(g, n) == chi_y_poly(n)


def test_rescaled_series_shape():
    f = builtin_series("chern", 4)
    r = rescaled_series(f, 2)
    # (1 + 2z)/2 has constant term 1/2 and z-coefficient 1
    assert r[0] == Fraction(1, 2)
    assert r[1] == Fraction(1)


def test_twisted_chi_y():
    k = MultiPoly.var("k")
    assert twisted_chi_y(0, 5) == MultiPoly.const(1)
    t1 = twisted_chi_y(1, 3)
    assert t1.substitute_map({"k": 0}) == chi_y_poly(1)
    # chi(O(-2k)) + y*chi(O(-2-2k)) on the line
    assert t1 == 1 - Y - 2 * k - 2 * k * Y
    t2 = twisted_chi_y(2, 4)
    assert t2.substitute_map({"k": 0}) == chi_y_poly(2)
    # truncating at k_order keeps exactly the terms of k-degree <= k_order
    assert max(t2.coefficients_in("k")) == 2
    assert twisted_chi_y(2, 1) == sum(
        (c * k ** p for p, c in t2.coefficients_in("k").items() if p <= 1),
        MultiPoly.const(0))


def ahat_closed_form(n):
    if n % 2:
        return 0
    k = n // 2
    return Fraction((-1) ** k * binomial(2 * k, k), 16 ** k)


CLOSED_FORMS = {
    "hirzebruch": chi_y_poly,
    "todd": lambda n: 1,
    "lgenus": lambda n: 1 if n % 2 == 0 else 0,
    "chern": lambda n: n + 1,
    "ahat": ahat_closed_form,
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_genus_grid_closed_forms(name):
    f = builtin_series(name, 20)
    for n in range(21):
        assert genus_on_projective(f, n) == CLOSED_FORMS[name](n), (name, n)


@pytest.mark.parametrize("a", [2, Fraction(1, 3), 1 + Y],
                         ids=["2", "1/3", "1+y"])
def test_rescaled_series_coefficients(a):
    # c_0 -> c_0 / a and c_k -> c_k a^(k-1), against powers of a taken
    # one by one; a = 1 + y needs a constant term it divides
    series = [ghrr_integrand(7)] if a == 1 + Y else \
        [builtin_series("todd", 7), builtin_series("hirzebruch", 7)]
    for f in series:
        g = rescaled_series(f, a)
        assert g.order == 7
        assert MultiPoly._coerce(g[0]) * a == f[0]
        for k in range(1, 8):
            assert g[k] == f[k] * MultiPoly._coerce(a) ** (k - 1)
        assert all(genus_on_projective(f, n) == genus_on_projective(g, n)
                   for n in range(5))


# Reference builds by series inversion over Fraction, a path apart from
# the tangent-number build of the library.

def todd_by_inversion(order):
    # z / (1 - e^{-z}) = 1 / sum_{k>=0} (-1)^k z^k / (k+1)!
    fact = 1
    coeffs = []
    for k in range(order + 1):
        fact *= (k + 1)
        coeffs.append(Fraction((-1) ** k, fact))
    return TruncSeries("z", order, coeffs).invert()


def lgenus_by_inversion(order):
    # z / tanh z = cosh z / (sinh z / z)
    sinh_over_z = [Fraction(0)] * (order + 1)
    cosh = [Fraction(0)] * (order + 1)
    fact = 1
    for k in range(order + 1):
        if k:
            fact *= k
        if k % 2 == 0:
            cosh[k] = Fraction(1, fact)
            sinh_over_z[k] = Fraction(1, fact * (k + 1))
    return (TruncSeries("z", order, cosh)
            * TruncSeries("z", order, sinh_over_z).invert())


def ahat_by_inversion(order):
    # z / (2 sinh(z/2)) = 1 / (sum_{k even} (z/2)^k / (k+1)!)
    coeffs = [Fraction(0)] * (order + 1)
    fact = 1
    for k in range(order + 1):
        if k:
            fact *= k
        if k % 2 == 0:
            coeffs[k] = Fraction(1, fact * (k + 1) * 2 ** k)
    return TruncSeries("z", order, coeffs).invert()


def hirzebruch_by_inversion(order):
    # t_k (1+y)^k at z^k, less z*y
    cs = [(1 + Y) ** k * t
          for k, t in enumerate(todd_by_inversion(order).coeffs)]
    if order >= 1:
        cs[1] = cs[1] - Y
    return TruncSeries("z", order, cs)


def ghrr_by_inversion(order):
    # (1 + y e^{-z}) z / (1 - e^{-z})
    emz = TruncSeries("z", order, [Fraction((-1) ** k, factorial(k))
                                   for k in range(order + 1)])
    return (emz * Y + 1) * todd_by_inversion(order)


@pytest.mark.parametrize("name, reference", [
    ("todd", todd_by_inversion), ("lgenus", lgenus_by_inversion),
    ("ahat", ahat_by_inversion), ("hirzebruch", hirzebruch_by_inversion),
    ("ghrr", ghrr_by_inversion)])
def test_series_equal_inversion_builds(name, reference):
    for order in range(41):
        f = ghrr_integrand(order) if name == "ghrr" else \
            builtin_series(name, order)
        assert f == reference(order), (name, order)


def test_series_against_sympy():
    sympy = pytest.importorskip("sympy")
    z, w, y = sympy.symbols("z w y")
    order = 16

    def expansion(f, var=z):
        return sympy.series(f, var, 0, order + 1).removeO()

    # sympy.series in z does not finish in minutes on the y-deformed
    # form, so that one is expanded in w = z(1+y) and substituted
    todd_w = expansion(w / (1 - sympy.exp(-w)), w)
    forms = {
        "chern": 1 + z,
        "todd": todd_w.subs(w, z),
        "lgenus": expansion(z / sympy.tanh(z)),
        "ahat": expansion((z / 2) / sympy.sinh(z / 2)),
        "hirzebruch": todd_w.subs(w, z * (1 + y)) - z * y,
    }
    for name, form in forms.items():
        form = sympy.expand(form)
        series = builtin_series(name, order)
        for k in range(order + 1):
            c = MultiPoly._coerce(series[k])
            ours = sympy.Add(*(
                sympy.Rational(q.numerator, q.denominator)
                * sympy.Mul(*(sympy.Symbol(v) ** e
                              for v, e in zip(c.vars, expo)))
                for expo, q in c.terms.items()))
            assert sympy.expand(form.coeff(z, k) - ours) == 0, (name, k)
