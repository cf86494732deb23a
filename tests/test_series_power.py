"""Powers by the power recurrence against repeated products, for
TruncSeries and for MultiPoly in one variable, and the genus power on
integers against the generic power."""

from fractions import Fraction

import pytest

from genera.catalog import _power_coefficient_over_z, genus_on_projective
from genera.rings import (ExactDivisionError, MultiPoly, RationalFunction,
                          TruncSeries, coeff_div_exact)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

X = MultiPoly.var("x")
Y = MultiPoly.var("y")


def repeated_product(f, n):
    out = TruncSeries.one(f.var, f.order)
    for _ in range(n):
        out = out * f
    return out


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
nonzero_fractions = fractions.filter(bool)
polys_in_y = st.builds(lambda cs: sum((c * Y ** i for i, c in enumerate(cs)),
                                      MultiPoly.const(0)),
                       st.lists(fractions, min_size=1, max_size=3))


@st.composite
def series(draw, coeffs, lead, shifted=True):
    """A series z^v (lead + ...); v runs up to past the order when shifted,
    and is 0 otherwise."""
    order = draw(st.integers(0, 6))
    v = draw(st.integers(0, order + 1)) if shifted else 0
    tail = draw(st.lists(coeffs, min_size=order + 1, max_size=order + 1))
    cs = [Fraction(0)] * v + [draw(lead)] + tail
    return TruncSeries("z", order, cs[:order + 1])


fraction_series = series(fractions, nonzero_fractions)
poly_series = series(polys_in_y, st.sampled_from(
    [1 + Y, Y, 2 * Y ** 2 - 1, MultiPoly.const(3)]))


@settings(max_examples=80, deadline=None)
@given(fraction_series, st.integers(0, 7))
def test_power_fraction_coefficients(f, n):
    assert f ** n == repeated_product(f, n)


@settings(max_examples=60, deadline=None)
@given(poly_series, st.integers(0, 6))
def test_power_polynomial_coefficients(f, n):
    assert f ** n == repeated_product(f, n)


@st.composite
def laurent_polys(draw):
    """A polynomial in x with Fraction coefficients, at most five terms
    and exponents from -3 to 4; zero and monomials included."""
    cs = draw(st.lists(fractions, max_size=5))
    low = draw(st.integers(-3, 0))
    return sum((c * X ** (low + i) for i, c in enumerate(cs)),
               MultiPoly.const(0))


@settings(max_examples=40, deadline=None)
@given(laurent_polys())
def test_one_variable_power_against_repeated_product(p):
    expected = MultiPoly.const(1)
    for n in range(41):
        assert p ** n == expected, n
        expected = expected * p


@settings(max_examples=60, deadline=None)
@given(series(fractions, nonzero_fractions, shifted=False),
       st.integers(-5, -1))
def test_negative_power_is_power_of_inverse(f, n):
    assert f ** n == repeated_product(f.invert(), -n)
    assert f ** n * f ** (-n) == TruncSeries.one("z", f.order)


def test_power_edge_cases():
    zero = TruncSeries.zero("z", 4)
    assert zero ** 0 == TruncSeries.one("z", 4)
    assert zero ** 3 == zero
    z2 = TruncSeries.from_coeffs("z", [0, 0, 1 + Y], 4)
    assert z2 ** 3 == zero                          # v n = 6 > order
    assert z2 ** 2 == TruncSeries.from_coeffs(
        "z", [0, 0, 0, 0, (1 + Y) ** 2], 4)         # v n = order
    ghrr_like = TruncSeries.from_coeffs("z", [1 + Y, Fraction(1, 2), Y], 5)
    assert ghrr_like ** 21 == repeated_product(ghrr_like, 21)


def test_power_rational_function_coefficients():
    f = TruncSeries.from_coeffs(
        "z", [RationalFunction(1, 1 + X), RationalFunction(X),
              RationalFunction(1, X)], 3)
    assert f ** 3 == repeated_product(f, 3)


# The genus power on integers (catalog): D * series over Z, as ints or
# Dense, against the generic power on MultiPoly coefficients.

@st.composite
def genus_series(draw, scalar):
    order = draw(st.integers(0, 7))
    lead = draw(st.sampled_from([Fraction(1), Fraction(3, 2)] if scalar
                                else [Fraction(1), Fraction(3, 2), 1 + Y]))
    tail = draw(st.lists(fractions if scalar else
                         st.one_of(fractions, polys_in_y),
                         min_size=order, max_size=order))
    return TruncSeries("z", order, [lead] + tail)


def generic_power_coefficient(f, m):
    as_poly = f.map_coeffs(MultiPoly._coerce)
    return (as_poly ** m)[f.order]


@settings(max_examples=120, deadline=None)
@given(st.booleans().flatmap(genus_series), st.integers(0, 9))
def test_integer_genus_power_against_generic(f, m):
    value = _power_coefficient_over_z(f, m)
    assert MultiPoly._coerce(value) == generic_power_coefficient(f, m)
    scalar = all(isinstance(c, Fraction) for c in f.coeffs)
    assert isinstance(value, Fraction if scalar else MultiPoly)


@settings(max_examples=60, deadline=None)
@given(genus_series(scalar=False))
def test_integer_genus_on_projective_against_generic(f):
    n = f.order
    expected = generic_power_coefficient(f, n + 1)
    a = f.constant_term()
    if a != 1:
        try:
            expected = coeff_div_exact(expected, a)
        except ExactDivisionError:
            with pytest.raises(ExactDivisionError):
                genus_on_projective(f, n)
            return
    assert MultiPoly._coerce(genus_on_projective(f, n)) == expected


def test_integer_genus_power_edge_cases():
    # a multivariate or rational-function series is not taken, and
    # genus_on_projective raises ValueError on it
    two_vars = TruncSeries.from_coeffs("z", [1, X, Y], 2)
    assert _power_coefficient_over_z(two_vars, 3) is None
    ratfun = TruncSeries.from_coeffs("z", [1, RationalFunction(1, 1 + X)], 1)
    assert _power_coefficient_over_z(ratfun, 2) is None
    # a zero run past the order, Laurent coefficients, constant polynomials
    shifted = TruncSeries.from_coeffs("z", [0, Fraction(1, 2), 1], 2)
    assert _power_coefficient_over_z(shifted, 3) == 0
    laurent = TruncSeries.from_coeffs(
        "z", [1 + Y, Y.monomial_inverse() / 3, Fraction(1, 2)], 2)
    assert _power_coefficient_over_z(laurent, 5) == \
        generic_power_coefficient(laurent, 5)
    constant = TruncSeries.from_coeffs(
        "z", [MultiPoly.const(1), MultiPoly.const(Fraction(1, 2))], 1)
    value = _power_coefficient_over_z(constant, 4)
    assert isinstance(value, MultiPoly) and value == 2
