"""The genus power on integers (``catalog._power_coefficient_over_z``):
the factorial-scaled recurrence against the generic MultiPoly power, the
packing width of its Z[y] coefficients against the exact top coefficient,
closed forms at sizes past the golden grid, and the independence of the
ring path of ``ty`` and ``hrr`` from it."""

import math
import random
from fractions import Fraction

import pytest

from genera import catalog
from genera.catalog import (SERIES_NAMES, _packed,
                            _power_coefficient_over_z, builtin_series,
                            genus_on_projective)
from genera.projspace import hrr_check, ty_class_degree
from genera.rings import MultiPoly, TruncSeries

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

Y = MultiPoly.var("y")

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def laurent_in_y(draw):
    """At most four terms in y, exponents from -2 to 4, zero included."""
    cs = draw(st.lists(fractions, max_size=4))
    low = draw(st.integers(-2, 1))
    return sum((c * Y ** (low + i) for i, c in enumerate(cs)),
               MultiPoly.const(0))


@st.composite
def genus_series(draw, scalar):
    """z^v (lead + ...) through z^order: order up to 12, a leading zero
    run v of up to 2, a constant term 1, 3/2 or (in Z[y]) 1 + y."""
    order = draw(st.integers(0, 12))
    v = draw(st.sampled_from([0, 0, 0, 1, 2]))
    lead = draw(st.sampled_from([Fraction(1), Fraction(3, 2)] if scalar
                                else [Fraction(1), Fraction(3, 2), 1 + Y]))
    tail = draw(st.lists(fractions if scalar else
                         st.one_of(fractions, laurent_in_y()),
                         min_size=order, max_size=order))
    cs = [Fraction(0)] * v + [lead] + tail
    return TruncSeries("z", order, cs[:order + 1])


def generic_power_coefficient(f, m):
    return (f.map_coeffs(MultiPoly._coerce) ** m)[f.order]


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(genus_series), st.integers(0, 13))
def test_recurrence_against_generic_power(f, m):
    value = _power_coefficient_over_z(f, m)
    assert MultiPoly._coerce(value) == generic_power_coefficient(f, m)
    scalar = all(isinstance(c, Fraction) for c in f.coeffs)
    assert isinstance(value, Fraction if scalar else MultiPoly)


def random_laurent(rng):
    low = rng.randint(-3, 2)
    return sum((Fraction(rng.randint(-99, 99), rng.randint(1, 12)) *
                Y ** (low + i) for i in range(rng.randint(0, 5))),
               MultiPoly.const(0))


def scaled_rows(b):
    """M and the coefficient lists of the A_k = k! M b_k, all shifted by
    the lowest exponent in y, by their definition over Fraction."""
    terms = [MultiPoly._coerce(c).terms for c in b]
    scale = math.lcm(*(Fraction(c * math.factorial(k)).denominator
                       for k, t in enumerate(terms) for c in t.values()))
    low = min((e[0] if e else 0 for t in terms for e in t), default=0)
    rows = []
    for k, t in enumerate(terms):
        row = [0] * (max((e[0] if e else 0 for e in t), default=low) - low + 1)
        for e, c in t.items():
            value = c * math.factorial(k) * scale
            assert value.denominator == 1
            row[(e[0] if e else 0) - low] = int(value)
        rows.append(row)
    return scale, low, rows


@pytest.mark.parametrize("seed", range(6))
def test_packing_width_bounds_the_exact_top_coefficient(seed):
    # every coefficient of G_K = K! M^m [z^K] f^m lies below 2^(B-1),
    # and B is the least multiple of 8 with 2^(B-1) > S^m / K!^(m-1)
    rng = random.Random(seed)
    for _ in range(8):
        order, m = rng.randint(0, 12), rng.randint(1, 13)
        lead = rng.choice([MultiPoly.const(1), MultiPoly.const(3) / 2,
                           1 + Y, Y ** -2 - 3 * Y])
        f = TruncSeries("z", order, [lead] + [random_laurent(rng)
                                              for _ in range(order)])
        scale, low, rows = scaled_rows(f.coeffs)
        _, bits = _packed(rows, m)
        top = math.factorial(order)
        exact = generic_power_coefficient(f, m) * top * scale ** m
        assert all(isinstance(c, int) and abs(c) < 2 ** (bits - 1)
                   for c in exact.terms.values()), (seed, order, m)
        s = sum(sum(map(abs, row)) * (top // math.factorial(k))
                for k, row in enumerate(rows))
        bound = s ** m // top ** (m - 1)
        assert bits % 8 == 0 and 2 ** (bits - 1) > bound
        assert bits == 8 or 2 ** (bits - 9) <= bound
        assert _power_coefficient_over_z(f, m) == \
            generic_power_coefficient(f, m)


def closed_form(name, n):
    if name == "chern":
        return n + 1
    if name == "todd":
        return 1
    if name == "lgenus":
        return 1 - n % 2
    k = n // 2  # ahat
    return 0 if n % 2 else Fraction((-1) ** k * math.comb(2 * k, k), 16 ** k)


@pytest.mark.parametrize("n", [40, 64])
@pytest.mark.parametrize("name", ["chern", "todd", "lgenus", "ahat"])
def test_scalar_closed_forms_at_size(name, n):
    assert genus_on_projective(builtin_series(name, n), n) == \
        closed_form(name, n)


def test_hirzebruch_closed_form_at_size():
    n = 30
    assert genus_on_projective(builtin_series("hirzebruch", n), n) == \
        sum(((-Y) ** i for i in range(n + 1)), MultiPoly.const(0))


def test_one_loop_serves_every_series(monkeypatch):
    # scalar and Z[y] series run the same recurrence, and only it
    calls = []
    loop = catalog._scaled_power

    def counted(a, m):
        calls.append(m)
        return loop(a, m)

    monkeypatch.setattr(catalog, "_scaled_power", counted)
    for name in SERIES_NAMES:
        genus_on_projective(builtin_series(name, 6), 6)
    assert calls == [7] * len(SERIES_NAMES)


def test_ring_path_runs_without_the_scaled_recurrence(monkeypatch):
    # ty and hrr integrate in GradedRing, apart from the series path
    def refuse(*args):
        raise AssertionError("the ring path ran the genus recurrence")

    monkeypatch.setattr(catalog, "_scaled_power", refuse)
    assert ty_class_degree(8) == sum(((-Y) ** i for i in range(9)),
                                     MultiPoly.const(0))
    assert hrr_check(6, 3) == (84, 84, True)
