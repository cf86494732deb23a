"""The truncated product and power of GradedRing against reducing the
full product."""

import math
from fractions import Fraction

import pytest

from genera.graded import GradedRing, _widths
from genera.projspace import ProjSpaceRing
from genera.rings import MultiPoly

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

# two hyperplane-like variables of positive weight and a weight-zero y,
# which may carry a negative exponent (the Laurent extension)
fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
terms = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-1, 3),
                  fractions)
polys = st.one_of(
    st.lists(terms, max_size=8).map(lambda ts: MultiPoly(
        ("h1", "h2", "y"), {t[:3]: t[3] for t in ts})),
    fractions)


@st.composite
def rings(draw):
    weights = {"h1": draw(st.integers(1, 3)), "h2": draw(st.integers(1, 3))}
    if draw(st.booleans()):
        weights["y"] = 0
    bounds = draw(st.dictionaries(st.sampled_from(["h1", "h2"]),
                                  st.integers(0, 4)))
    return GradedRing(weights, draw(st.integers(0, 8)), bounds)


@settings(max_examples=300, deadline=None)
@given(rings(), polys, polys)
def test_mul_is_reduced_product(ring, a, b):
    assert ring.mul(a, b) == ring.reduce(a * b)


# h1 may also carry a negative exponent: then an exponent of h2 past
# cutoff // w can stay within the cutoff, and its bound must drop the pair
laurent_polys = st.lists(
    st.tuples(st.integers(-3, 4), st.integers(0, 4), st.integers(-1, 3),
              fractions), max_size=8).map(lambda ts: MultiPoly(
                  ("h1", "h2", "y"), {t[:3]: t[3] for t in ts}))


@settings(max_examples=300, deadline=None)
@given(rings(), laurent_polys, polys)
def test_mul_with_negative_exponents_of_positive_weight(ring, a, b):
    assert ring.mul(a, b) == ring.reduce(a * b)
    assert ring.mul(b, a) == ring.reduce(a * b)


@settings(max_examples=100, deadline=None)
@given(rings(), polys, st.integers(0, 6))
def test_power_is_reduced_power(ring, a, n):
    a = MultiPoly._coerce(a)
    assert ring.power(a, n) == ring.reduce(a ** n)


def test_projective_product_ring():
    ring = ProjSpaceRing([2, 3])
    h1, h2, y = (MultiPoly.var(n) for n in ("h1", "h2", "y"))
    a = (1 + h1 + y * h2) ** 3
    b = 1 - h1 * h2 + y ** 2 * h2 ** 2
    assert ring.mul(a, b) == ring.reduce(a * b)
    assert ring.power(a, 4) == ring.reduce(a ** 4)
    assert ring.integrate(ring.power(h1 + h2, 5)) == MultiPoly.const(10)


# power packs the free variables (weight 0 and no bound: y and z here)
# into ints; w has weight 0 but a bound, so it stays in the exponent
# tuples and its bound truncates; y and z may carry negative exponents
big = st.integers(-10 ** 30, 10 ** 30)
packed_terms = st.tuples(st.integers(0, 2), st.integers(0, 1),
                         st.integers(-2, 2), st.integers(-1, 1),
                         st.integers(0, 2), st.one_of(big, fractions))
packed_polys = st.lists(packed_terms, max_size=4).map(lambda ts: MultiPoly(
    ("h1", "h2", "y", "z", "w"), {t[:5]: t[5] for t in ts}))


@st.composite
def packing_rings(draw):
    weights = {"h1": draw(st.integers(1, 2)), "h2": draw(st.integers(1, 2)),
               "w": 0}
    bounds = {"w": draw(st.integers(0, 2))}
    if draw(st.booleans()):
        bounds["h1"] = draw(st.integers(0, 3))
    return GradedRing(weights, draw(st.integers(0, 4)), bounds)


@settings(max_examples=150, deadline=None)
@given(packing_rings(), packed_polys, st.integers(0, 12))
def test_power_with_packed_free_variables(ring, a, n):
    assert ring.power(a, n) == ring.reduce(a ** n)


def test_power_keeps_a_bounded_weight_zero_variable():
    ring = GradedRing({"h": 1, "w": 0}, 3, {"w": 1})
    h, w, y = (MultiPoly.var(n) for n in ("h", "w", "y"))
    a = 1 + h * y - 2 * w + Fraction(1, 3) * w * y ** -1
    power = ring.power(a, 5)
    assert power == ring.reduce(a ** 5)
    assert max(e[power.vars.index("w")] for e in power.terms) == 1


def test_power_below_the_width_bound_unpacks_a_wrong_coefficient():
    # c h (1 + y) has 1-norm N = 2c, and the middle coefficient of its
    # 8th power, 70 c^8, is within 2 bits of N^8: every width 8 bits
    # short of the proven bound unpacks wrong coefficients
    c, n = 10 ** 30 + 1, 8
    ring = GradedRing({"h": 1}, n)
    terms = {(1, 0): c, (1, 1): c}
    exact = {(n, k): c ** n * math.comb(n, k) for k in range(n + 1)}
    widths = _widths(2 * c, n)
    assert ring._power(("h", "y"), terms, widths) == exact
    short = widths[:1] + [w - 8 for w in widths[1:]]
    wrong = ring._power(("h", "y"), terms, short)
    assert wrong[(n, n // 2)] != exact[(n, n // 2)]
    h, y = MultiPoly.var("h"), MultiPoly.var("y")
    assert ring.power(c * h * (1 + y), n) == MultiPoly(("h", "y"), exact)


def test_power_rejects_a_negative_exponent():
    with pytest.raises(ValueError):
        GradedRing({"h": 1}, 3).power(MultiPoly.var("h"), -1)
