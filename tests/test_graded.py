"""The truncated product and power of GradedRing against reducing the
full product."""

from fractions import Fraction

import pytest

from genera.graded import GradedRing
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
