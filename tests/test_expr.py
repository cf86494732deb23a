"""Expression grammar: parsing, validation, canonical round-trips."""

import random
from fractions import Fraction

import pytest

from genera.expr import ExprError, parse_expr, serialize
from genera.rings import MultiPoly


def test_basic_expressions():
    u, v = MultiPoly.var("u"), MultiPoly.var("v")
    assert parse_expr("u*v + 1") == u * v + 1
    L = MultiPoly.var("L")
    assert parse_expr("(L - 1)^2") == L ** 2 - 2 * L + 1
    assert parse_expr("3/4") == MultiPoly.const(Fraction(3, 4))
    assert parse_expr("-x^2 + 2*x - 1") == \
        -MultiPoly.var("x") ** 2 + 2 * MultiPoly.var("x") - 1


def test_zero_denominator():
    with pytest.raises(ExprError):
        parse_expr("1/0")


def test_error_positions():
    with pytest.raises(ExprError) as err:
        parse_expr("1 + $")
    assert err.value.position == 4
    with pytest.raises(ExprError) as err:
        parse_expr("x + (y")
    with pytest.raises(ExprError) as err:
        parse_expr("x y")
    assert "trailing" in str(err.value)


def test_unknown_variable_rejected():
    with pytest.raises(ExprError):
        parse_expr("L + w", variables=("L",))
    assert parse_expr("L^2", variables=("L",)) == MultiPoly.var("L") ** 2


def test_negative_exponents_roundtrip():
    p = parse_expr("L^-2 + 1")
    assert p == MultiPoly.var("L") ** (-2) + 1


def random_poly(rng):
    out = MultiPoly.const(0)
    for _ in range(rng.randint(1, 5)):
        term = MultiPoly.const(Fraction(rng.randint(-9, 9),
                                        rng.randint(1, 9)))
        for name in ("x", "y"):
            term = term * MultiPoly.var(name) ** rng.randint(0, 4)
        out = out + term
    return out


def test_serialize_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        p = random_poly(rng)
        assert parse_expr(serialize(p)) == p


def test_serialize_is_canonical():
    a = parse_expr("x + y + x*y")
    b = parse_expr("y + x*y + x")
    assert serialize(a) == serialize(b)


def test_integer_powers_against_multipoly():
    # a power is MultiPoly.__pow__ (the power recurrence in one variable),
    # checked against repeated products
    for base in ("(L + 1)", "(2*L^2 - 3*L^-1 + 5)", "(L^-2)", "(-L)",
                 "(L - L)", "(1/2*L + 1)", "(x*y + 1)", "7"):
        value = parse_expr(base)
        expected = MultiPoly.const(1)
        for n in range(41):
            assert parse_expr(f"{base}^{n}") == expected, (base, n)
            expected = expected * value
