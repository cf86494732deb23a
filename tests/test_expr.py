"""Expression grammar: parsing, validation, canonical round-trips."""

import random
from fractions import Fraction

import pytest

from genera.expr import (MAX_NESTING, MAX_POWER_BITS, MAX_POWER_TERMS,
                         ExprError, parse_expr)
from genera.rings import ExactDivisionError, MultiPoly


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


@pytest.mark.parametrize("text, offset", [
    ("(" * 250 + "L" + ")" * 250, 100),
    ("-" * 1000 + "L", 100),
    ("1 + " + "-(" * 60 + "L" + ")" * 60, 104),
])
def test_nesting_past_the_cap_is_an_expression_error(text, offset):
    # each "(" and unary "-" opens one more factor
    with pytest.raises(ExprError) as err:
        parse_expr(text)
    assert err.value.position == offset
    assert f"factors nested more than {MAX_NESTING} deep" in str(err.value)


@pytest.mark.parametrize("text, terms, bits", [
    ("(L+1)^8193", 8194, 8193),
    ("(1 - L)^-8193", 8194, 8193),
    ("(2*L)^8193", 1, 8193),
    ("(1/2)^8193", 1, 8193),
    ("(L^3 - 2*L + 1)^3334", 10003, 6668),
    ("(x + y + z)^140", 10011, 280),
    # a base in one variable powers as a Dense of n s + 1 slots, however
    # sparse: 2 * 5000 + 1 here, and 2 * 16000000 + 1
    ("(L^5000 + 1)^2", 10001, 2),
    ("(L^16000000+1)^2", 32000001, 2),
])
def test_a_power_past_the_budget_is_an_expression_error(text, terms, bits):
    # the bound is checked before the power is expanded
    with pytest.raises(ExprError) as err:
        parse_expr(text)
    assert err.value.position == text.rindex("^") + 1 + text.endswith(
        "-8193")
    assert str(err.value).startswith(
        f"a power of up to {terms} terms of {bits} bits; at most "
        f"{MAX_POWER_TERMS} terms of {MAX_POWER_BITS} bits are supported")


def test_a_power_at_the_budget_parses():
    L = MultiPoly.var("L")
    assert len(parse_expr("(L+1)^8192").terms) == 8193
    assert parse_expr("(L^4999+1)^2") == (L ** 4999 + 1) ** 2
    assert len(parse_expr("(L^3 - 2*L + 1)^3333").terms) == 9999
    assert parse_expr("L^1000000000") == L ** 1000000000
    assert parse_expr("(-L)^-1000000000") == L ** -1000000000
    assert parse_expr("2^8192") == 2 ** 8192


def test_nesting_at_the_cap_parses():
    L = MultiPoly.var("L")
    top = MAX_NESTING - 1
    assert parse_expr("(" * top + "L" + ")" * top) == L
    assert parse_expr("-" * top + "L^2") == -L ** 2
    assert parse_expr("-(" * 48 + "L" + ")" * 48) == L
    # the depth is the nesting, not the count: siblings do not add up
    assert parse_expr(" * ".join(["(" * top + "L" + ")" * top] * 3)) == L ** 3


@pytest.mark.parametrize("text", ["L^\u00b2", "L^\u0663", "L^1\u0663"])
def test_integers_are_ascii_digits(text):
    # str.isdigit() also takes a superscript or an Arabic-Indic digit
    with pytest.raises(ExprError) as err:
        parse_expr(text)
    offset = 3 if text[3:] else 2
    assert err.value.position == offset
    assert str(err.value) == \
        f"unexpected character {text[offset]!r} (at offset {offset})"


@pytest.mark.parametrize("text", ["", "L +", "(L*", "2^3 -"])
def test_input_that_ends_early_names_the_end(text):
    with pytest.raises(ExprError) as err:
        parse_expr(text)
    assert str(err.value) == \
        f"unexpected token: end of input (at offset {len(text)})"


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
        assert parse_expr(str(p)) == p


def test_serialize_is_canonical():
    a = parse_expr("x + y + x*y")
    b = parse_expr("y + x*y + x")
    assert str(a) == str(b)


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


# ---------------------------------------------------------------------
# the parser on term dicts and the regular-expression tokenizer against
# the parser that built a MultiPoly per token and the tokenizer that read
# one character at a time, kept here as the reference

_OPS = set("+-*^/()")


def _char_tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c in "0123456789":
            j = i
            while j < len(text) and text[j] in "0123456789":
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _MultiPolyParser:
    def __init__(self, tokens, allowed):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse_expr(self):
        value = self.parse_term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek()[0] == "*":
            self.take()
            value = value * self.parse_factor()
        return value

    def parse_factor(self):
        if self.peek()[0] == "-":
            self.take()
            return -self.parse_factor()
        value = self.parse_primary()
        if self.peek()[0] == "^":
            self.take()
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            tok = self.take("int")
            value = value ** (sign * tok[1])
        return value

    def parse_primary(self):
        kind, payload, offset = self.peek()
        if kind == "int":
            self.take()
            if self.peek()[0] == "/":
                self.take()
                den_tok = self.take("int")
                if den_tok[1] == 0:
                    raise ExprError("zero denominator", den_tok[2])
                return MultiPoly.const(Fraction(payload, den_tok[1]))
            return MultiPoly.const(payload)
        if kind == "name":
            self.take()
            if self.allowed is not None and payload not in self.allowed:
                raise ExprError(f"unknown variable {payload!r}", offset)
            return MultiPoly.var(payload)
        if kind == "(":
            self.take()
            value = self.parse_expr()
            tok = self.peek()
            if tok[0] != ")":
                raise ExprError("expected ')'", tok[2])
            self.take()
            return value
        if kind == "end":
            raise ExprError("unexpected token: end of input", offset)
        raise ExprError(f"unexpected token {payload!r}", offset)


def reference_parse(text, variables=None):
    allowed = None if variables is None else set(variables)
    parser = _MultiPolyParser(_char_tokenize(text), allowed)
    value = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ExprError(f"trailing input {tok[1]!r}", tok[2])
    return value


def _outcome(parse, text, variables):
    """What a parse gives: the variables, each coefficient with its type,
    and the text of the value; or the type and message of the error."""
    try:
        value = parse(text, variables)
    except (ExprError, ExactDivisionError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return (value.vars,
            {e: (type(c), c) for e, c in value.terms.items()}, str(value))


NAME_SETS = (None, ("L",), ("u", "v"), ("x", "y", "z"))


def _random_expr(rng, names, depth=0):
    parts = []
    for i in range(rng.randint(1, 4)):
        if i:
            parts.append(rng.choice(" + ,- ,+,-".split(",")))
        factors = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.3:
                p = rng.randint(0, 12)
                q = rng.choice((1, 2, 3, 4, 6, 9)) if rng.random() < 0.97 \
                    else 0
                atom = str(p) if rng.random() < 0.6 else f"{p}/{q}"
            elif roll < 0.85 or depth >= 2:
                atom = rng.choice(names + ("w",) if rng.random() < 0.05
                                  else names)
            else:
                atom = f"({_random_expr(rng, names, depth + 1)})"
            if rng.random() < 0.4:
                atom += "^" + rng.choice(("", "-")) + str(rng.randint(0, 4))
            if rng.random() < 0.1:
                atom = "-" + atom
            factors.append(atom)
        parts.append("*".join(factors))
    return "".join(parts)


def _mutated(rng, text):
    """text with one character dropped, inserted or cut after."""
    i = rng.randrange(len(text) + 1)
    roll = rng.random()
    if roll < 0.3:
        return text[:i] + text[i + 1:]
    if roll < 0.8:
        return text[:i] + rng.choice(
            "+-*^/()0 1x L$\t\u00a0\u00b2\u0663\u00e9_") + text[i:]
    return text[:i] + " " + rng.choice(("x", "1", ")", "2/0", "(L"))


def test_parser_matches_the_multipoly_reference():
    rng = random.Random(15)
    texts = ["0^0", "0^-1", "(L+1)^-1", "2^-3", "3/4*L", "3/0", "L + w",
             "L L", "(L - L)^-2", "0^3", "x^-1*y^-2 + 1/2"]
    while len(texts) < 10_000:
        names = NAME_SETS[len(texts) % len(NAME_SETS)] or ("a", "b_1")
        text = _random_expr(rng, names)
        if rng.random() < 0.3:
            text = _mutated(rng, text)
        texts.append(text)
    kinds = set()
    for i, text in enumerate(texts):
        variables = NAME_SETS[i % len(NAME_SETS)]
        got = _outcome(parse_expr, text, variables)
        assert got == _outcome(reference_parse, text, variables), text
        kinds.add(got[0] if isinstance(got[0], type) else "value")
        if isinstance(got[0], type):
            kinds.add(got[1].split(" (")[0].split(" '")[0])
    assert {"value", ExprError, ExactDivisionError, "zero denominator",
            "unknown variable", "trailing input"} <= kinds


def test_a_sum_of_monomials_builds_one_multipoly(monkeypatch):
    def refuse(*args):
        raise AssertionError("parse_expr added or multiplied a MultiPoly")

    monkeypatch.setattr(MultiPoly, "__add__", refuse)
    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    built = []
    init = MultiPoly.__init__
    monkeypatch.setattr(MultiPoly, "__init__",
                        lambda self, *args: built.append(args) or
                        init(self, *args))
    value = parse_expr("3*L^4*C - 2*L^2 + 1/2*C^2*L - 7 + (L*C)^3",
                       variables=("L", "C"))
    assert len(built) == 1
    assert str(value) == "-7 - 2*L^2 + 1/2*C^2*L + 3*C*L^4 + C^3*L^3"
    # a negative power inverts through MultiPoly, still with no sum
    assert str(parse_expr("L^-1 - 2*L^-2")) == "-2*L^-2 + L^-1"


@pytest.mark.parametrize("text, terms, bits", [
    ("(L+1)^8000*(L+1)^8000", 16001, 16000),
    ("2^4096*2^4097", 1, 8193),
    ("(L+1)^4096 * L * (L+1)^4097", 8194, 8193),
    ("(x+1)^101*(y+1)^100", 10302, 201),
    ("(1/2 + 1/3*x)^10*(y+1)^2000", 22011, 2033),
])
def test_a_product_past_the_budget_is_an_expression_error(text, terms, bits):
    # the bound is checked at the "*" before the product is formed
    with pytest.raises(ExprError) as err:
        parse_expr(text)
    assert err.value.position == text.rindex("*")
    assert str(err.value).startswith(
        f"a product of up to {terms} terms of {bits} bits; at most "
        f"{MAX_POWER_TERMS} terms of {MAX_POWER_BITS} bits are supported")


def test_a_product_at_the_budget_parses():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    # 100 x 100 terms in a 100 x 100 box, and 4096 + 4096 bits
    text = "(" + " + ".join(f"x^{i}" for i in range(100)) + ") * (" + \
        " + ".join(f"y^{j}" for j in range(100)) + ")"
    assert len(parse_expr(text).terms) == MAX_POWER_TERMS
    assert parse_expr("2^4096*2^4096") == 2 ** 8192
    assert parse_expr("(x+1)^99*(y+1)^99") == (x + 1) ** 99 * (y + 1) ** 99
    # a zero factor makes the product zero whatever the other factor
    assert parse_expr("0*2^8192*(x+1)^8192") == 0


def test_a_power_of_zero_is_within_the_budget():
    # zero has no bits to multiply, whatever the exponent
    assert parse_expr("0^9000") == 0
    assert parse_expr("(L - L)^100000") == 0


def test_a_unit_monomial_factor_is_within_the_budget():
    # a monomial with coefficient 1 or -1 only moves exponents, so its
    # product with a sum past the term budget is not checked, as its
    # powers are not
    long_sum = "(" + " + ".join(
        f"x^{i}" for i in range(MAX_POWER_TERMS + 1)) + ")"
    for text in (f"L*{long_sum}", f"{long_sum}*-L^2", f"-1*{long_sum}"):
        assert len(parse_expr(text).terms) == MAX_POWER_TERMS + 1
    with pytest.raises(ExprError):
        parse_expr(f"2*{long_sum}")
