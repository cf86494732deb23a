"""Small expression grammar for polynomial/class input.

Grammar (EBNF):

    expr     = term { ("+" | "-") term } ;
    term     = factor { "*" factor } ;
    factor   = [ "-" ] primary [ "^" exponent ] ;
    primary  = rational | name | "(" expr ")" ;
    rational = integer [ "/" integer ] ;
    exponent = [ "-" ] integer ;

Names are variables (or declared atoms); rational literals are written
"p/q".  Negative exponents are accepted as a Laurent extension so that
canonical serialization round-trips.  Factors nest at most MAX_NESTING
deep, and a power or a product is expanded only within the budget of
MAX_POWER_TERMS terms of MAX_POWER_BITS bits.  Errors carry the byte
offset of the first offending token.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .rings import MultiPoly


class ExprError(ValueError):
    """Syntax or name error, with the byte offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# whitespace, an integer of ASCII digits (str.isdigit() also takes "²" and
# "٣"), a name, an operator, anything else; \s and \w match exactly what
# str.isspace() and str.isalnum() or "_" accept.  A name starts with a
# letter or "_", so a \w run that starts with "²" is an unexpected character
_TOKEN = re.compile(r"\s+|([0-9]+)|(\w+)|([-+*^/()])|(.)", re.DOTALL)


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        if group is None:
            continue
        piece, offset = match.group(group), match.start()
        if group == 1:
            tokens.append(("int", int(piece), offset))
        elif group == 3:
            tokens.append((piece, piece, offset))
        elif group == 2 and (piece[0].isalpha() or piece[0] == "_"):
            tokens.append(("name", piece, offset))
        else:
            raise ExprError(f"unexpected character {piece[0]!r}", offset)
    tokens.append(("end", None, len(text)))
    return tokens


# A value under parsing is a term dict: a sparse monomial, the sorted
# (name, exponent) pairs with a nonzero exponent, maps to a nonzero int or
# Fraction.  The dicts are built fresh by each step, so a step may change
# its operands in place.

def _mono_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    powers = dict(a)
    for name, e in b:
        powers[name] = powers.get(name, 0) + e
    return tuple(sorted(p for p in powers.items() if p[1]))


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = _mono_mul(ka, kb)
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def _add_into(a: dict, b: dict, sign: int) -> dict:
    for key, c in b.items():
        c = a.get(key, 0) + sign * c
        if c:
            a[key] = c
        else:
            del a[key]
    return a


MAX_POWER_BITS = 8192
MAX_POWER_TERMS = 10 ** 4


def _norm_bits(terms: dict) -> int:
    """The bit length of N - 1, N the 1-norm of the term dict with its
    denominators cleared, and 0 for the zero dict; a product of values of
    such norms has at most the sum of their bits."""
    coeffs = terms.values()
    norm = sum(abs(c.numerator) for c in coeffs) * \
        math.lcm(*(c.denominator for c in coeffs))
    return max(norm - 1, 0).bit_length()


def _span(terms: dict, name: str) -> int:
    """The range of the exponents of name over the monomials of terms."""
    expos = [dict(key).get(name, 0) for key in terms]
    return max(expos) - min(expos)


def _check_budget(kind: str, terms: int, bits: int, offset: int) -> None:
    if bits > MAX_POWER_BITS or terms > MAX_POWER_TERMS:
        raise ExprError(
            f"{kind} of up to {terms} terms of {bits} bits; at most "
            f"{MAX_POWER_TERMS} terms of {MAX_POWER_BITS} bits are "
            f"supported", offset)


def _check_power(base: dict, size: int, offset: int) -> None:
    """The budget on a power |n| = size of base, which is expanded in full:
    its coefficients have at most size log2(N) bits, N the 1-norm of the
    base with its denominators cleared, and it has at most C(size + k - 1,
    k - 1) terms, k the terms of the base, and at most the product of
    size s + 1 over its variables, s the base's degree span in each.  A
    base in one variable is charged size s + 1 terms however few it has,
    as ``MultiPoly.__pow__`` powers it as a ``Dense`` of that length.
    Past the budget, ExprError at offset."""
    names = {name for key in base for name, _ in key}
    box = 1
    for name in names:
        box *= size * _span(base, name) + 1
    terms = box if len(names) == 1 else \
        min(math.comb(size + max(len(base), 1) - 1, size), box)
    _check_budget("a power", terms, size * _norm_bits(base), offset)


def _check_product(a: dict, b: dict, offset: int) -> None:
    """The budget on the product of two nonzero term dicts, before it is
    formed: the bits of both cleared 1-norms added, and the lesser of
    |a| |b| terms and the product over the variables of s_a + s_b + 1,
    s the degree spans of the factors; past it, ExprError at offset."""
    terms, bits = len(a) * len(b), _norm_bits(a) + _norm_bits(b)
    if terms > MAX_POWER_TERMS or bits > MAX_POWER_BITS:
        box = 1
        for name in {name for key in (*a, *b) for name, _ in key}:
            box *= _span(a, name) + _span(b, name) + 1
        _check_budget("a product", min(terms, box), bits, offset)


def _unit(terms: dict) -> bool:
    """A monomial with coefficient 1 or -1: its powers and its products
    with a dict of any size keep that size and 1-norm, so neither budget
    applies to them."""
    return len(terms) == 1 and abs(next(iter(terms.values()))) == 1


def _pow(base: dict, n: int, offset: int) -> dict:
    """A monomial to a power n >= 0 on the dict; any other power is
    MultiPoly.__pow__, which inverts a monomial for n < 0.  Unless base is
    a monomial with coefficient 1 or -1, ``_check_power`` runs first."""
    if not _unit(base):
        _check_power(base, abs(n), offset)
    if n >= 0 and len(base) == 1:
        (key, c), = base.items()
        return {tuple((name, e * n) for name, e in key) if n else (): c ** n}
    value = _to_poly(base) ** n
    return {tuple((name, e) for name, e in zip(value.vars, expo) if e): c
            for expo, c in value.terms.items()}


def _to_poly(terms: dict) -> MultiPoly:
    names = sorted({name for key in terms for name, _ in key})
    index = {name: i for i, name in enumerate(names)}
    dense = {}
    for key, c in terms.items():
        expo = [0] * len(names)
        for name, e in key:
            expo[index[name]] = e
        dense[tuple(expo)] = c
    return MultiPoly(names, dense)


# every "(" and unary "-" opens one more factor, in which the parser
# recurses; the cap keeps it well inside Python's recursion limit
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, allowed):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed
        self.depth = 0

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
            value = _add_into(value, self.parse_term(), 1 if op == "+" else -1)
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek()[0] == "*":
            offset = self.take()[2]
            factor = self.parse_factor()
            if value and factor and not (_unit(factor) or _unit(value)):
                _check_product(value, factor, offset)
            value = _mul(value, factor)
        return value

    def parse_factor(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprError(f"factors nested more than {MAX_NESTING} deep",
                            self.peek()[2])
        if self.peek()[0] == "-":
            self.take()
            value = _add_into({}, self.parse_factor(), -1)
        else:
            value = self.parse_primary()
            if self.peek()[0] == "^":
                self.take()
                sign = 1
                if self.peek()[0] == "-":
                    self.take()
                    sign = -1
                tok = self.take("int")
                value = _pow(value, sign * tok[1], tok[2])
        self.depth -= 1
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
                payload = Fraction(payload, den_tok[1])
            return {(): payload} if payload else {}
        if kind == "name":
            self.take()
            if self.allowed is not None and payload not in self.allowed:
                raise ExprError(f"unknown variable {payload!r}", offset)
            return {((payload, 1),): 1}
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


def parse_terms(text: str, variables=None) -> dict:
    """Parse an expression into its term dict: each sparse monomial, the
    sorted (name, exponent) pairs with a nonzero exponent, maps to its
    nonzero int or Fraction coefficient.

    ``variables``: optional iterable of allowed names; any other name is
    rejected with its byte offset.
    """
    if not isinstance(text, str):
        raise ExprError(f"expected an expression string, got {text!r}", 0)
    allowed = None if variables is None else set(variables)
    parser = _Parser(_tokenize(text), allowed)
    value = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ExprError(f"trailing input {tok[1]!r}", tok[2])
    return value


def parse_expr(text: str, variables=None) -> MultiPoly:
    """Parse an expression into a canonical MultiPoly: the ``_to_poly``
    of its ``parse_terms``."""
    return _to_poly(parse_terms(text, variables))
