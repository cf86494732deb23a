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
canonical serialization round-trips.  Errors carry the byte offset of the
first offending token.
"""

from __future__ import annotations

from fractions import Fraction

from .rings import MultiPoly


class ExprError(ValueError):
    """Syntax or name error, with the byte offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_OPS = set("+-*^/()")


def _tokenize(text: str):
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
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
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


class _Parser:
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
        raise ExprError(f"unexpected token {payload!r}", offset)


def parse_expr(text: str, variables=None) -> MultiPoly:
    """Parse an expression into a canonical MultiPoly.

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


def serialize(poly: MultiPoly) -> str:
    """Canonical text form (total degree, then lexicographic term order)."""
    return str(poly)
