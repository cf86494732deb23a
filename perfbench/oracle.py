"""Independent reference values for the benchmark's checks.

Nothing here imports genera: every expected value is computed from
closed forms or from the benchmark's own ``Fraction`` arithmetic, and the
program's printed output is read back by a small evaluator of its own.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


class EvalError(ValueError):
    """Program output that the evaluator cannot read."""


def evaluate(text: str, point: dict) -> Fraction:
    """Value of a printed polynomial or quotient at an assignment of its
    variables.  Grammar: sums of products of powers, ``p/q`` literals,
    ``(a) / (b)`` quotients and negative exponents, as genera prints them.
    """
    tokens = []
    for num, name, op in _TOKEN.findall(text):
        if num:
            tokens.append(("num", int(num)))
        elif name:
            tokens.append(("name", name))
        elif op.strip():
            if op not in "+-*/^()":
                raise EvalError(f"unexpected character {op!r} in {text!r}")
            tokens.append((op, None))
    tokens.append(("end", None))
    pos = 0

    def peek():
        return tokens[pos][0]

    def take(kind):
        nonlocal pos
        if tokens[pos][0] != kind:
            raise EvalError(f"expected {kind!r} in {text!r}")
        pos += 1
        return tokens[pos - 1][1]

    def expr():
        sign = -1 if peek() == "-" else 1
        if sign < 0:
            take("-")
        value = sign * term()
        while peek() in "+-":
            op = peek()
            take(op)
            value = value + term() if op == "+" else value - term()
        return value

    def term():
        value = factor()
        while peek() in "*/":
            op = peek()
            take(op)
            rhs = factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor():
        base = primary()
        if peek() == "^":
            take("^")
            neg = peek() == "-"
            if neg:
                take("-")
            e = take("num")
            base = base ** (-e if neg else e)
        return base

    def primary():
        kind = peek()
        if kind == "num":
            return Fraction(take("num"))
        if kind == "name":
            name = take("name")
            if name not in point:
                raise EvalError(f"unassigned variable {name!r} in {text!r}")
            return Fraction(point[name])
        if kind == "(":
            take("(")
            value = expr()
            take(")")
            return value
        raise EvalError(f"unexpected token {kind!r} in {text!r}")

    value = expr()
    if peek() != "end":
        raise EvalError(f"trailing input in {text!r}")
    return value


# ---------------------------------------------------------------------
# genus of projective space and Riemann-Roch


def genus_closed_form(series: str, n: int, y: Fraction):
    """Genus of P^n for a built-in series, from its closed form (the
    Hirzebruch genus at the given y)."""
    if series == "chern":
        return Fraction(n + 1)
    if series == "todd":
        return Fraction(1)
    if series == "lgenus":
        return Fraction(1 - n % 2)
    if series == "ahat":
        if n % 2:
            return Fraction(0)
        k = n // 2
        return Fraction((-1) ** k * math.comb(2 * k, k), 16 ** k)
    if series == "hirzebruch":
        return sum((Fraction(-y) ** i for i in range(n + 1)), Fraction(0))
    raise ValueError(f"no closed form for series {series!r}")


def hrr_sections(n: int, d: int) -> int:
    """dim H^0(P^n, O(d)) = C(n + d, d)."""
    return math.comb(n + d, d)


# ---------------------------------------------------------------------
# resolution data: stratum sums evaluated at a point


def _class_at(coeffs, lval: Fraction) -> Fraction:
    """A class given by its integer coefficients in L, at L = lval."""
    return sum((c * lval ** i for i, c in enumerate(coeffs)), Fraction(0))


def stratum_sum(components, strata, s: Fraction, r: int) -> Fraction:
    """Sum over I of [E_I^o] * prod_{i in I} (L-1)/(L^{a_i+1}-1) at
    L = s^r, with L^{1/r} = s.  ``components`` lists discrepancies,
    ``strata`` maps a sorted index tuple to the class coefficients."""
    lval = s ** r
    total = Fraction(0)
    for subset, coeffs in strata.items():
        term = _class_at(coeffs, lval)
        for i in subset:
            m = r * (components[i] + 1)
            term *= (lval - 1) / (s ** int(m) - 1)
        total += term
    return total


def stringy_euler(components, strata) -> Fraction:
    """Sum over I of chi(E_I^o) * prod_{i in I} 1/(a_i + 1), with
    chi of a class in L its value at L = 1."""
    total = Fraction(0)
    for subset, coeffs in strata.items():
        term = _class_at(coeffs, Fraction(1))
        for i in subset:
            term /= components[i] + 1
        total += term
    return total


def all_subsets(k: int):
    for size in range(k + 1):
        yield from combinations(range(k), size)


# ---------------------------------------------------------------------
# jets of monomial divisors


def jets_partial_sum(exponents, pmax: int, q: Fraction) -> Fraction:
    """sum_{p <= pmax} mu(ord E = p) q^-p at L = q, by contact-order
    convolution: a coordinate with exponent a > 0 has order o with
    measure (q - 1) q^-o and contributes a*o to the contact order; a
    coordinate with a = 0 contributes a factor q."""
    q = Fraction(q)
    by_order = [Fraction(0)] * (pmax + 1)
    by_order[0] = Fraction(1)
    for a in exponents:
        if a == 0:
            by_order = [v * q for v in by_order]
            continue
        nxt = [Fraction(0)] * (pmax + 1)
        for p, v in enumerate(by_order):
            if not v:
                continue
            o = 0
            while p + a * o <= pmax:
                nxt[p + a * o] += v * (q - 1) / q ** o
                o += 1
        by_order = nxt
    return sum((v / q ** p for p, v in enumerate(by_order)), Fraction(0))


def jets_closed_form(exponents, q: Fraction) -> Fraction:
    """prod over coordinates of (q-1) q^(a+1) / (q^(a+1) - 1), or q when
    a = 0: the full motivic volume of the divisor's contact orders."""
    q = Fraction(q)
    out = Fraction(1)
    for a in exponents:
        out *= (q - 1) * q ** (a + 1) / (q ** (a + 1) - 1) if a else q
    return out
