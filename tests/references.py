"""Independent references that only the tests use: a generalized binomial
coefficient, cell-decomposition and arc-tower classes, the naive motivic
measure, the coordinate resolution datum of the jets oracle, its geometric
tail bound, and StringyValue from text."""

import math
from fractions import Fraction

from genera.expr import parse_expr
from genera.jets import JetSpec, _coordinate_strata, _partial, closed_integral
from genera.k0 import (K0Class, LEFSCHETZ, TowerDatum, lefschetz,
                       pro_grothendieck)
from genera.stringy import ResolutionDatum, StringyValue


def binom_frac(a: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient C(a, k) for rational a."""
    out = Fraction(1)
    for i in range(k):
        out *= (a - i)
    return out / math.factorial(k)


def projective_space_class(n: int) -> K0Class:
    """[P^n] = 1 + L + ... + L^n (cell decomposition)."""
    out = K0Class.point()
    for i in range(1, n + 1):
        out = out + lefschetz(i)
    return out


def arc_tower_class(x_class: K0Class, dim: int, level: int) -> K0Class:
    """[L_n(X)] = [X] * L^(n*dim) for smooth X of the given dimension."""
    return x_class * lefschetz(level * dim) if level * dim else x_class


def naive_motivic_measure(x_class: K0Class, dim: int, level: int):
    """Gamma^ind of the full jet space at the given truncation level;
    must return [X] for every level (the naive motivic measure)."""
    tower = TowerDatum(gamma=lefschetz(dim) if dim else K0Class.point())
    return pro_grothendieck(tower, level + 1,
                            arc_tower_class(x_class, dim, level))


def coordinate_datum(spec: JetSpec) -> ResolutionDatum:
    """The resolution datum of the identity map on C^d with boundary
    sum a_i * {x_i = 0}: components are the coordinate hyperplanes with
    positive exponent, open strata are tori times affine factors, one
    K0Class per distinct Dense class of the oracle's table."""
    components, table = _coordinate_strata(spec)
    classes = {id(c): K0Class(c.to_poly(), {"L": LEFSCHETZ}) for c in table}
    strata = tuple(classes[id(c)] for c in table)
    return ResolutionDatum("arc", 1, components, strata)


def tail_bound_check(spec: JetSpec, p_max: int) -> bool:
    """partial + geometric tail equals the closed form exactly: the
    difference partial * den - num, a single Laurent polynomial, must
    vanish at least like L^-(p_max+1) relative to den.  With all exponents
    zero the partial is already exact."""
    partial = _partial(spec, p_max).to_poly()
    closed = closed_integral(spec)
    diff = partial * closed.denominator - closed.numerator
    if diff.is_zero():
        return True
    top = max(e[diff.vars.index("L")] for e in diff.terms)
    return top - closed.denominator.total_degree() <= -(p_max + 1)


def stringy_value_from_expr(text: str, r: int = 1) -> StringyValue:
    """A polynomial in u, v (and t) as a StringyValue."""
    return StringyValue(parse_expr(text, variables=("u", "v", "t")), 1, r)
