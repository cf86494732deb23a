"""Independent references that only the tests use: a generalized binomial
coefficient, cell-decomposition and arc-tower classes, the naive motivic
measure, the coordinate resolution datum of the jets oracle, its closed
form and geometric tail bound, StringyValue from text, the resolution
datum of a product, the stringy Euler formula over Fraction, the
count of monomials by enumeration and a polynomial's value at any
integer by Horner's rule."""

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement

from genera.expr import parse_expr
from genera.jets import JetSpec, _closed_parts, _coordinate_strata, _partial
from genera.k0 import (K0Class, LEFSCHETZ, TowerDatum, ValidationError,
                       euler_of_class, lefschetz, pro_grothendieck)
from genera.rings import RationalFunction
from genera.stringy import ResolutionDatum, StringyValue, _fold


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


def closed_integral(spec: JetSpec) -> RationalFunction:
    """Exact geometric-series summation of sum_p measure(p) * L^(-p):
    per coordinate, (L-1) L^(a+1) / (L^(a+1) - 1) when a > 0, else L."""
    num, den = _closed_parts(spec)
    return RationalFunction(num.to_poly(), den.to_poly())


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


def product_datum(d1: ResolutionDatum, d2: ResolutionDatum) -> ResolutionDatum:
    """Datum of a product pair: components concatenate, strata multiply;
    the stratum of masks m1 and m2 sits at m1 | m2 << k1."""
    if d1.index_r != d2.index_r or d1.flavor != d2.flavor:
        raise ValidationError("factors must share flavor and index")
    used = {name for name, _ in d1.components}
    components = list(d1.components)
    for name, a in d2.components:
        while name in used:
            name += "'"
        used.add(name)
        components.append((name, a))
    strata = tuple(s1 * s2 for s2 in d2.strata for s1 in d1.strata)
    return ResolutionDatum(d1.flavor, d1.index_r, tuple(components), strata)


def euler_formula(d: ResolutionDatum) -> Fraction:
    """Sum over strata of chi(E_I^o) * prod_{i in I} 1/(a_i + 1), one
    fold over Fraction of the Euler numbers of the datum's K0 classes."""
    k = len(d.components)
    return _fold([Fraction(euler_of_class(cls)) for cls in d.strata],
                 [1 / (d.discrepancy(i) + 1) for i in range(k)], [1] * k)


def count_monomials(n_vars: int, degree: int) -> int:
    """The number of degree-d monomials in n_vars variables, by enumerating
    them as multisets of variable indices."""
    return sum(1 for _ in combinations_with_replacement(range(n_vars), degree))


def horner_value(coeffs, x: int) -> int:
    """The polynomial with the coefficient tuple coeffs, lowest first, at
    x, by Horner's rule with products by x: the reference for
    ``dense._pack``, which takes x = 2^bits and shifts."""
    return reduce(lambda s, c: s * x + c, reversed(coeffs), 0)
