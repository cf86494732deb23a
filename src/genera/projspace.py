"""Cohomology-ring models of products of projective spaces, integration by
top-coefficient extraction, and HRR / generalized-HRR verification.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .catalog import builtin_series, ghrr_integrand
from .graded import GradedRing
from .rings import MultiPoly, TruncSeries, exp_coeffs

Y = MultiPoly.var("y")


class ProjSpaceRing(GradedRing):
    """Truncated ring Q[y][h_1..h_m] / (h_j^{n_j + 1}) for a product of
    projective spaces of the given dimensions."""

    def __init__(self, factors):
        factors = tuple(int(n) for n in factors)
        if any(n < 0 for n in factors):
            raise ValueError("dimensions must be nonnegative")
        self.factors = factors
        names = tuple(f"h{j + 1}" for j in range(len(factors))) \
            if len(factors) > 1 else ("h",) * len(factors)
        self.hyperplanes = names
        super().__init__({n: 1 for n in names}, sum(factors),
                         dict(zip(names, factors)))

    def integrate(self, elt) -> MultiPoly:
        """Coefficient of the top monomial h_1^{n_1} ... h_m^{n_m}, read
        from the terms of elt in one pass."""
        elt = MultiPoly._coerce(elt)
        top = dict(zip(self.hyperplanes, self.factors))
        if any(n and h not in elt.vars for h, n in top.items()):
            return MultiPoly.const(0)
        want = [top.get(v) for v in elt.vars]
        keep = [i for i, w in enumerate(want) if w is None]
        return MultiPoly([elt.vars[i] for i in keep], {
            tuple(e[i] for i in keep): c for e, c in elt.terms.items()
            if all(w is None or w == x for w, x in zip(want, e))})

    def polynomial(self, coeffs, j: int = 0) -> MultiPoly:
        """The sum of c_k h_j^k over k <= n_j (h_j^(n_j + 1) = 0), built as
        one term dict; each c_k is a scalar or a polynomial free of h_j."""
        coeffs = [MultiPoly._coerce(c) for c in coeffs[:self.factors[j] + 1]]
        names = sorted(set().union(*(c.vars for c in coeffs)))
        return MultiPoly(names + [self.hyperplanes[j]], {
            tuple(dict(zip(c.vars, e)).get(v, 0) for v in names) + (k,): x
            for k, c in enumerate(coeffs) for e, x in c.terms.items()})

    def tangent_class(self, f: TruncSeries) -> MultiPoly:
        """prod_j f(h_j)^{n_j + 1}: the multiplicative class of the tangent
        bundle (Euler sequence: TP^n + 1 = O(1)^{n+1}), each power by
        truncated binary powering."""
        out = None
        for j, n in enumerate(self.factors):
            power = self.power(self.polynomial(f.coeffs, j), n + 1)
            out = power if out is None else self.mul(out, power)
        return MultiPoly.const(1) if out is None else out


def count_monomials(n_vars: int, degree: int) -> int:
    """Dimension of the space of degree-d monomials in n_vars variables,
    C(n_vars + d - 1, d) by stars and bars (the sheaf-cohomology oracle
    for O(d) on P^n, independent of the ring integral); no variables give
    the one monomial 1 in degree 0 and none in higher degree."""
    if n_vars <= 0:
        return int(degree == 0)
    return comb(n_vars + degree - 1, degree)


def hrr_check(n: int, d: int):
    """(lhs, rhs, equal): holomorphic Euler characteristic of O(d) on P^n
    vs the Todd-class integral."""
    if n < 0 or d < 0:
        raise ValueError("need n >= 0 and d >= 0")
    lhs = Fraction(count_monomials(n + 1, d))
    ring = ProjSpaceRing([n])
    todd = builtin_series("todd", order=max(n, 1))
    # ch(O(d)) = e^(d h), the sum of d^k/k! h^k over k <= n
    ch_line = ring.polynomial(exp_coeffs(d, n))
    rhs = ring.integrate(ring.mul(ch_line, ring.tangent_class(todd)))
    rhs = rhs.constant_value()
    return lhs, rhs, lhs == rhs


def ghrr_normalization_check(order: int) -> bool:
    """Verify (1 + y e^{-z(1+y)})/(1+y) * z/(1 - e^{-z(1+y)})
    = z(1+y)/(1 - e^{-z(1+y)}) - z*y as series over Q[y] through z^order."""
    if order < 2:
        raise ValueError("order must be >= 2")
    unnorm = ghrr_integrand(order).scale_variable(1 + Y)
    lhs_cs = []
    for c in unnorm.coeffs:
        lhs_cs.append(MultiPoly._coerce(c).laurent_div_exact(1 + Y))
    lhs = TruncSeries("z", order, lhs_cs)

    return lhs == builtin_series("hirzebruch", order)


def ty_class_degree(n: int) -> MultiPoly:
    """Degree of the Hirzebruch class of P^n: the integral of the modified
    Todd class of the tangent bundle (equals chi_y of P^n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    ring = ProjSpaceRing([n])
    f = builtin_series("hirzebruch", order=max(n, 1))
    return ring.integrate(ring.tangent_class(f))
