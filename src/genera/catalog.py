"""Catalog of characteristic power series and genus evaluation on
projective spaces.

The computational rule is: the genus attached to a power series f with
unit constant term a takes the value [z^n] f(z)^(n+1) / a on the
n-dimensional projective space.  For normalized f (a = 1) this is the
usual coefficient extraction; the division by a is exactly what makes the
value invariant under the rescaling f(z) -> f(az)/a.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .dense import Dense
from .graded import GradedRing
from .rings import (ExactDivisionError, MultiPoly, TruncSeries,
                    coeff_div_exact, exp_coeffs)

Y = MultiPoly.var("y")

SERIES_NAMES = ("chern", "todd", "lgenus", "ahat", "hirzebruch")


def _tangent_numbers(m: int) -> list:
    """T_1..T_m, the tangent numbers (tan z = sum T_k z^(2k-1)/(2k-1)!),
    by Algorithm TangentNumbers of Brent and Harvey, "Fast computation of
    Bernoulli, tangent and secant numbers" (arXiv:1108.0286): O(m^2)
    products of ints."""
    t = [1] * m
    for k in range(1, m):
        t[k] = k * t[k - 1]
    for k in range(1, m):
        for j in range(k, m):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _even_series(order: int, coeff) -> list:
    """Coefficients through z^order of 1 + sum_{k>=1} coeff(4^k, b_k) z^2k
    with b_k = B_2k / (2k)!, and zero odd coefficients; the Bernoulli
    number is B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), T_k a tangent
    number."""
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    fact = 1  # (2k)!
    for k, t in enumerate(_tangent_numbers(order // 2), 1):
        fact *= (2 * k - 1) * 2 * k
        four = 4 ** k
        b = Fraction((-1) ** (k - 1) * 2 * k * t, four * (four - 1) * fact)
        out[2 * k] = coeff(four, b)
    return out


def _todd_series(order: int) -> TruncSeries:
    # z / (1 - e^{-z}) = 1 + z/2 + sum_k B_2k z^2k / (2k)!
    coeffs = _even_series(order, lambda four, b: b)
    if order >= 1:
        coeffs[1] = Fraction(1, 2)
    return TruncSeries("z", order, coeffs)


def _lgenus_series(order: int) -> TruncSeries:
    # z / tanh z = sum_k 4^k B_2k z^2k / (2k)!
    return TruncSeries("z", order,
                       _even_series(order, lambda four, b: four * b))


def _ahat_series(order: int) -> TruncSeries:
    # (z/2) / sinh(z/2) = sum_k (2 - 4^k) B_2k z^2k / (4^k (2k)!)
    return TruncSeries("z", order, _even_series(
        order, lambda four, b: (2 - four) * b / four))


def _hirzebruch_series(order: int) -> TruncSeries:
    # f_y(z) = z(1+y) / (1 - e^{-z(1+y)}) - z*y: the Todd coefficient
    # t_k times (1+y)^k, expanded by the binomial theorem on ints; the
    # odd t_k = 0 (k >= 3) give the zero polynomial
    cs = [MultiPoly(("y",), {(i,): Fraction(t.numerator * math.comb(k, i),
                                            t.denominator)
                             for i in range(k + 1) if t})
          for k, t in enumerate(_todd_series(order).coeffs)]
    if order >= 1:
        cs[1] = cs[1] - Y
    return TruncSeries("z", order, cs)


def builtin_series(name: str, order: int = 16) -> TruncSeries:
    """Named characteristic series f(z) with unit constant term, exact
    through z^order."""
    if name == "chern":
        return TruncSeries.from_coeffs("z", [Fraction(1), Fraction(1)], order)
    if name == "todd":
        return _todd_series(order)
    if name == "lgenus":
        return _lgenus_series(order)
    if name == "ahat":
        return _ahat_series(order)
    if name == "hirzebruch":
        return _hirzebruch_series(order)
    raise ValueError(f"unknown series {name!r}; choose from {SERIES_NAMES}")


def _power_coefficient_over_z(series: TruncSeries, m: int):
    """[z^order] series^m on integers, or None unless every coefficient
    is a scalar or a polynomial in one and the same variable.

    With D the lcm of the coefficient denominators, D * series has its
    coefficients in Z (as ints) or in Z[y] (as ``Dense``), so the Miller
    recurrence of ``TruncSeries.__pow__`` runs exactly over Z, and the
    coefficient is that of (D * series)^m over D^m.  The value is a
    Fraction when every coefficient is a scalar, a MultiPoly otherwise.
    """
    coeffs = series.coeffs
    scalar = all(isinstance(c, (int, Fraction)) for c in coeffs)
    if scalar:
        d = math.lcm(*(c.denominator for c in coeffs))
        cleared = [c.numerator * (d // c.denominator) for c in coeffs]
    else:
        polys = [MultiPoly._coerce(c) for c in coeffs]
        if None in polys:
            return None
        names = {v for p in polys for v in p.vars}
        if len(names) > 1:
            return None
        var = names.pop() if names else "y"
        d = math.lcm(*(c.denominator for p in polys
                       for c in p.terms.values()))
        cleared = [Dense.from_poly(p, var, d) for p in polys]
    top = (TruncSeries(series.var, series.order, cleared) ** m)[series.order]
    if isinstance(top, Dense):
        return top.to_poly() / d ** m
    value = Fraction(top, d ** m)  # an int, or the zero after a zero run
    return value if scalar else MultiPoly.const(value)


def genus_on_projective(f: TruncSeries, n: int):
    """Value of the genus of f on n-dimensional projective space."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > f.order:
        raise ValueError(
            f"series order {f.order} too small; need at least {n}")
    # [z^n] f^(n+1) reads f only through z^n
    head = f.truncate(n)
    coeff = _power_coefficient_over_z(head, n + 1)
    if coeff is None:
        coeff = (head ** (n + 1))[n]
    a = f.constant_term()
    if a == 1:
        return coeff
    return coeff_div_exact(coeff, a)


def genus_logarithm(f: TruncSeries, order: int) -> TruncSeries:
    """g(t) = sum_i Phi_f(P^i) t^(i+1)/(i+1), through t^order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [Fraction(0)]
    for i in range(order):
        coeffs.append(genus_on_projective(f, i) * Fraction(1, i + 1))
    return TruncSeries("t", order, coeffs)


def hirzebruch_specialize(y0, order: int = 16) -> TruncSeries:
    """The Hirzebruch series with y specialized to the rational y0."""
    y0 = Fraction(y0)
    h = _hirzebruch_series(order)

    def subst(c):
        c = MultiPoly._coerce(c)
        return c.substitute_map({"y": y0}).constant_value()

    return h.map_coeffs(subst)


def rescaled_series(f: TruncSeries, a) -> TruncSeries:
    """f(az)/a for a unit a: coefficient c_k goes to c_k * a^(k-1).
    Raises ValueError unless a divides the constant term c_0."""
    c0, *rest = f.coeffs
    try:
        coeffs = [coeff_div_exact(c0, a)]
    except ExactDivisionError:
        raise ValueError(f"a = {a} does not divide the constant term "
                         f"{c0}") from None
    power = MultiPoly.const(1)  # a^(k-1), one product per step
    for k, c in enumerate(rest, 1):
        if k > 1:
            power = power * a
        coeffs.append(c * power)
    return TruncSeries(f.var, f.order, coeffs)


def unnormalize_invariance_check(f: TruncSeries, a, n_max: int | None = None) -> bool:
    """True iff f and f(az)/a induce the same genus for all n up to the
    truncation bound (the rescaling rule for non-normalized series);
    raises ValueError unless a divides the constant term of f."""
    g = rescaled_series(f, a)
    bound = f.order if n_max is None else n_max
    return all(genus_on_projective(f, n) == genus_on_projective(g, n)
               for n in range(bound + 1))


def ghrr_integrand(order: int) -> TruncSeries:
    """(1 + y e^{-z}) * z/(1 - e^{-z}): the non-normalized series whose
    genus is chi_y; its constant term is 1 + y."""
    emz = TruncSeries("z", order, exp_coeffs(-1, order))
    return (emz * Y + 1) * _todd_series(order)


def twisted_chi_y(n: int, k_order: int) -> MultiPoly:
    """Twisted chi_y genus of P^n: the integral of
    e^{-k c1(T)} ch(Lambda_y T^*) td(T), as a polynomial in y truncated in
    the formal twist variable k at k_order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    order = n
    f = ghrr_integrand(order)  # (1+y e^{-z}) z/(1-e^{-z})
    kvar = MultiPoly.var("k")
    # e^{-k(n+1)z} truncated in z (k degree grows with z degree)
    expk = TruncSeries("z", order, exp_coeffs(kvar * (-(n + 1)), order))
    total = expk * (f ** (n + 1))
    value = MultiPoly._coerce(total[n]).laurent_div_exact(1 + Y)
    return GradedRing({"k": 1}, k_order).reduce(value)
