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
from itertools import accumulate
from math import comb
from operator import mul

from .dense import _digits, _pack
from .rings import ExactDivisionError, MultiPoly, TruncSeries, coeff_div_exact

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

    A leading zero run z^v shifts the power by v m, as in
    ``TruncSeries.__pow__``; write the rest as sum b_k z^k through z^K,
    K = order - v m.  With M the lcm of the denominators of the k! b_k,
    A_k = k! M b_k are the integer coefficients of an exponential
    generating function, and so are the G_k = k! M^m [z^k] (sum b_k
    z^k)^m of its m-th power, which ``_scaled_power`` computes; the value
    is G_K / (K! M^m), a Fraction when every coefficient is a scalar, a
    MultiPoly otherwise.  A scalar A_k is an int.  A polynomial one, times
    one common power of its variable, is packed by ``_packed`` and G_K is
    unpacked by ``dense._digits`` once.
    """
    coeffs = series.coeffs
    scalar = all(isinstance(c, (int, Fraction)) for c in coeffs)
    if not scalar:
        coeffs = [MultiPoly._coerce(c) for c in coeffs]
        if None in coeffs:
            return None
        names = {v for p in coeffs for v in p.vars}
        if len(names) > 1:
            return None
        var = names.pop() if names else "y"
    v = next((k for k, c in enumerate(coeffs) if c != 0), None)
    if m == 0 or v is None or v * m > series.order:
        # series^0 = 1; past a zero run longer than order / m, 0
        value = Fraction(int(m == 0 and series.order == 0))
        return value if scalar else MultiPoly.const(value)
    top = series.order - v * m
    b = coeffs[v:v + top + 1]
    facts = list(accumulate(range(1, top + 1), mul, initial=1))
    if scalar:
        parts = [c.as_integer_ratio() for c in b]
        scale = _scale([d for _, d in parts], facts)
        return Fraction(_scaled_power([p * (f * scale // d) for (p, d), f
                                       in zip(parts, facts)], m),
                        facts[top] * scale ** m)
    parts = [[(e[0] if e else 0, *c.as_integer_ratio())
              for e, c in p.terms.items()] for p in b]
    low = min((e for t in parts for e, _, _ in t), default=0)
    scale = _scale([math.lcm(*(d for _, _, d in t)) for t in parts], facts)
    rows = []
    for t, f in zip(parts, facts):
        row = [0] * (max((e for e, _, _ in t), default=low) - low + 1)
        for e, p, d in t:
            row[e - low] = p * (f * scale // d)
        rows.append(row)
    packed, bits = _packed(rows, m)
    den = facts[top] * scale ** m
    return MultiPoly((var,), {
        (low * m + i,): Fraction(c, den)
        for i, c in enumerate(_digits(_scaled_power(packed, m), bits)) if c})


def _scale(dens: list, facts: list) -> int:
    """M, the least positive int with every k! M / dens[k] an int, which
    is the lcm of the dens[k] / gcd(dens[k], k!); facts[k] = k!."""
    scale = 1
    for d, f in zip(dens, facts):
        if d > 1:
            scale = math.lcm(scale, d // math.gcd(d, f))
    return scale


def _scaled_power(a: list, m: int):
    """G_K for K = len(a) - 1, m >= 1 and a[0] != 0, where G_k = k! [z^k]
    F^m for the exponential generating function F = sum a_k z^k / k!.
    The Miller recurrence F G' = m F' G (``rings._power_coeffs``) reads on
    exponential coefficients

        a_0 G_k = sum_{j>=1} ((m+1) C(k-1, j-1) - C(k, j)) a_j G_(k-j),

    G_0 = a_0^m, over the nonzero a_j.  Products of exponential
    generating functions with integer coefficients have integer
    coefficients, so for int a_k every division by a_0 is exact; a
    remainder raises ExactDivisionError.  The a_k may be polynomials
    packed at one X = 2^B: the packed G_k are then the values at X of the
    polynomial ones, whose quotients by a_0 exist, so the divisions are
    exact on the packed ints too."""
    a0 = a[0]
    terms = [(j, c) for j, c in enumerate(a) if j and c]
    g = [a0 ** m]
    m1 = m + 1
    for k in range(1, len(a)):
        acc = 0
        for j, c in terms:
            if j > k:
                break
            acc += (m1 * comb(k - 1, j - 1) - comb(k, j)) * c * g[k - j]
        q, r = divmod(acc, a0)
        if r:
            raise ExactDivisionError("nonzero remainder in exact division")
        g.append(q)
    return g[-1]


def _packed(rows: list, m: int):
    """The int coefficient lists rows[k] of A_k (lowest first, one common
    shift) packed at X = 2^B, and B: the least multiple of 8 with
    2^(B-1) > K! (sum_k |A_k|_1 / k!)^m, K = len(rows) - 1, a bound on
    every coefficient of G_K in ``_scaled_power``: its 1-norm is at most
    K! [z^K] (sum_k |A_k|_1 z^k / k!)^m.  In integers that is 2^(B-1) >=
    S^m // K!^(m-1) + 1 with S = sum_k |A_k|_1 K! / k!."""
    total, ratio = 0, 1  # ratio = K! / k!
    for k in reversed(range(len(rows))):
        total += sum(map(abs, rows[k])) * ratio
        ratio *= k
    top = math.factorial(len(rows) - 1)
    bits = ((total ** m // top ** (m - 1)).bit_length() + 8) // 8 * 8
    return [_pack(row, bits) for row in rows], bits


def genus_on_projective(f: TruncSeries, n: int):
    """Value of the genus of f on n-dimensional projective space."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > f.order:
        raise ValueError(
            f"series order {f.order} too small; need at least {n}")
    # [z^n] f^(n+1) reads f only through z^n
    coeff = _power_coefficient_over_z(f.truncate(n), n + 1)
    if coeff is None:
        raise ValueError(
            "genus_on_projective takes a series whose coefficients are "
            "rationals or polynomials in one and the same variable")
    a = f.constant_term()
    if a == 1:
        return coeff
    return coeff_div_exact(coeff, a)
