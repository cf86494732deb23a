"""Truncated graded polynomial rings.

A GradedRing assigns a weight to each graded variable (unlisted variables
have weight zero and survive truncation untouched) and kills every term
whose weighted degree exceeds the cutoff, or whose exponent in some
variable exceeds that variable's nilpotency bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, itemgetter, mul

from .dense import _digits, _pack, _widen
from .rings import MultiPoly, _div


class GradedRing:
    def __init__(self, weights: dict, cutoff: int, bounds: dict | None = None):
        self.weights = dict(weights)
        self.cutoff = cutoff
        self.bounds = dict(bounds or {})

    def reduce(self, poly) -> MultiPoly:
        """poly without its terms past the cutoff or a bound; poly itself
        when it keeps every term."""
        if isinstance(poly, (int, Fraction)):
            return MultiPoly.const(poly)
        weights = [self.weights.get(v, 0) for v in poly.vars]
        bounds = [(i, self.bounds[v]) for i, v in enumerate(poly.vars)
                  if v in self.bounds]
        kept = {e: c for e, c in poly.terms.items()
                if sum(map(mul, weights, e)) <= self.cutoff
                and all(e[i] <= bound for i, bound in bounds)}
        return poly if len(kept) == len(poly.terms) else \
            MultiPoly(poly.vars, kept)

    def mul(self, a, b) -> MultiPoly:
        """reduce(a * b), by the truncated product of ``_product`` on
        integers: D_a a and D_b b, D the lcm of the coefficient
        denominators, multiplied and divided by D_a D_b once."""
        a, b = MultiPoly._coerce(a), MultiPoly._coerce(b)
        names, ta, tb = a._align(b)
        (da, ia), (db, ib) = _cleared(ta), _cleared(tb)
        dd = da * db
        product = self._product(names, ia, ib, self._bounds(names, ia, ib))
        return MultiPoly(names, {e: _div(c, dd) for e, c in product.items()})

    def _bounds(self, names, *factors: dict) -> list:
        """The (index, bound) pairs that ``_product`` tests on products of
        the factors' terms over ``names``.  With no negative weighted
        exponent w*e in the factors, there is none in such a product, whose
        exponents within the cutoff are at most cutoff // w: only bounds
        below that, or on a variable of weight w <= 0, are listed."""
        weights = [self.weights.get(v, 0) for v in names]
        signed = any(w * e < 0 for t in factors for expo in t
                     for w, e in zip(weights, expo))
        return [(i, b) for i, v in enumerate(names)
                if (b := self.bounds.get(v)) is not None and
                (signed or weights[i] <= 0 or b < self.cutoff // weights[i])]

    def _product(self, names, ta: dict, tb: dict, bounds: list) -> dict:
        """The terms of reduce(a * b) from the term dicts of a and b over
        the variables ``names``, forming only the term pairs that survive
        the truncation: the terms of b are sorted by weighted degree, so
        the scan of b stops at the first term past the cutoff, and a pair
        with an exponent past one of the ``bounds``, from ``_bounds``, is
        skipped.  The coefficients may be of any ring."""
        weights = [self.weights.get(v, 0) for v in names]
        right = sorted(((sum(map(mul, weights, e)), e, c)
                        for e, c in tb.items()), key=itemgetter(0))
        out = {}
        for e1, c1 in ta.items():
            room = self.cutoff - sum(map(mul, weights, e1))
            for d2, e2, c2 in right:
                if d2 > room:
                    break
                key = tuple(map(add, e1, e2))
                if bounds and any(key[i] > bound for i, bound in bounds):
                    continue
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
        return out

    def power(self, elt, n: int) -> MultiPoly:
        """reduce(elt^n) for n >= 0, on integers: ``_power`` of the int
        terms of D * reduce(elt), D the lcm of its coefficient
        denominators, divided by D^n once at the end.  The 1-norm is
        submultiplicative and truncation only drops terms, so every
        coefficient of a truncated product of m factors is at most N^m in
        size, N the 1-norm of D * reduce(elt).  It is thus below 2^(B-1)
        for B the bit length of N^m plus 1, rounded up to a multiple of 8:
        the width at which ``_power`` packs such a product."""
        if n < 0:
            raise ValueError("negative powers are not supported")
        elt = self.reduce(elt)
        d, base = _cleared(elt.terms)
        widths = _widths(sum(map(abs, base.values())), n)
        dn = d ** n
        return MultiPoly(elt.vars, {e: _div(c, dn) for e, c in
                                    self._power(elt.vars, base,
                                                widths).items()})

    def _power(self, names, terms: dict, widths: list) -> dict:
        """The int terms of reduce(p^n), p the polynomial with the int
        terms ``terms`` over ``names`` and n = len(widths) - 1, by
        Kronecker substitution.  The free variables (weight 0 and no
        bound, such as y) leave the exponent tuples: each monomial in the
        other variables gets one int, the value at X = 2^B of its
        coefficient, a polynomial in the free variables with each exponent
        shifted by its lowest in p.  The shifted exponent of free variable
        j counts in place value r_j of a mixed radix of n * span_j + 1,
        span_j the range of its exponents in p, so every exponent tuple of
        a power up to p^n has its own digit.  Truncated binary powering
        from the lowest bit, with no square after the highest one, runs
        ``_product`` on those ints: truncation does not see the free
        variables, so a packed product is the product's value at X.  A
        product of m factors runs at B = widths[m], its factors widened to
        it by ``_widen``, so the early products, with their smaller
        coefficients, run on shorter ints; the result is unpacked by
        ``_digits`` at B = widths[n].  Both read balanced digits, which are
        the coefficients while each coefficient of a product of m factors
        is below 2^(widths[m] - 1) in size."""
        n = len(widths) - 1
        free = [i for i, v in enumerate(names)
                if not self.weights.get(v, 0) and v not in self.bounds]
        graded = [i for i in range(len(names)) if i not in free]
        lows, places, place = [], [], 1
        for i in free:
            low = min(e[i] for e in terms)
            lows.append(low)
            places.append(place)
            place *= n * (max(e[i] for e in terms) - low) + 1
        rows = {}  # graded exponents -> {digit: coefficient}
        for e, c in terms.items():
            digit = sum((e[i] - low) * r
                        for i, low, r in zip(free, lows, places))
            rows.setdefault(tuple(e[i] for i in graded), {})[digit] = c

        def repack(t: dict, m: int, to: int) -> dict:
            """t, packed for m factors, repacked for ``to`` factors; with
            one digit (no free variable) an int is its value at any X."""
            old, new = widths[m], widths[to]
            return t if old == new or place == 1 else {
                key: _widen(v, old, new) for key, v in t.items()}

        gnames = [names[i] for i in graded]
        # p packed for one factor (unused when n = 0)
        base, step = {key: _pack([row.get(j, 0) for j in range(max(row) + 1)],
                                 widths[min(1, n)])
                      for key, row in rows.items()}, 1
        bounds = self._bounds(gnames, base)  # hold for every power of p
        out, have = {(0,) * len(graded): 1}, 0
        m = n
        while m:
            if m & 1:
                out = self._product(gnames, repack(out, have, have + step),
                                    repack(base, step, have + step), bounds)
                have += step
            m >>= 1
            if m:
                square = repack(base, step, 2 * step)
                base, step = self._product(gnames, square, square,
                                           bounds), 2 * step
        # a digit's free exponents, read from the highest place value down
        decode = [(i, r, n * low) for i, r, low in
                  reversed(list(zip(free, places, lows)))]
        expo, result = [0] * len(names), {}
        for key, value in out.items():
            for i, g in zip(graded, key):
                expo[i] = g
            for digit, c in enumerate(_digits(value, widths[n])):
                if c:
                    for i, r, shift in decode:
                        q, digit = divmod(digit, r)
                        expo[i] = q + shift
                    result[tuple(expo)] = c
        return result


def _widths(norm: int, n: int) -> list:
    """For m = 0..n, the bit length of norm^m plus 1, rounded up to a
    multiple of 8."""
    return [(p.bit_length() + 8) // 8 * 8
            for p in accumulate(repeat(norm, n), mul, initial=1)]


def _cleared(terms: dict):
    """(D, the int terms of D times the terms), D the lcm of the
    coefficient denominators."""
    d = math.lcm(*(c.denominator for c in terms.values()))
    return d, {e: c.numerator * (d // c.denominator)
               for e, c in terms.items()}
