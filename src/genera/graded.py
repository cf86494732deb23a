"""Truncated graded polynomial rings.

A GradedRing assigns a weight to each graded variable (unlisted variables
have weight zero and survive truncation untouched) and kills every term
whose weighted degree exceeds the cutoff, or whose exponent in some
variable exceeds that variable's nilpotency bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, itemgetter, mul

from .rings import MultiPoly, _div


class GradedRing:
    def __init__(self, weights: dict, cutoff: int, bounds: dict | None = None):
        self.weights = dict(weights)
        self.cutoff = cutoff
        self.bounds = dict(bounds or {})

    def weighted_degree(self, variables, expo) -> int:
        return sum(self.weights.get(v, 0) * e for v, e in zip(variables, expo))

    def reduce(self, poly) -> MultiPoly:
        if isinstance(poly, (int, Fraction)):
            return MultiPoly.const(poly)
        kept = {}
        for expo, coeff in poly.terms.items():
            if self.weighted_degree(poly.vars, expo) > self.cutoff:
                continue
            if any(e > self.bounds.get(v, e)
                   for v, e in zip(poly.vars, expo)):
                continue
            kept[expo] = coeff
        return MultiPoly(poly.vars, kept)

    def has_positive_weight(self, poly) -> bool:
        """True when every term has weighted degree >= 1 (nilpotent)."""
        poly = self.reduce(poly) if isinstance(poly, MultiPoly) else MultiPoly.const(poly)
        return all(self.weighted_degree(poly.vars, e) >= 1 for e in poly.terms)

    def exp_nilpotent(self, poly) -> MultiPoly:
        """exp of an element of positive weight (a finite sum here)."""
        if not self.has_positive_weight(poly):
            raise ValueError("exp needs an element of positive graded weight")
        out = MultiPoly.const(1)
        power = MultiPoly.const(1)
        fact = 1
        for m in range(1, self.cutoff + 1):
            power = self.mul(power, poly)
            if power.is_zero():
                break
            fact *= m
            out = out + power * Fraction(1, fact)
        return out

    def mul(self, a, b) -> MultiPoly:
        """reduce(a * b), by the truncated product of ``_product``."""
        a, b = MultiPoly._coerce(a), MultiPoly._coerce(b)
        names, ta, tb = a._align(b)
        return MultiPoly(names, self._product(names, ta, tb))

    def _product(self, names, ta: dict, tb: dict) -> dict:
        """The terms of reduce(a * b) from the term dicts of a and b over
        the variables ``names``, forming only the term pairs that survive
        the truncation: the terms of b are sorted by weighted degree, so
        the scan of b stops at the first term past the cutoff, and a pair
        whose exponent in a bounded variable exceeds its bound is skipped.
        When no term of a or b has a negative weighted exponent w*e, a
        pair within the cutoff has each exponent at most cutoff // w, so
        only the bounds below that, or on a variable of weight w <= 0,
        are tested.  The coefficients may be of any ring (Fractions, or
        plain ints)."""
        weights = [self.weights.get(v, 0) for v in names]
        signed = any(w * e < 0 for t in (ta, tb) for expo in t
                     for w, e in zip(weights, expo))
        bounds = [(i, self.bounds[v]) for i, v in enumerate(names)
                  if v in self.bounds and (signed or weights[i] <= 0 or
                                           self.bounds[v] <
                                           self.cutoff // weights[i])]
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
        """reduce(elt^n) for n >= 0, on integers: with D the lcm of the
        coefficient denominators of reduce(elt), truncated binary powering
        from the lowest bit, with no square after the highest one, runs on
        the int terms of D * reduce(elt), and the result is divided by D^n
        once at the end."""
        elt = self.reduce(elt)
        d = math.lcm(*(c.denominator for c in elt.terms.values()))
        base = {e: c.numerator * (d // c.denominator)
                for e, c in elt.terms.items()}
        out = {(0,) * len(elt.vars): 1}
        dn = d ** n
        while n:
            if n & 1:
                out = self._product(elt.vars, out, base)
            n >>= 1
            if n:
                base = self._product(elt.vars, base, base)
        return MultiPoly(elt.vars, {e: _div(c, dn) for e, c in out.items()})

    def prod(self, elts) -> MultiPoly:
        out = MultiPoly.const(1)
        for e in elts:
            out = self.mul(out, e)
        return out


class ChernRing(GradedRing):
    """Abstract ring of Chern classes c1..cr, with deg(c_i) = i, truncated
    at a total-degree cutoff.  Extra weight-zero variables (y, t, ...) pass
    through unharmed."""

    def __init__(self, rank: int, cutoff: int):
        self.rank = rank
        super().__init__({f"c{i}": i for i in range(1, rank + 1)}, cutoff)

    def chern_class(self, i: int) -> MultiPoly:
        if not 1 <= i <= self.rank:
            raise ValueError(f"c{i} is out of range for rank {self.rank}")
        return MultiPoly.var(f"c{i}")
