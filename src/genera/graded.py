"""Truncated graded polynomial rings.

A GradedRing assigns a weight to each graded variable (unlisted variables
have weight zero and survive truncation untouched) and kills every term
whose weighted degree exceeds the cutoff, or whose exponent in some
variable exceeds that variable's nilpotency bound.
"""

from __future__ import annotations

from fractions import Fraction

from .rings import MultiPoly


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
            power = self.reduce(power * poly)
            if power.is_zero():
                break
            fact *= m
            out = out + power * Fraction(1, fact)
        return out

    def mul(self, a, b) -> MultiPoly:
        return self.reduce(a * b)

    def prod(self, elts) -> MultiPoly:
        out = MultiPoly.const(1)
        for e in elts:
            out = self.reduce(out * e)
        return out


class ChernRing(GradedRing):
    """Abstract ring of Chern classes c1..cr, with deg(c_i) = i, truncated
    at a total-degree cutoff.  Extra weight-zero variables (y, t, ...) pass
    through unharmed."""

    def __init__(self, rank: int, cutoff: int, prefix: str = "c"):
        self.rank = rank
        self.prefix = prefix
        names = [f"{prefix}{i}" for i in range(1, rank + 1)]
        super().__init__({n: i + 1 for i, n in enumerate(names)}, cutoff)
        self.chern_vars = tuple(names)

    def chern_class(self, i: int) -> MultiPoly:
        if not 1 <= i <= self.rank:
            raise ValueError(f"c{i} is out of range for rank {self.rank}")
        return MultiPoly.var(f"{self.prefix}{i}")
