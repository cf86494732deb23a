"""Chern roots vs Chern classes: Newton identities, multiplicative classes,
the Chern character, lambda/symmetric-power operations, and the elliptic
class as a q-series.
"""

from __future__ import annotations

from fractions import Fraction

from .graded import ChernRing, GradedRing
from .rings import MultiPoly, TruncSeries, coeff_inverse

Y = MultiPoly.var("y")


def elementary_symmetric(roots, k: int) -> MultiPoly:
    """e_k of the given ring elements, by the product generating function."""
    # coefficients of prod (1 + r*T) up to T^k
    coeffs = [MultiPoly.const(1)] + [MultiPoly.const(0)] * k
    for r in roots:
        for j in range(min(k, len(coeffs) - 1), 0, -1):
            coeffs[j] = coeffs[j] + coeffs[j - 1] * r
    return coeffs[k]


class FormalBundle:
    """Rank + Chern classes in an ambient graded ring; optionally split
    with a declared multiset of Chern roots."""

    def __init__(self, ring: GradedRing, rank: int, chern=None, split_roots=None):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        self.ring = ring
        self.rank = rank
        if split_roots is not None:
            split_roots = tuple(ring.reduce(MultiPoly._coerce(r)) for r in split_roots)
            if len(split_roots) != rank:
                raise ValueError("need exactly `rank` split roots")
        self.split_roots = split_roots
        if chern is None:
            if split_roots is None:
                raise ValueError("need chern classes or split roots")
            chern = tuple(ring.reduce(elementary_symmetric(split_roots, k))
                          for k in range(1, rank + 1))
        else:
            chern = tuple(ring.reduce(MultiPoly._coerce(c)) for c in chern)
            if len(chern) != rank:
                raise ValueError("need exactly `rank` Chern classes")
            if split_roots is not None:
                for k in range(1, rank + 1):
                    if ring.reduce(elementary_symmetric(split_roots, k)) != chern[k - 1]:
                        raise ValueError(
                            "split roots disagree with the declared Chern classes")
        self.chern = chern

    def chern_with_unit(self):
        """[1, c1, ..., cr] as ring elements."""
        return [MultiPoly.const(1), *self.chern]

    def dual(self) -> "FormalBundle":
        chern = tuple(c * ((-1) ** (i + 1)) for i, c in enumerate(self.chern))
        roots = None
        if self.split_roots is not None:
            roots = tuple(-r for r in self.split_roots)
        return FormalBundle(self.ring, self.rank, chern, roots)

    def direct_sum(self, other: "FormalBundle") -> "FormalBundle":
        if other.ring is not self.ring:
            raise ValueError("bundles live in different ambient rings")
        rank = self.rank + other.rank
        a, b = self.chern_with_unit(), other.chern_with_unit()
        chern = []
        for k in range(1, rank + 1):
            acc = MultiPoly.const(0)
            for i in range(max(0, k - other.rank), min(k, self.rank) + 1):
                acc = acc + a[i] * b[k - i]
            chern.append(self.ring.reduce(acc))
        roots = None
        if self.split_roots is not None and other.split_roots is not None:
            roots = self.split_roots + other.split_roots
        return FormalBundle(self.ring, rank, tuple(chern), roots)


def power_sums_from_chern(bundle: FormalBundle, k_max: int):
    """p_k = sum of k-th powers of the Chern roots, via Newton's identities,
    expressed in the Chern classes.  Returns [p_1, ..., p_k_max]."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ring = bundle.ring
    e = bundle.chern_with_unit()

    def e_at(i):
        return e[i] if i <= bundle.rank else MultiPoly.const(0)

    p = []
    for k in range(1, k_max + 1):
        acc = MultiPoly.const(0)
        for j in range(1, k):
            acc = acc + ((-1) ** (j - 1)) * e_at(j) * p[k - j - 1]
        acc = acc + ((-1) ** (k - 1)) * k * e_at(k)
        p.append(ring.reduce(acc))
    return p


def multiplicative_class(series: TruncSeries, bundle: FormalBundle) -> MultiPoly:
    """prod f(alpha_i) rewritten in the Chern classes.

    Computed as a^rank * exp(sum_k lambda_k p_k) where log(f(z)/a) =
    sum lambda_k z^k and a = f(0) is a unit; split bundles take the direct
    product route.
    """
    ring = bundle.ring
    a = series.constant_term()
    if bundle.split_roots is not None:
        return ring.prod(series.evaluate(r) for r in bundle.split_roots)
    inv_a = coeff_inverse(a)  # rejects non-unit constant terms
    normalized = series * inv_a
    logf = normalized.log()
    p = power_sums_from_chern(bundle, min(series.order, ring.cutoff)) \
        if bundle.rank else []
    arg = MultiPoly.const(0)
    for k, pk in enumerate(p, start=1):
        arg = arg + pk * logf[k]
    result = ring.exp_nilpotent(ring.reduce(arg))
    for _ in range(bundle.rank):
        result = result * a
    return ring.reduce(result)


def chern_character(bundle: FormalBundle) -> MultiPoly:
    """rank + sum_k p_k / k!  (the sum of exp(alpha_i))."""
    ring = bundle.ring
    out = MultiPoly.const(bundle.rank)
    if bundle.rank == 0:
        return out
    fact = 1
    for k, pk in enumerate(power_sums_from_chern(bundle, ring.cutoff), start=1):
        fact *= k
        out = out + pk * Fraction(1, fact)
    return ring.reduce(out)


def lambda_op(bundle: FormalBundle, t_order: int) -> TruncSeries:
    """Total lambda operation: Lambda_t(E) = sum t^j c_j(E), a polynomial
    of degree rank in t."""
    coeffs = bundle.chern_with_unit()[: t_order + 1]
    return TruncSeries.from_coeffs("t", coeffs, t_order)


def s_op(bundle: FormalBundle, t_order: int) -> TruncSeries:
    """Total symmetric-power operation: S_t(E) = 1 / Lambda_{-t}(E)."""
    lam = lambda_op(bundle, t_order)
    minus_t = lam.scale_variable(Fraction(-1))
    return minus_t.invert().map_coeffs(bundle.ring.reduce)


# ---------------------------------------------------------------------
# line-level K-theory model (split bundles) and the elliptic class

class LineCombo:
    """Formal Z[y, 1/y]-linear combination of line classes, keyed by the
    first Chern class of each line.  Faithful for split bundles; tensor
    product adds the keys."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        clean = {}
        for alpha, coeff in terms.items():
            if isinstance(coeff, (int, Fraction)):
                coeff = MultiPoly.const(coeff)
            if not coeff.is_zero():
                clean[alpha] = coeff
        self.terms = clean

    @classmethod
    def scalar(cls, c) -> "LineCombo":
        return cls({MultiPoly.const(0): c})

    @classmethod
    def line(cls, alpha: MultiPoly, coeff=1) -> "LineCombo":
        return cls({alpha: coeff})

    @staticmethod
    def _coerce(x):
        if isinstance(x, LineCombo):
            return x
        if isinstance(x, (int, Fraction, MultiPoly)):
            return LineCombo.scalar(x)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for alpha, coeff in other.terms.items():
            out[alpha] = out.get(alpha, MultiPoly.const(0)) + coeff
        return LineCombo(out)

    __radd__ = __add__

    def __neg__(self):
        return LineCombo({a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                key = a1 + a2
                out[key] = out.get(key, MultiPoly.const(0)) + c1 * c2
        return LineCombo(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def ch(self, ring: GradedRing) -> MultiPoly:
        """Chern character: sum of coeff * exp(alpha)."""
        out = MultiPoly.const(0)
        for alpha, coeff in self.terms.items():
            alpha = ring.reduce(alpha)
            e = ring.exp_nilpotent(alpha) if not alpha.is_zero() else MultiPoly.const(1)
            out = out + coeff * e
        return ring.reduce(out)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*[{a}]" for a, c in sorted(
            self.terms.items(), key=lambda t: str(t[0])))


def _line_factor(alpha: MultiPoly, q_order: int, ring: GradedRing) -> TruncSeries:
    """q-series elliptic factor of a single line with first Chern class alpha:
    (1 + y[-a]) * prod_n (1 + y q^n [-a])(1 + 1/y q^n [a]) S_{q^n}([-a]) S_{q^n}([a])."""
    yinv = MultiPoly(("y",), {(-1,): Fraction(1)})
    minus = ring.reduce(-alpha)
    plus = ring.reduce(alpha)
    zero = LineCombo({})
    out = TruncSeries("q", q_order,
                      [LineCombo.line(minus, Y) + 1] + [zero] * q_order)
    for n in range(1, q_order + 1):
        lam_dual = [LineCombo.scalar(1)] + [zero] * q_order
        lam = [LineCombo.scalar(1)] + [zero] * q_order
        lam_dual[n] = LineCombo.line(minus, Y)
        lam[n] = LineCombo.line(plus, yinv)
        s_dual = [zero] * (q_order + 1)
        s = [zero] * (q_order + 1)
        for m in range(0, q_order // n + 1):
            s_dual[m * n] = LineCombo.line(ring.reduce(minus * m))
            s[m * n] = LineCombo.line(ring.reduce(plus * m))
        for factor in (lam_dual, lam, s_dual, s):
            out = out * TruncSeries("q", q_order, factor)
    return out


def elliptic_class_qseries(bundle: FormalBundle, q_order: int) -> TruncSeries:
    """ELL(E) = Lambda_y(E^*) tensor W(E) as a series in q whose
    coefficients are line combinations.

    Requires a split bundle (rank 0 is the empty product).  The q^0
    coefficient is Lambda_y(E^*).  Other normalizations in the literature
    replace y by -y and rescale by y^(rank/2); this implementation pins the
    convention above and leaves that dictionary to the docs.
    """
    if q_order < 0:
        raise ValueError("q_order must be >= 0")
    out = TruncSeries("q", q_order,
                      [LineCombo.scalar(1)] + [LineCombo({})] * q_order)
    if bundle.rank and bundle.split_roots is None:
        raise ValueError("the elliptic class needs declared split roots")
    for alpha in bundle.split_roots or ():
        out = out * _line_factor(alpha, q_order, bundle.ring)
    return out


def lambda_y_dual_lines(bundle: FormalBundle) -> LineCombo:
    """Lambda_y(E^*) at the line level: prod (1 + y[-alpha_i])."""
    if bundle.rank and bundle.split_roots is None:
        raise ValueError("needs a split bundle")
    out = LineCombo.scalar(1)
    for alpha in bundle.split_roots or ():
        out = out * (LineCombo.line(bundle.ring.reduce(-alpha), Y) + 1)
    return out
