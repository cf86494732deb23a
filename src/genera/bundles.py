"""Chern roots vs Chern classes: Newton identities, multiplicative classes,
the Chern character, lambda/symmetric-power operations, and the elliptic
class as a q-series.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .graded import GradedRing
from .k0 import ValidationError
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
        # c(E + F) = c(E) c(F): the product of the two Lambda_t series
        chern = (lambda_op(self, rank) * lambda_op(other, rank)).coeffs[1:]
        roots = None
        if self.split_roots is not None and other.split_roots is not None:
            roots = self.split_roots + other.split_roots
        return FormalBundle(self.ring, rank, chern, roots)


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
#
# Each split root is an integer linear form sum m_h h in the ring's
# weight-1 variables h, and the line with that first Chern class is the
# Laurent monomial prod x_h^m_h, in one line variable x_h per such
# variable; coefficients lie in Z[y, 1/y].  Tensor product of lines is
# the product of monomials, and distinct monomials are distinct lines.


def _line_monomials(bundle: FormalBundle):
    """Yield the line monomial prod x_h^m_h of each split root sum m_h h."""
    if bundle.rank and bundle.split_roots is None:
        raise ValueError("the line-level model needs declared split roots")
    for root in bundle.split_roots or ():
        for expo, m in root.terms.items():
            if expo.count(1) != 1 or expo.count(0) != len(expo) - 1 or \
                    m.denominator != 1 or \
                    bundle.ring.weights.get(root.vars[expo.index(1)]) != 1:
                raise ValidationError(f"split root {root} is not an integer "
                                      f"linear form in weight-1 variables")
        yield MultiPoly.monomial({f"x_{root.vars[expo.index(1)]}": int(m)
                                  for expo, m in root.terms.items()})


def line_ch(value, bundle: FormalBundle) -> MultiPoly:
    """Chern character of a line-level value of ``bundle``: split by its
    line monomials prod x_h^m_h, each coefficient c maps to
    c * exp(sum m_h h), one exp per line, reduced in the bundle's ring."""
    ring = bundle.ring
    parts = [(MultiPoly.const(0), MultiPoly._coerce(value))]
    for h in (h for h, w in ring.weights.items() if w == 1):
        parts = [(alpha + m * MultiPoly.var(h), coeff) for alpha, rest in parts
                 for m, coeff in rest.coefficients_in(f"x_{h}").items()]
    return ring.reduce(sum((coeff * ring.exp_nilpotent(alpha)
                            for alpha, coeff in parts), MultiPoly.const(0)))


def _line_factor(x: MultiPoly, q_order: int) -> TruncSeries:
    """q-series elliptic factor of the line x: (1 + y/x) times
    prod_n (1 + y q^n / x) S_{q^n}(1/x) (1 + q^n x / y) S_{q^n}(x), with
    (1 + c q^n L) S_{q^n}(L) = 1 + (1 + c) sum_{k>=1} L^k q^(nk)."""
    zero = MultiPoly.const(0)
    out = TruncSeries("q", q_order, [1 + Y * x ** -1] + [zero] * q_order)
    for n in range(1, q_order + 1):
        for line, c in ((x ** -1, Y), (x, Y ** -1)):
            out = out * TruncSeries("q", q_order, [MultiPoly.const(1)] + [
                (1 + c) * line ** (m // n) if m % n == 0 else zero
                for m in range(1, q_order + 1)])
    return out


def elliptic_class_qseries(bundle: FormalBundle, q_order: int) -> TruncSeries:
    """ELL(E) = Lambda_y(E^*) tensor W(E) as a series in q whose
    coefficients are line-level values: Laurent polynomials in y and the
    line variables x_h (see `line_ch` for their Chern character).

    Requires a split bundle (rank 0 is the empty product) whose roots are
    integer linear forms, else raises ValidationError.  The q^0
    coefficient is Lambda_y(E^*).  Other normalizations in the literature
    replace y by -y and rescale by y^(rank/2); this implementation pins the
    convention above and leaves that dictionary to the docs.
    """
    if q_order < 0:
        raise ValueError("q_order must be >= 0")
    out = TruncSeries("q", q_order,
                      [MultiPoly.const(1)] + [MultiPoly.const(0)] * q_order)
    # one factor per distinct line, multiplied in once per root on it
    for x, multiplicity in Counter(_line_monomials(bundle)).items():
        factor = _line_factor(x, q_order)
        for _ in range(multiplicity):
            out = out * factor
    return out


def lambda_y_dual_lines(bundle: FormalBundle) -> MultiPoly:
    """Lambda_y(E^*) at the line level: prod (1 + y/x) over root lines x."""
    out = MultiPoly.const(1)
    for x in _line_monomials(bundle):
        out = out * (1 + Y * x ** -1)
    return out
