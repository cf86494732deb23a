"""Independent references that only the tests use.

Checks of library values: a generalized binomial coefficient,
cell-decomposition and arc-tower classes, the naive motivic measure, the
coordinate resolution datum of the jets oracle, its closed form and
geometric tail bound, StringyValue from text, the resolution datum of a
product, the stringy Euler formula over Fraction, the count of monomials
by enumeration and a polynomial's value at any integer by Horner's rule.

Constructions that no verb of genera calls, kept here as the independent
side of the checks that use them:
- the Chern-root layer: ``ChernRing``, ``exp_nilpotent`` on a
  ``GradedRing``, ``FormalBundle``, Newton's identities
  (``power_sums_from_chern``), ``multiplicative_class``,
  ``chern_character``, the lambda and S operations and the elliptic class
  as a q-series on its line-level model (``elliptic_class_qseries``,
  ``lambda_y_dual_lines``, ``line_ch``);
- the stratified layer over K0: ``StratifiedSpace``, ``StratifiedMap``,
  ``ConstructibleFunction``, ``RelativeClass``, their push-forwards and
  pull-back, ``epsilon`` and ``exterior_product``;
- around the genus of P^n: ``genus_logarithm``, ``hirzebruch_specialize``,
  ``rescaled_series`` and ``unnormalize_invariance_check``,
  ``ghrr_integrand``, ``ghrr_normalization_check`` and
  ``twisted_chi_y``;
- around stringy values: ``rewrite_uv``, the constructor
  ``stringy_value`` and ``jacobian_factor_limit``."""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement

from genera.catalog import builtin_series, genus_on_projective
from genera.expr import parse_expr
from genera.graded import GradedRing
from genera.jets import JetSpec, _closed_parts, _coordinate_strata, _partial
from genera.k0 import (K0Class, LEFSCHETZ, TowerDatum, ValidationError,
                       euler_of_class, lefschetz, pro_grothendieck)
from genera.rings import (ExactDivisionError, MultiPoly, RationalFunction,
                          TruncSeries, coeff_div_exact, exp_coeffs)
from genera.stringy import (ConsistencyError, ResolutionDatum, StringyValue,
                            _fold)

Y = MultiPoly.var("y")


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
    return stringy_value(parse_expr(text, variables=("u", "v", "t")), 1, r)


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


# ---------------------------------------------------------------------
# Chern roots and Chern classes


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


def exp_nilpotent(ring: GradedRing, poly) -> MultiPoly:
    """exp of an element of positive weight of ring (a finite sum)."""
    poly = ring.reduce(MultiPoly._coerce(poly))
    weights = [ring.weights.get(v, 0) for v in poly.vars]
    if any(sum(w * e for w, e in zip(weights, expo)) < 1
           for expo in poly.terms):
        raise ValueError("exp needs an element of positive graded weight")
    out = power = MultiPoly.const(1)
    fact = 1
    for m in range(1, ring.cutoff + 1):
        power = ring.mul(power, poly)
        if power.is_zero():
            break
        fact *= m
        out = out + power * Fraction(1, fact)
    return out


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

    def __init__(self, ring: GradedRing, rank: int, chern=None,
                 split_roots=None):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        self.ring = ring
        self.rank = rank
        if split_roots is not None:
            split_roots = tuple(ring.reduce(MultiPoly._coerce(r))
                                for r in split_roots)
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
            if split_roots is not None and any(
                    ring.reduce(elementary_symmetric(split_roots, k))
                    != chern[k - 1] for k in range(1, rank + 1)):
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
    e = bundle.chern_with_unit()

    def e_at(i):
        return e[i] if i <= bundle.rank else MultiPoly.const(0)

    p = []
    for k in range(1, k_max + 1):
        acc = MultiPoly.const(0)
        for j in range(1, k):
            acc = acc + ((-1) ** (j - 1)) * e_at(j) * p[k - j - 1]
        acc = acc + ((-1) ** (k - 1)) * k * e_at(k)
        p.append(bundle.ring.reduce(acc))
    return p


def multiplicative_class(series: TruncSeries,
                         bundle: FormalBundle) -> MultiPoly:
    """prod f(alpha_i) rewritten in the Chern classes, for f(0) = 1: the
    product over the roots of a split bundle, else exp(sum_k lambda_k p_k)
    with log f(z) = sum lambda_k z^k."""
    ring = bundle.ring
    if bundle.split_roots is not None:
        out = MultiPoly.const(1)
        for r in bundle.split_roots:
            out = ring.mul(out, series.evaluate(r))
        return out
    logf = series.log()
    p = power_sums_from_chern(bundle, min(series.order, ring.cutoff)) \
        if bundle.rank else []
    arg = MultiPoly.const(0)
    for k, pk in enumerate(p, start=1):
        arg = arg + pk * logf[k]
    return exp_nilpotent(ring, arg)


def chern_character(bundle: FormalBundle) -> MultiPoly:
    """rank + sum_k p_k / k!  (the sum of exp(alpha_i))."""
    ring = bundle.ring
    out = MultiPoly.const(bundle.rank)
    if bundle.rank == 0:
        return out
    fact = 1
    for k, pk in enumerate(power_sums_from_chern(bundle, ring.cutoff),
                           start=1):
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
    minus_t = lambda_op(bundle, t_order).scale_variable(Fraction(-1))
    return minus_t.invert().map_coeffs(bundle.ring.reduce)


# The line-level model of split bundles and the elliptic class.  Each
# split root is an integer linear form sum m_h h in the ring's weight-1
# variables h, and the line with that first Chern class is the Laurent
# monomial prod x_h^m_h, in one line variable x_h per such variable;
# coefficients lie in Z[y, 1/y].  Tensor product of lines is the product
# of monomials, and distinct monomials are distinct lines.


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
    return ring.reduce(sum((coeff * exp_nilpotent(ring, alpha)
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
    line variables x_h (see `line_ch` for their Chern character).  The
    bundle must be split (rank 0 is the empty product) with roots that are
    integer linear forms, else ValidationError.  The q^0 coefficient is
    Lambda_y(E^*)."""
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


# ---------------------------------------------------------------------
# stratified spaces, maps, constructible functions and relative classes


@dataclass(frozen=True)
class StratifiedSpace:
    """Finite list of (name, class) strata; the space's class is the sum."""

    name: str
    strata: tuple  # of (name, K0Class)

    def __post_init__(self):
        names = [n for n, _ in self.strata]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate stratum names")

    def stratum_class(self, name: str) -> K0Class:
        return dict(self.strata)[name]

    def stratum_names(self):
        return tuple(n for n, _ in self.strata)

    def total_class(self) -> K0Class:
        return sum((c for _, c in self.strata), K0Class.zero())


@dataclass(frozen=True)
class StratifiedMap:
    """Stratum-to-stratum map with a constant fiber class per source
    stratum; validated so that [source stratum] = [target stratum]*[fiber]."""

    source: StratifiedSpace
    target: StratifiedSpace
    assignment: tuple  # of (source_name, target_name, fiber K0Class)

    def __post_init__(self):
        for sname, tname, fiber in self.assignment:
            if self.source.stratum_class(sname) != \
                    self.target.stratum_class(tname) * fiber:
                raise ValidationError(
                    f"stratum {sname!r}: class must equal target class "
                    f"times fiber class")
        if {s for s, _, _ in self.assignment} != \
                set(self.source.stratum_names()):
            raise ValidationError("every source stratum needs an assignment")

    def fiber_over(self, source_name: str):
        return {s: (t, f) for s, t, f in self.assignment}[source_name]

    @staticmethod
    def identity(space: StratifiedSpace) -> "StratifiedMap":
        return StratifiedMap(space, space, tuple(
            (n, n, K0Class.point()) for n in space.stratum_names()))

    def compose(self, then: "StratifiedMap") -> "StratifiedMap":
        """The map `then o self` (self first)."""
        if then.source != self.target:
            raise ValidationError("maps are not composable")
        assignment = []
        for sname, tname, fiber in self.assignment:
            t2, fiber2 = then.fiber_over(tname)
            assignment.append((sname, t2, fiber * fiber2))
        return StratifiedMap(self.source, then.target, tuple(assignment))


@dataclass(frozen=True)
class ConstructibleFunction:
    """Integer value per stratum of a stratified space."""

    base: StratifiedSpace
    values: tuple  # of (stratum_name, int)

    def __post_init__(self):
        if {n for n, _ in self.values} != set(self.base.stratum_names()):
            raise ValidationError("values must cover exactly the strata")

    def value(self, name: str) -> int:
        return dict(self.values)[name]

    @staticmethod
    def indicator(space: StratifiedSpace) -> "ConstructibleFunction":
        return ConstructibleFunction(space, tuple(
            (n, 1) for n in space.stratum_names()))

    def euler_integral(self) -> int:
        """chi(X; alpha) = sum over strata of value * chi_c(stratum)."""
        return sum(v * euler_of_class(self.base.stratum_class(n))
                   for n, v in self.values)


def pushforward_cf(f: StratifiedMap,
                   alpha: ConstructibleFunction) -> ConstructibleFunction:
    """f_*(alpha): fiberwise Euler integration."""
    if alpha.base != f.source:
        raise ValidationError("function lives on the wrong base")
    acc = {n: 0 for n in f.target.stratum_names()}
    for sname, tname, fiber in f.assignment:
        acc[tname] += alpha.value(sname) * euler_of_class(fiber)
    return ConstructibleFunction(f.target, tuple(sorted(acc.items())))


@dataclass(frozen=True)
class RelativeClass:
    """Relative K0 class over a stratified base: the constant fiber class
    over each stratum (the class over a point of that stratum)."""

    base: StratifiedSpace
    fibers: tuple  # of (stratum_name, K0Class)

    def __post_init__(self):
        if {n for n, _ in self.fibers} != set(self.base.stratum_names()):
            raise ValidationError("fibers must cover exactly the strata")

    def fiber(self, name: str) -> K0Class:
        return dict(self.fibers)[name]

    @staticmethod
    def unit(space: StratifiedSpace) -> "RelativeClass":
        """[X -> id X]: point fiber everywhere."""
        return RelativeClass(space, tuple(
            (n, K0Class.point()) for n in space.stratum_names()))

    def absolute(self) -> K0Class:
        """Push to a point: sum of [stratum]*[fiber]."""
        return sum((self.base.stratum_class(n) * c for n, c in self.fibers),
                   K0Class.zero())


def pushforward_rel(f: StratifiedMap, a: RelativeClass) -> RelativeClass:
    """Regroup along f, weighting each stratum by its fiber class."""
    if a.base != f.source:
        raise ValidationError("class lives on the wrong base")
    acc = {n: K0Class.zero() for n in f.target.stratum_names()}
    for sname, tname, fiber in f.assignment:
        acc[tname] = acc[tname] + a.fiber(sname) * fiber
    return RelativeClass(f.target, tuple(sorted(acc.items())))


def pullback_rel(f: StratifiedMap, a: RelativeClass) -> RelativeClass:
    """Fiber product: each source stratum inherits the class over its image."""
    if a.base != f.target:
        raise ValidationError("class lives on the wrong base")
    return RelativeClass(f.source, tuple(sorted(
        (sname, a.fiber(tname)) for sname, tname, _ in f.assignment)))


def epsilon(a: RelativeClass) -> ConstructibleFunction:
    """Fiberwise Euler characteristic: sends the relative unit to 1_X."""
    return ConstructibleFunction(a.base, tuple(
        (n, euler_of_class(c)) for n, c in a.fibers))


def exterior_product(a: RelativeClass, b: RelativeClass) -> RelativeClass:
    """Relative class over the product base (product stratification)."""
    strata = tuple(
        (f"{n1}*{n2}", c1 * c2)
        for n1, c1 in a.base.strata for n2, c2 in b.base.strata)
    base = StratifiedSpace(f"{a.base.name}*{b.base.name}", strata)
    fibers = tuple(
        (f"{n1}*{n2}", a.fiber(n1) * b.fiber(n2))
        for n1, _ in a.base.strata for n2, _ in b.base.strata)
    return RelativeClass(base, fibers)


# ---------------------------------------------------------------------
# around the genus of P^n


def genus_logarithm(f: TruncSeries, order: int) -> TruncSeries:
    """g(t) = sum_i Phi_f(P^i) t^(i+1)/(i+1), through t^order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return TruncSeries("t", order, [Fraction(0)] + [
        genus_on_projective(f, i) * Fraction(1, i + 1) for i in range(order)])


def hirzebruch_specialize(y0, order: int = 16) -> TruncSeries:
    """The Hirzebruch series with y specialized to the rational y0."""
    y0 = Fraction(y0)
    return builtin_series("hirzebruch", order).map_coeffs(
        lambda c: MultiPoly._coerce(c).substitute_map({"y": y0})
        .constant_value())


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


def unnormalize_invariance_check(f: TruncSeries, a,
                                 n_max: int | None = None) -> bool:
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
    return (emz * Y + 1) * builtin_series("todd", order)


def ghrr_normalization_check(order: int, series=builtin_series) -> bool:
    """Verify (1 + y e^{-z(1+y)})/(1+y) * z/(1 - e^{-z(1+y)})
    = z(1+y)/(1 - e^{-z(1+y)}) - z*y as series over Q[y] through z^order,
    the right side ``series("hirzebruch", order)``."""
    if order < 2:
        raise ValueError("order must be >= 2")
    unnorm = ghrr_integrand(order).scale_variable(1 + Y)
    lhs = TruncSeries("z", order, [MultiPoly._coerce(c).laurent_div_exact(
        1 + Y) for c in unnorm.coeffs])
    return lhs == series("hirzebruch", order)


def twisted_chi_y(n: int, k_order: int) -> MultiPoly:
    """Twisted chi_y genus of P^n: the integral of
    e^{-k c1(T)} ch(Lambda_y T^*) td(T), as a polynomial in y truncated in
    the formal twist variable k at k_order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # e^{-k(n+1)z} truncated in z (k degree grows with z degree)
    expk = TruncSeries("z", n, exp_coeffs(MultiPoly.var("k") * (-(n + 1)), n))
    total = expk * (ghrr_integrand(n) ** (n + 1))
    value = MultiPoly._coerce(total[n]).laurent_div_exact(1 + Y)
    return GradedRing({"k": 1}, k_order).reduce(value)


# ---------------------------------------------------------------------
# stringy values


def rewrite_uv(poly: MultiPoly, r: int) -> MultiPoly:
    """Canonical representative modulo u*v = t^r: in every monomial,
    min(deg_u, deg_v) is moved into the t exponent."""
    poly = MultiPoly._coerce(poly)
    if "u" not in poly.vars or "v" not in poly.vars:
        return poly
    names, terms, _ = poly._align(MultiPoly.var("t"))
    iu, iv, it = (names.index(var) for var in "uvt")
    out = {}
    for expo, coeff in terms.items():
        new = list(expo)
        m = min(new[iu], new[iv])
        new[iu], new[iv], new[it] = new[iu] - m, new[iv] - m, new[it] + r * m
        out[tuple(new)] = out.get(tuple(new), 0) + coeff
    return MultiPoly(names, out)


def stringy_value(num, den, r: int) -> StringyValue:
    """num/den with u*v = t^r as a StringyValue, den a polynomial in t,
    built from whole polynomials: the reference for the values that
    ``stringy._realise`` builds from an integral's parts."""
    den = MultiPoly._coerce(den)
    if set(den.vars) - {"t"}:
        raise ValidationError(
            f"stringy denominator must be a polynomial in t, got {den}")
    return object.__new__(StringyValue)._set(
        RationalFunction(rewrite_uv(num, r), den), r)


def jacobian_factor_limit(a, e_order: int) -> TruncSeries:
    """(y-1)(1 - y^{a+1} e^{-e}) / ((y^{a+1}-1)(1 - y e^{-e})) as a series
    in the nilpotent variable e with rational-function-in-y coefficients:
    the per-component Jacobian factor of the degree-level elliptic limit.

    The equivalent form 1 + (y - y^{a+1})(1 - e^{-e})/((y^{a+1}-1)(1 - y e^{-e}))
    is evaluated alongside; a termwise mismatch raises ConsistencyError.
    For a = 0 the factor is identically 1.
    """
    a = Fraction(a)
    if a <= -1:
        raise ValidationError("discrepancy must be > -1")
    if a.denominator != 1:
        raise ValidationError(
            "the degree-level factor needs an integral discrepancy")
    if a == 0:
        return TruncSeries.one("e", e_order).map_coeffs(RationalFunction)
    ya1 = Y ** (int(a) + 1)
    # e^{-e}, over rational functions of y so that the inverse exists
    exp = TruncSeries("e", e_order, exp_coeffs(-1, e_order)).map_coeffs(
        RationalFunction)
    inv = ((1 - exp * Y) * (ya1 - 1)).invert()
    form1 = (1 - exp * ya1) * (Y - 1) * inv
    form2 = (1 - exp) * (Y - ya1) * inv + 1
    if form1 != form2:
        raise ConsistencyError("the two Jacobian-factor forms disagree")
    return form1
