"""Brute-force jet-space oracle for motivic integrals of monomial
divisors on affine space.

Arcs on C^d are truncated to jets of order n; the locus where the divisor
E = sum a_i * {x_i = 0} has contact order exactly p is cut out by
vanishing/nonvanishing patterns on Taylor coefficients, and its class is
counted symbolically in L (a free coefficient contributes L, a
nonvanishing one L - 1).  The resulting measures are summed against L^-p
and compared with the closed-form stratum integral.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .dense import Dense
from .k0 import LEFSCHETZ, K0Class
from .rings import MultiPoly, RationalFunction
from .stringy import ResolutionDatum, _checked_integral

MAX_DIM = 4
MAX_LEVEL = 64

L = MultiPoly.var("L")
ZERO = Dense("L", 0, ())
ONE = Dense("L", 0, (1,))
L_MINUS_1 = Dense("L", 0, (-1, 1))


@dataclass(frozen=True)
class JetSpec:
    """Monomial divisor sum a_i * {x_i = 0} on C^dimension, with jets
    truncated at the given order."""

    dimension: int
    exponents: tuple
    level: int = 24

    def __post_init__(self):
        if not 1 <= self.dimension <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}")
        if not 0 <= self.level <= MAX_LEVEL:
            raise ValueError(f"truncation level must be in 0..{MAX_LEVEL}")
        if len(self.exponents) != self.dimension:
            raise ValueError("need one exponent per coordinate")
        if any(not isinstance(a, int) or a < 0 for a in self.exponents):
            raise ValueError("exponents must be nonnegative integers")


def jet_space_class(spec: JetSpec) -> MultiPoly:
    """[L_n(C^d)] = L^(d(n+1))."""
    return L ** (spec.dimension * (spec.level + 1))


def _coordinate_cell(order: int, n: int) -> Dense:
    """Class in L_n(C) of the jets with contact order exactly ``order``
    along {x = 0}: the first ``order`` coefficients vanish, the next one
    does not, the remaining n - order are free."""
    return L_MINUS_1.shift(n - order)


def _walk(levels, budget: int, cell: Dense, weight: int = 0):
    """Yield (weight, cell) for every choice of one (w, class) pair per
    level whose weights add up to at most ``budget``; each level lists
    its pairs by increasing weight.  The cell is ``cell`` times the
    chosen classes: the product over a prefix of levels is taken once and
    shared by every cell below it, so each cell costs one product."""
    if not levels:
        yield weight, cell
        return
    first, rest = levels[0], levels[1:]
    for w, cls in first:
        if weight + w > budget:
            break
        if rest:
            yield from _walk(rest, budget, cell * cls, weight + w)
        else:
            yield weight + w, cell * cls


def _contact_cells(spec: JetSpec, budget: int):
    """(contact order, class in L_n(C^d)) of every cell whose contact
    order sum a_i o_i is at most ``budget``: per positive coordinate the
    orders o = 0..budget // a_i, times the free coordinates."""
    n, d = spec.level, spec.dimension
    weights = [a for a in spec.exponents if a > 0]
    levels = [[(a * o, _coordinate_cell(o, n))
               for o in range(budget // a + 1)] for a in weights]
    return _walk(levels, budget, ONE.shift((n + 1) * (d - len(weights))))


def _total(cells) -> Dense:
    """The sum of cell * L^shift over the (shift, cell) pairs, added
    coefficientwise into one table."""
    acc = defaultdict(int)
    for shift, cell in cells:
        low = cell.low + shift
        for i, c in enumerate(cell.coeffs):
            acc[low + i] += c
    if not acc:
        return ZERO
    low = min(acc)
    return Dense("L", low, [acc[e] for e in range(low, max(acc) + 1)])


def cylinder_measure(spec: JetSpec, p: int) -> MultiPoly:
    """Measure of {ord(E) = p}: the class of the cut-out subset of the
    level-n jet space times L^(-n*d).  Stabilization requires n >= p."""
    if p < 0:
        raise ValueError("contact order must be nonnegative")
    n, d = spec.level, spec.dimension
    if n < p:
        raise ValueError(
            f"truncation level {n} too small for contact order {p} "
            f"(stabilization needs level >= order)")
    total = _total((0, cell) for w, cell in _contact_cells(spec, p) if w == p)
    return total.shift(-n * d).to_poly()


def _partition_measure(spec: JetSpec) -> Dense:
    """The summed measure of the exact-contact-order cells, each
    coordinate of order 0..n or in the all-zero remainder cell."""
    n, d = spec.level, spec.dimension
    orders = [(0, _coordinate_cell(o, n)) for o in range(n + 1)] + [(0, ONE)]
    total = _total((0, cell) for _, cell in _walk([orders] * d, 0, ONE))
    return total.shift(-n * d)


def partition_check(spec: JetSpec) -> bool:
    """The exact-contact-order cells (including the deeper-than-level
    remainder per coordinate) partition the jet space: measures add up
    to L^d."""
    return _partition_measure(spec) == ONE.shift(spec.dimension)


def coordinate_datum(spec: JetSpec) -> ResolutionDatum:
    """The resolution datum of the identity map on C^d with boundary
    sum a_i * {x_i = 0}: components are the coordinate hyperplanes with
    positive exponent, open strata are tori times affine factors."""
    positive = [i for i in range(spec.dimension) if spec.exponents[i] > 0]
    m = len(positive)
    components = tuple(
        (f"H{i + 1}", Fraction(spec.exponents[i])) for i in positive)
    # the stratum of a mask is L^(d-m) (L-1)^j, j the components it misses
    by_missing = [ONE.shift(spec.dimension - m)]
    for _ in range(m):
        by_missing.append(by_missing[-1] * L_MINUS_1)
    classes = [K0Class(c.to_poly(), {"L": LEFSCHETZ}) for c in by_missing]
    strata = tuple(classes[m - mask.bit_count()] for mask in range(1 << m))
    return ResolutionDatum("arc", 1, components, strata)


def _closed_parts(spec: JetSpec):
    """Numerator and denominator of the closed form, unreduced: the
    product over the coordinates of (L-1) L^(a+1) / (L^(a+1) - 1) when
    a > 0, else L."""
    positive = [a for a in spec.exponents if a > 0]
    shift = sum(positive) + spec.dimension
    num = (L_MINUS_1 ** len(positive)).shift(shift)
    den = math.prod((ONE.shift(a + 1) - 1 for a in positive), start=ONE)
    return num, den


def closed_integral(spec: JetSpec) -> RationalFunction:
    """Exact geometric-series summation of sum_p measure(p) * L^(-p):
    per coordinate, (L-1) L^(a+1) / (L^(a+1) - 1) when a > 0, else L."""
    num, den = _closed_parts(spec)
    return RationalFunction(num.to_poly(), den.to_poly())


def _partial(spec: JetSpec, p_max: int) -> Dense:
    """The sum of the cylinder measures of contact order p <= p_max
    against L^-p, at a level of at least p_max."""
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    level = max(spec.level, p_max)
    working = JetSpec(spec.dimension, spec.exponents, level)
    partial = _total((-w, cell) for w, cell in _contact_cells(working, p_max))
    return partial.shift(-level * spec.dimension)


def oracle_integral(spec: JetSpec, p_max: int):
    """(partial, closed, verdict): the truncated sum of cylinder measures
    against L^-p, the closed form, and agreement of the closed form with
    the checked stratum-sum motivic integral of the matching coordinate
    datum, decided by one cross-multiplication of the unreduced parts."""
    partial = _partial(spec, p_max)
    cnum, cden = _closed_parts(spec)
    _, num, den = _checked_integral(coordinate_datum(spec))
    verdict = list(num) == [()] and cnum * den == num[()] * cden
    closed = RationalFunction(cnum.to_poly(), cden.to_poly())
    return partial.to_poly(), closed, verdict


def tail_bound_check(spec: JetSpec, p_max: int) -> bool:
    """partial + geometric tail equals the closed form exactly:
    the per-coordinate tails factor, so compare via the remainder of the
    one-variable series.  With all exponents zero the partial is already
    exact."""
    partial = _partial(spec, p_max).to_poly()
    closed = closed_integral(spec)
    # the difference must vanish at least like L^-(p_max+1); compare as a
    # single Laurent polynomial to avoid fraction normalization
    diff = partial * closed.denominator - closed.numerator
    if diff.is_zero():
        return True
    top = max(e[diff.vars.index("L")] for e in diff.terms)
    return top - closed.denominator.total_degree() <= -(p_max + 1)
