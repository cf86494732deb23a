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
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .dense import Dense
from .rings import MultiPoly, RationalFunction
from .stringy import checked_fold

MAX_DIM = 4
MAX_LEVEL = 64

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


def _walk(levels, budget: int, value=0, weight: int = 0):
    """Yield (weight, value) for every choice of one (w, x) pair per
    level whose weights add up to at most ``budget``; each level lists
    its pairs by increasing weight.  The value is ``value`` plus the
    chosen x, so a cell that travels as an int exponent costs one
    addition per level."""
    if not levels:
        yield weight, value
        return
    first, rest = levels[0], levels[1:]
    for w, x in first:
        if weight + w > budget:
            break
        if rest:
            yield from _walk(rest, budget, value + x, weight + w)
        else:
            yield weight + w, value + x


def _contact_cells(spec: JetSpec, budget: int):
    """(contact order, e) of every cell whose contact order sum a_i o_i is
    at most ``budget``; the cell's class in L_n(C^d) is (L-1)^m L^e, m the
    number of positive exponents.  Per positive coordinate the orders
    o = 0..budget // a_i each give (L-1) L^(n-o): the first o coefficients
    vanish, the next one does not and the remaining n - o are free (o <= n
    by stabilization).  Each free coordinate gives L^(n+1)."""
    n, d = spec.level, spec.dimension
    weights = [a for a in spec.exponents if a > 0]
    levels = [[(a * o, n - o) for o in range(budget // a + 1)]
              for a in weights]
    return _walk(levels, budget, (n + 1) * (d - len(weights)))


def _total(binned: dict) -> Dense:
    """The sum over j of (L-1)^j times sum_e count * L^e, from
    binned = {j: {e: count}}: one Dense product per j."""
    total = ZERO
    for j, counts in binned.items():
        if counts:
            low = min(counts)
            row = [0] * (max(counts) - low + 1)
            for e, c in counts.items():
                row[e - low] = c
            total += Dense("L", low, row) * L_MINUS_1 ** j
    return total


def _positive(spec: JetSpec) -> int:
    """m, the number of positive exponents: each contact cell is
    (L-1)^m L^e."""
    return sum(a > 0 for a in spec.exponents)


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
    counts = Counter(e for w, e in _contact_cells(spec, p) if w == p)
    return _total({_positive(spec): counts}).shift(-n * d).to_poly()


def _partition_measure(spec: JetSpec) -> Dense:
    """The summed measure of the exact-contact-order cells, each
    coordinate of order 0..n or in the all-zero remainder cell."""
    n, d = spec.level, spec.dimension
    # a cell (L-1)^j L^e travels as the int j * stride + e: e <= n * d
    stride = n * d + 1
    orders = [(0, stride + n - o) for o in range(n + 1)] + [(0, 0)]
    binned = defaultdict(dict)
    for v, count in Counter(v for _, v in _walk([orders] * d, 0)).items():
        j, e = divmod(v, stride)
        binned[j][e] = count
    return _total(binned).shift(-n * d)


def partition_check(spec: JetSpec) -> bool:
    """The exact-contact-order cells (including the deeper-than-level
    remainder per coordinate) partition the jet space: measures add up
    to L^d."""
    return _partition_measure(spec) == ONE.shift(spec.dimension)


def _coordinate_strata(spec: JetSpec):
    """The components (H_i, a_i) of the coordinate hyperplanes with
    positive exponent, and the open strata of C^d as a table of Dense
    classes in L indexed by bitmask: a mask that misses j of the m
    components holds L^(d-m) (L-1)^j, one object per j."""
    positive = [i for i in range(spec.dimension) if spec.exponents[i] > 0]
    m = len(positive)
    components = tuple(
        (f"H{i + 1}", Fraction(spec.exponents[i])) for i in positive)
    by_missing = [ONE.shift(spec.dimension - m)]
    for _ in range(m):
        by_missing.append(by_missing[-1] * L_MINUS_1)
    return components, [by_missing[m - mask.bit_count()]
                        for mask in range(1 << m)]


def _closed_parts(spec: JetSpec):
    """Numerator and denominator of the closed form, unreduced: the
    product over the coordinates of (L-1) L^(a+1) / (L^(a+1) - 1) when
    a > 0, else L."""
    positive = [a for a in spec.exponents if a > 0]
    shift = sum(positive) + spec.dimension
    num = (L_MINUS_1 ** len(positive)).shift(shift)
    den = math.prod((ONE.shift(a + 1) - 1 for a in positive), start=ONE)
    return num, den


def _partial(spec: JetSpec, p_max: int) -> Dense:
    """The sum of the cylinder measures of contact order p <= p_max
    against L^-p, at a level of at least p_max."""
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    level = max(spec.level, p_max)
    working = JetSpec(spec.dimension, spec.exponents, level)
    counts = Counter(e - w for w, e in _contact_cells(working, p_max))
    return _total({_positive(spec): counts}).shift(-level * spec.dimension)


def oracle_integral(spec: JetSpec, p_max: int):
    """(partial, closed, verdict): the truncated sum of cylinder measures
    against L^-p, the closed form, and agreement of the closed form with
    the stratum-sum motivic integral of the coordinate strata, stringy's
    checked fold of their Dense table; the verdict is one
    cross-multiplication of the unreduced parts.  The fold runs first:
    it checks the denominator budget before the partial sum and the
    closed form build polynomials of the exponents' degree."""
    components, table = _coordinate_strata(spec)
    num, den = checked_fold("arc", 1, components, {(): table}, "L")
    partial = _partial(spec, p_max)
    cnum, cden = _closed_parts(spec)
    verdict = cnum * den == num[()] * cden
    closed = RationalFunction._of_parts({(): cnum}, cden)
    return partial.to_poly(), closed, verdict
