"""The dense integer kernel against MultiPoly, its gcd and the reduction
of one-variable fractions against the Fraction Euclid they replaced, and
the jets measures against their MultiPoly formulas and the
product-and-filter enumeration that the cell walk replaced."""

import math
import operator
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from genera import dense  # noqa: E402
from genera.dense import Dense  # noqa: E402
from genera import jets  # noqa: E402
from genera.jets import (  # noqa: E402
    JetSpec, cylinder_measure, oracle_integral, partition_check)
from genera.rings import ExactDivisionError, MultiPoly, RationalFunction  # noqa: E402
from references import closed_integral, horner_value  # noqa: E402

X = MultiPoly.var("x")
L = MultiPoly.var("L")

ints = st.integers(-9, 9)
# polynomials in x, and constants in y: a constant mixes with any variable
denses = st.one_of(
    st.builds(lambda low, cs: Dense("x", low, cs),
              st.integers(-4, 4), st.lists(ints, max_size=6)),
    st.builds(lambda c: Dense("y", 0, (c,)), ints))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(denses, denses)
@hypothesis.example(Dense("x", -1, (2, 0, 1)), Dense("y", 0, (5,)))
def test_ring_operations_against_multipoly(a, b):
    pa, pb = a.to_poly(), b.to_poly()
    assert (a + b).to_poly() == pa + pb
    assert (a - b).to_poly() == pa - pb
    assert (a * b).to_poly() == pa * pb
    assert (-a).to_poly() == -pa
    assert (a == b) == (pa == pb)
    if a == b:
        assert hash(a) == hash(b)
    assert (a + 3).to_poly() == pa + 3
    assert (3 + a).to_poly() == 3 + pa
    assert (a - 3).to_poly() == pa - 3
    assert (3 - a).to_poly() == 3 - pa
    assert (-a + b).to_poly() == -pa + pb
    assert (a * -2).to_poly() == pa * -2
    # a MultiPoly does not mix with a Dense, from either side
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(a, pb)
        with pytest.raises(TypeError):
            op(pa, b)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(denses, st.integers(0, 7))
def test_power_against_multipoly(a, n):
    expected = MultiPoly.const(1)
    for _ in range(n):
        expected = expected * a.to_poly()
    assert (a ** n).to_poly() == expected


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(denses, denses)
def test_exact_division(a, b):
    if b == 0:
        with pytest.raises(ZeroDivisionError):
            a / b
        return
    assert (a * b) / b == a
    assert (a * b * 3) / 3 == a * b
    assert 0 / b == 0
    # only a unit +-x^k divides 1 + a b in Z[x, 1/x]
    if len(b.coeffs) > 1 or abs(b.coeffs[0]) > 1:
        with pytest.raises(ExactDivisionError):
            (a * b + 1) / b


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(denses, st.integers(-5, 5))
def test_shift_against_multipoly(a, k):
    assert a.shift(k).to_poly() == \
        a.to_poly() * MultiPoly.monomial({a.var: k})


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(denses)
def test_round_trip_and_hash(a):
    back = Dense.from_poly(a.to_poly(), a.var)
    assert back == a and hash(back) == hash(a)
    assert back.coeffs == a.coeffs and back.low == a.low
    if a.is_constant():
        value = a.coeffs[0] if a.coeffs else 0
        assert a == value and hash(a) == hash(value)


def test_zero_and_trimming():
    zero = Dense("x", 5, (0, 0))
    assert zero.coeffs == () and zero.low == 0
    assert zero == 0 and zero == Dense("t", 0, ()) and hash(zero) == hash(0)
    assert zero.to_poly() == MultiPoly.const(0)
    assert Dense("x", -2, (0, 3, 0)) == Dense("x", -1, (3,))
    assert Dense("x", 0, (3,)) == Dense("t", 0, (3,)) == 3
    assert Dense("x", 1, (3,)) != Dense("t", 1, (3,))


def test_bad_input():
    with pytest.raises(ValueError):
        Dense("x", 1, (1,)) ** -1
    with pytest.raises(ValueError):
        Dense("x", 1, (1,)) + Dense("t", 1, (1,))
    with pytest.raises(ValueError):
        Dense.from_poly(X / 2, "x")
    with pytest.raises(ValueError):
        Dense.from_poly(X / 4 + X ** 2 / 3, "x", 6)
    assert Dense.from_poly(X / 4 + X ** 2 / 3, "x", 12) == \
        Dense("x", 1, (3, 4))
    with pytest.raises(ValueError):
        Dense.from_poly(X * MultiPoly.var("y"), "x")


# ---------------------------------------------------------------------
# fraction reduction


def euclid_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The monic gcd by Euclid's algorithm over Fraction coefficients,
    as MultiPoly.gcd_univariate computed it before the int-list kernel."""
    if a.is_zero():
        return b.content_normalized()[1]
    if b.is_zero():
        return a.content_normalized()[1]
    names = set(a.vars) | set(b.vars)
    if not names:
        return MultiPoly.const(1)
    name = names.pop()

    def to_list(p):
        cs = [Fraction(0)] * (max(p.coefficients_in(name), default=0) + 1)
        for expo, coeff in p.terms.items():
            cs[expo[0] if p.vars else 0] = Fraction(coeff)
        return cs

    def strip(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = strip(to_list(a)), strip(to_list(b))
    while b:
        while len(a) >= len(b):
            f = a[-1] / b[-1]
            off = len(a) - len(b)
            for i, bc in enumerate(b):
                a[off + i] -= f * bc
            strip(a)
            if not a:
                break
        a, b = b, a
    poly = MultiPoly.const(0)
    for i, c in enumerate(a):
        if c:
            poly = poly + MultiPoly.monomial({name: i}, c / a[-1])
    return poly


def reference_fraction(num: MultiPoly, den: MultiPoly):
    """Euclid's monic gcd, exact division, content normalisation of the
    denominator, then its monomial factor, a unit, moved to the
    numerator."""
    g = euclid_gcd(num, den)
    if not g.is_constant():
        num, den = num.div_exact(g), den.div_exact(g)
    unit, den = den.content_normalized()
    low = {name: min(e[i] for e in den.terms)
           for i, name in enumerate(den.vars)}
    mono = MultiPoly.monomial(low).monomial_inverse()
    return num / unit * mono, den * mono


def random_poly(rng, fractions: bool) -> MultiPoly:
    out = MultiPoly.const(0)
    for i in range(rng.randint(0, 3)):
        c = rng.randint(-6, 6)
        if fractions:
            c = Fraction(c, rng.randint(1, 4))
        out = out + MultiPoly.monomial({"x": i}, c)
    return out


@pytest.mark.parametrize("fractions", (False, True))
def test_reduction_against_fraction_euclid(fractions):
    rng = random.Random(17 + fractions)
    for _ in range(300):
        f, g, h = (random_poly(rng, fractions) for _ in range(3))
        num, den = f * g, h * g
        if den.is_zero():
            continue
        rf = RationalFunction(num, den)
        ref_num, ref_den = reference_fraction(num, den)
        assert rf.numerator == ref_num and str(rf.numerator) == str(ref_num)
        assert rf.denominator == ref_den and \
            str(rf.denominator) == str(ref_den)
        assert num.gcd_univariate(den) == euclid_gcd(num, den)


def test_exact_division_over_the_integers():
    def x(*coeffs, low=0):
        return Dense("x", low, coeffs)

    assert x(1, 2, 1) / x(1, 1) == x(1, 1)
    assert x(-6, 2, 4) / x(-2, 2) == x(3, 2)
    # (x^2 + 2x^3 + x^4) / (x^-1 + 1) = x^3 + x^4
    assert x(1, 2, 1, low=2) / x(1, 1, low=-1) == x(1, 1, low=3)
    with pytest.raises(ExactDivisionError):
        x(1, 0, 1) / x(1, 1)
    with pytest.raises(ExactDivisionError):
        x(1, 1) / x(2, 2)
    with pytest.raises(ExactDivisionError):     # x / 2x = 1/2
        x(0, 1) / x(0, 2)
    with pytest.raises(ExactDivisionError):
        x(1) / x(1, 1)


def test_linear_divisor_against_long_division():
    # a monic divisor x - c takes the running-sum path of Dense /; long
    # division of the same coefficients gives the same quotient, and both
    # raise ExactDivisionError on a remainder
    rng = random.Random(24)
    exact = raised = 0
    for _ in range(300):
        c = rng.choice((1, 1, -1, 2, -3, 7))
        root = Dense("x", rng.randint(-2, 2), (-c, 1))
        q = Dense("x", rng.randint(-3, 3),
                  [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))])
        for p in (q * root, q * root + rng.randint(1, 5)):
            if not p.coeffs:
                continue
            try:
                expected = dense._long_quotient(p.coeffs, root.coeffs)
            except ExactDivisionError:
                raised += 1
                with pytest.raises(ExactDivisionError):
                    dense._linear_quotient(p.coeffs, c)
                with pytest.raises(ExactDivisionError):
                    p / root
                continue
            exact += 1
            assert dense._linear_quotient(p.coeffs, c) == expected
            assert p / root == Dense("x", p.low - root.low, expected) == q
    assert exact > 200 and raised > 200


def test_gcd_against_fraction_euclid():
    rng = random.Random(23)
    for _ in range(300):
        # x^a factors on both sides, and a shared factor g
        f, g, h = (random_poly(rng, False) for _ in range(3))
        a = f * g * X ** rng.randint(0, 3)
        b = h * g * X ** rng.randint(0, 3)
        da, db = Dense.from_poly(a, "x"), Dense.from_poly(b, "x")
        got = da.gcd(db)
        assert got == db.gcd(da)
        if a.is_zero() and b.is_zero():
            assert got == 0
            continue
        assert got.coeffs[-1] > 0 and math.gcd(*got.coeffs) == 1
        # the quotients the gcd keeps from its own check
        g, qa, qb = da._gcd(db)
        assert g == got
        if not (a.is_zero() or b.is_zero()):
            assert (qa * g, qb * g) == (da, db)
        # the reference is monic, or primitive when one side is zero
        lead = 1 if a.is_zero() or b.is_zero() else got.coeffs[-1]
        assert got.to_poly() / lead == euclid_gcd(a, b)
        if not a.is_zero():
            assert da / got * got == da


def check_gcd(a: Dense, b: Dense) -> Dense:
    """a.gcd(b), which must be symmetric, primitive with a positive
    leading coefficient, and Euclid's monic gcd over Fraction and
    sympy.gcd made primitive, each up to a constant."""
    sympy = pytest.importorskip("sympy")
    got = a.gcd(b)
    assert got == b.gcd(a)
    assert got.coeffs[-1] > 0 and math.gcd(*got.coeffs) == 1
    assert got.to_poly() / got.coeffs[-1] == \
        euclid_gcd(a.to_poly(), b.to_poly())
    x = sympy.Symbol(got.var)

    def to_sympy(p: Dense):
        return sympy.Poly.from_list(p.coeffs[::-1], x) * \
            sympy.Poly(x ** p.low, x)

    ref = sympy.gcd(to_sympy(a), to_sympy(b)).primitive()[1]
    assert to_sympy(got) == (ref if ref.LC() > 0 else -ref)
    return got


def x_power_products(ks) -> Dense:
    """The product of x^k - 1 over the k in ks."""
    return math.prod((Dense("x", k, (1,)) - 1 for k in ks),
                     start=Dense("x", 0, (1,)))


def shifted_pair(g: Dense, p: Dense, widths) -> tuple:
    """(g p, g (p + D)), D the lcm of the values of p at 2^B for the B in
    widths: at each such 2^B, p(2^B) divides the values of both
    cofactors, so the gcd of the values packed at B holds g p, whose
    digits do not divide g (p + D)."""
    d = math.lcm(*(horner_value(p.coeffs, 1 << bits) << p.low * bits
                   for bits in widths))
    return g * p, g * (p + d)


X1 = Dense("x", 1, (1,))

# pairs whose gcd takes that many widths B = 8, 16, ... of the packed
# values: the first four are products of x^k - 1 over two lists of k,
# found by a seeded search, where the digits at B = 8 do not divide both
# polynomials; the last three are built to fail at every width they name
RETRIED_PAIRS = [
    (x_power_products((6, 9, 10, 10)),
     x_power_products((2, 2, 3, 6, 6, 6)), 2),
    (x_power_products((1, 2, 4, 6, 8, 8, 8)),
     x_power_products((2, 5, 8, 9, 10)), 2),
    (x_power_products((1, 3, 3, 4, 6, 7)),
     x_power_products((1, 5, 9, 10)), 2),
    (x_power_products((1, 2, 4, 6, 6, 7)),
     x_power_products((3, 3, 5, 9)), 2),
    (*shifted_pair(X1 - 1, X1 ** 3 - X1 + 1, (8, 16)), 3),
    (*shifted_pair((X1 + 1) ** 3, X1 ** 2 - 2 * X1 + 2, (8, 16)), 3),
    (*shifted_pair(X1 - 1, X1 ** 3 - X1 + 1, (8, 16, 24)), 4),
]


@pytest.mark.parametrize("a,b,points", RETRIED_PAIRS)
def test_gcd_after_a_failed_candidate(monkeypatch, a, b, points):
    original, widths = dense._pack, []

    def pack(coeffs, bits):
        widths.append(bits)
        return original(coeffs, bits)

    monkeypatch.setattr(dense, "_pack", pack)
    a.gcd(b)
    monkeypatch.undo()
    assert sorted(set(widths)) == list(range(8, 8 * points + 1, 8))
    check_gcd(a, b)


def test_gcd_of_large_coefficients():
    # f has coefficients up to 10^6 and h * g small ones, so the first
    # evaluation point, set by the smaller norm, is sometimes too small
    rng = random.Random(25)
    shared = 0
    for _ in range(200):
        f = Dense("x", 0, [rng.randint(-10 ** 6, 10 ** 6)
                           for _ in range(rng.randint(1, 5))])
        g, h = (Dense("x", 0, [rng.randint(-3, 3)
                               for _ in range(rng.randint(1, 4))])
                for _ in range(2))
        if (f * g).coeffs and (h * g).coeffs:
            shared += len(check_gcd(f * g, h * g).coeffs) > 1
    assert shared > 100


def test_gcd_at_the_denominator_budget():
    # L^4096 + L - 2 vanishes at 1 and at no other root of unity
    a = Dense("L", 1, (-2, 1) + (0,) * 4094 + (1,))
    b = Dense("L", 4096, (1,)) - 1
    assert check_gcd(a, b) == Dense("L", 0, (-1, 1))


def test_gcd_of_cyclotomic_products():
    # motivic denominators, products of t^m - 1, against numerators
    # that are mostly coprime to them, and the same numerators times a
    # factor t^j - 1 that divides the denominator
    rng = random.Random(26)
    coprime = 0
    for _ in range(100):
        ms = [rng.randint(1, 12) for _ in range(rng.randint(1, 3))]
        den = math.prod((Dense("t", m, (1,)) - 1 for m in ms),
                        start=Dense("t", 0, (1,)))
        num = Dense("t", rng.randint(0, 2),
                    [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
        if not num.coeffs:
            continue
        coprime += check_gcd(num, den) == 1
        j = rng.choice([j for j in range(1, max(ms) + 1)
                        if any(m % j == 0 for m in ms)])
        shared = check_gcd(num * (Dense("t", j, (1,)) - 1), den)
        assert den / shared * shared == den
    assert coprime > 50


def test_laurent_fraction_reduces():
    # a negative exponent on either side: the monomial factor moves to
    # the numerator and the gcd still cancels L - 1
    rf = RationalFunction((L - 1) * L ** -2 / 3,
                          (2 * L - 2) * (L + 1) * Fraction(1, 2))
    assert str(rf) == "(1/3*L^-2) / (1 + L)"
    rf = RationalFunction(2 * L - 2, L ** -1 * (L ** 2 - 1) * 3)
    assert str(rf) == "(2/3*L) / (1 + L)"


# ---------------------------------------------------------------------
# jets measures


def reference_cylinder(spec: JetSpec, p: int) -> MultiPoly:
    """cylinder_measure's MultiPoly formula before the dense kernel."""
    n, d = spec.level, spec.dimension
    positive = [i for i in range(d) if spec.exponents[i] > 0]
    total = MultiPoly.const(0)
    for orders in product(range(p + 1), repeat=len(positive)):
        if sum(spec.exponents[i] * o
               for i, o in zip(positive, orders)) != p:
            continue
        cell = L ** ((n + 1) * (d - len(positive)))
        for o in orders:
            cell = cell * ((L - 1) * L ** (n - o))
        total = total + cell
    return total * L ** (-n * d)


def reference_closed(spec: JetSpec):
    """closed_integral's product of per-coordinate fractions, each step
    reduced by the Fraction Euclid."""
    num, den = MultiPoly.const(1), MultiPoly.const(1)
    for a in spec.exponents:
        if a > 0:
            num, den = reference_fraction(num * (L - 1) * L ** (a + 1),
                                          den * (L ** (a + 1) - 1))
        else:
            num, den = reference_fraction(num * L, den)
    return num, den


def test_jets_against_multipoly_formulas():
    rng = random.Random(7)
    for _ in range(40):
        dim = rng.randint(1, 3)
        spec = JetSpec(dim, tuple(rng.randint(0, 3) for _ in range(dim)),
                       rng.randint(0, 8))
        for p in range(spec.level + 1):
            assert cylinder_measure(spec, p) == reference_cylinder(spec, p)
        closed = closed_integral(spec)
        assert (closed.numerator, closed.denominator) == \
            reference_closed(spec)


def random_spec(rng, p_max: int) -> JetSpec:
    """d <= 4 with zero exponents allowed, and a level above p_max."""
    dim = rng.randint(1, 4)
    return JetSpec(dim, tuple(rng.randint(0, 3) for _ in range(dim)),
                   p_max + rng.randint(1, 3))


def reference_partial(spec: JetSpec, p_max: int) -> MultiPoly:
    return sum((reference_cylinder(spec, p) * L ** -p
                for p in range(p_max + 1)), MultiPoly.const(0))


def test_oracle_partial_against_reference_cylinders():
    rng = random.Random(16)
    for _ in range(30):
        p_max = rng.randint(0, 4)
        spec = random_spec(rng, p_max)
        partial, _, _ = oracle_integral(spec, p_max)
        assert partial == reference_partial(spec, p_max), spec


def test_walk_yields_the_tuples_product_and_filter_keeps():
    # tuples of orders add by concatenation: walked in place of the int
    # exponents, they record which orders make up each cell
    rng = random.Random(17)
    for _ in range(60):
        weights = [rng.randint(1, 4) for _ in range(rng.randint(0, 4))]
        budget = rng.randint(0, 9)
        levels = [[(a * o, (o,)) for o in range(budget // a + 1)]
                  for a in weights]
        walked = list(jets._walk(levels, budget, ()))
        kept = [(sum(a * o for a, o in zip(weights, orders)), orders)
                for orders in product(range(budget + 1), repeat=len(weights))
                if sum(a * o for a, o in zip(weights, orders)) <= budget]
        assert walked == kept, (weights, budget)


def reference_partition(spec: JetSpec) -> MultiPoly:
    """partition_check's summed measure before the cell walk: every
    order tuple in 0..n+1, n + 1 standing for the remainder cell."""
    n, d = spec.level, spec.dimension
    total = MultiPoly.const(0)
    for orders in product(range(n + 2), repeat=d):
        cell = MultiPoly.const(1)
        for o in orders:
            cell = cell * ((L - 1) * L ** (n - o) if o <= n else 1)
        total = total + cell
    return total * L ** (-n * d)


def test_partition_against_product_loop():
    for d in (1, 2, 3):
        for level in (0, 1, 3, 5):
            spec = JetSpec(d, (1,) * d, level)
            assert jets._partition_measure(spec).to_poly() == \
                reference_partition(spec) == L ** d
            assert partition_check(spec)


def test_measures_against_the_references():
    # seeded specs with d <= 4, zero exponents and p_max 0 included
    rng = random.Random(25)
    specs = [(i % 4, random_spec(rng, i % 4)) for i in range(32)]
    specs += [(0, JetSpec(4, (0, 0, 0, 0), 1)), (2, JetSpec(3, (0, 2, 0), 3))]
    for p_max, spec in specs:
        assert jets._partial(spec, p_max).to_poly() == \
            reference_partial(spec, p_max), spec
        for p in range(p_max + 1):
            assert cylinder_measure(spec, p) == reference_cylinder(spec, p)
        small = JetSpec(spec.dimension, spec.exponents, p_max % 3)
        assert jets._partition_measure(small).to_poly() == \
            reference_partition(small) == L ** spec.dimension


def test_a_changed_walk_changes_the_partial():
    # negative control: the oracle partial rebuilt from the walked
    # (contact order, exponent) cells matches the reference, and loses the
    # match when one cell is dropped, its contact order is shifted by one,
    # or the order of one of its coordinates is
    rng = random.Random(18)
    for _ in range(10):
        p_max = rng.randint(1, 4)
        spec = random_spec(rng, p_max)
        expected = reference_partial(spec, p_max)
        cells = list(jets._contact_cells(spec, p_max))
        weights = [a for a in spec.exponents if a > 0]

        def partial(cells):
            total = jets._total(
                {len(weights): Counter(e - w for w, e in cells)})
            return total.shift(-spec.level * spec.dimension).to_poly()

        assert partial(cells) == expected
        k = rng.randrange(len(cells))
        assert partial(cells[:k] + cells[k + 1:]) != expected
        w, e = cells[k]
        shifted = cells[:k] + [(w + 1, e)] + cells[k + 1:]
        assert partial(shifted) != expected
        if weights:
            # one coordinate one order deeper: a_i more contact, one
            # free coefficient fewer
            a = rng.choice(weights)
            shifted = cells[:k] + [(w + a, e - 1)] + cells[k + 1:]
            assert partial(shifted) != expected
