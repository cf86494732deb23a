"""The subset-lattice sums of stringy.py against per-subset reference
sums, on seeded random resolution data with k = 0..7 components and
index r in {1, 2}; the folds on Kronecker-packed ints against the
generic fold on dense parts; chi_y read off the fold against
substitution into the E-function; the Euler limit against a
generalized-binomial series expansion and, when sympy is installed,
against sympy's cancellation."""

import random
from fractions import Fraction

import pytest

from genera import dense, stringy
from genera.dense import Dense
from genera.k0 import (Atom, K0Class, LEFSCHETZ, e_polynomial,
                       euler_of_class, poly_to_class)
from genera.rings import MultiPoly, RationalFunction, TruncSeries
from genera.stringy import (ConsistencyError, ResolutionDatum,
                            invariance_check, motivic_integral, stringy_E,
                            stringy_chi_y, stringy_euler)
from references import (binom_frac, horner_value, product_datum, rewrite_uv,
                        stringy_value)

C = Atom("C", 1, MultiPoly.var("u") * MultiPoly.var("v")
         - MultiPoly.var("u") - MultiPoly.var("v") + 1)
ATOMS = {"L": LEFSCHETZ, "C": C}
CASES = [(k, r) for k in range(8) for r in (1, 2)]


def random_datum(k: int, r: int, seed: int, with_curve=False):
    """Strata classes of degree <= 3 in L (and C), discrepancies a > -1
    with r * a integral."""
    rng = random.Random(seed)
    names = ("L", "C") if with_curve else ("L",)

    def random_class():
        poly = MultiPoly.const(rng.randint(-3, 3))
        for _ in range(3):
            mono = MultiPoly.monomial(
                {n: rng.randint(0, 2) for n in names}, rng.randint(-4, 4))
            poly = poly + mono
        return poly_to_class(poly, ATOMS)

    components = tuple(
        (f"E{i}", Fraction(rng.randint(1 - r, 3 * r), r)) for i in range(k))
    strata = tuple(random_class() for _ in range(1 << k))
    return ResolutionDatum("stringy", r, components, strata)


def reference_integral(d: ResolutionDatum) -> RationalFunction:
    """One product of k factors per subset."""
    r, k = d.index_r, len(d.components)
    lvar = MultiPoly.var("L" if r == 1 else "t")
    lpoly = lvar ** r
    dens = [lvar ** int(r * (d.discrepancy(i) + 1)) - 1 for i in range(k)]
    den = MultiPoly.const(1)
    for f in dens:
        den = den * f
    num = MultiPoly.const(0)
    for m, cls in enumerate(d.strata):
        term = cls.poly.substitute_map({"L": lpoly})
        for i in range(k):
            term = term * (lpoly - 1 if m >> i & 1 else dens[i])
        num = num + term
    return RationalFunction(num, den)


def reference_E(d: ResolutionDatum):
    """(numerator, denominator) of the E-function, one product of k
    factors per subset."""
    r, k = d.index_r, len(d.components)
    t = MultiPoly.var("t")
    dens = [t ** int(r * (d.discrepancy(i) + 1)) - 1 for i in range(k)]
    den = MultiPoly.const(1)
    for f in dens:
        den = den * f
    num = MultiPoly.const(0)
    for m, cls in enumerate(d.strata):
        term = rewrite_uv(e_polynomial(cls), r)
        for i in range(k):
            term = term * (t ** r - 1 if m >> i & 1 else dens[i])
        num = num + term
    return rewrite_uv(num, r), den


@pytest.mark.parametrize("k,r", CASES)
def test_integral_matches_per_subset_sum(k, r):
    for with_curve in (False, True):
        d = random_datum(k, r, seed=100 * k + r, with_curve=with_curve)
        assert str(motivic_integral(d)) == str(reference_integral(d))


@pytest.mark.parametrize("k,r", CASES)
def test_E_matches_per_subset_sum(k, r):
    d = random_datum(k, r, seed=200 * k + r, with_curve=True)
    e = stringy_E(d)
    num, den = reference_E(d)
    # the same value, and its parts are the reference's in lowest terms
    assert e.num * den == num * e.den
    lowest = RationalFunction(num, den)
    assert (e.num, e.den) == (lowest.numerator, lowest.denominator)


@pytest.mark.parametrize("k,r", CASES)
def test_euler_matches_per_subset_sum(k, r):
    d = random_datum(k, r, seed=400 * k + r, with_curve=True)
    expected = Fraction(0)
    for m, cls in enumerate(d.strata):
        term = Fraction(euler_of_class(cls))
        for i in range(k):
            if m >> i & 1:
                term /= d.discrepancy(i) + 1
        expected += term
    assert stringy_euler(d) == expected


@pytest.mark.parametrize("k,r", CASES)
def test_superset_sums_are_closed_strata(k, r):
    d = random_datum(k, r, seed=300 * k + r)
    table = stringy._superset_sums(d.strata)
    for m, closed in enumerate(table):
        assert closed == d.closed_stratum(m)
    # the superset sums of the split open strata split the closed strata
    parts = stringy._strata_tables(d)[1]
    closed_parts = stringy._strata_tables(
        ResolutionDatum(d.flavor, r, d.components, tuple(table)))[1]
    assert {key: stringy._superset_sums(t) for key, t in parts.items()} == \
        closed_parts


@pytest.mark.parametrize("k1,k2,r", [
    (k1, k2, r) for k1 in range(7) for k2 in range(7 - k1) for r in (1, 2)])
def test_product_values_multiply(k1, k2, r):
    # factors with different discrepancies: a product that put the strata
    # of d2 in the low bits would pair classes and discrepancies wrongly
    seed = 1000 * r + 10 * k1 + k2
    d1, d2 = random_datum(k1, r, seed), random_datum(k2, r, seed + 500)
    assert motivic_integral(product_datum(d1, d2)) == \
        motivic_integral(d1) * motivic_integral(d2)
    c1 = random_datum(k1, r, seed + 1, with_curve=True)
    c2 = random_datum(k2, r, seed + 501, with_curve=True)
    for f1, f2 in ((d1, d2), (c1, c2)):
        d = product_datum(f1, f2)
        e, e1, e2 = stringy_E(d), stringy_E(f1), stringy_E(f2)
        assert e == stringy_value(e1.num * e2.num, e1.den * e2.den, r)
        # the Euler numbers, each limit-checked on its own fold
        assert stringy_euler(d) == stringy_euler(f1) * stringy_euler(f2)


@pytest.mark.parametrize("bits", (8, 16, 24, 40, 64, 136))
def test_kronecker_round_trip_at_the_bound(bits):
    # every digit in [-2^(bits-1), 2^(bits-1)) unpacks to itself
    edge = (1 << bits - 1) - 1
    rng = random.Random(bits)
    for coeffs in ([edge], [-edge], [-edge - 1], [edge, -edge, 0, edge],
                   [0, 0, -edge, 1], [3, -edge, edge, -edge - 1],
                   [rng.randint(-edge, edge) for _ in range(50)] + [edge]):
        value = horner_value(coeffs, 1 << bits)
        digits = dense._digits(value, bits)
        assert Dense("x", 0, digits) == Dense("x", 0, coeffs)
    assert not any(dense._digits(0, bits))
    # one past the edge carries into the next digit
    assert Dense("x", 0, dense._digits(edge + 1, bits)) != edge + 1


def test_one_byte_digits_match_the_wide_read():
    # bits = 8 reads the bytes back in one pass; the same digits spread to
    # two bytes each by _widen are read by from_bytes, one call a digit
    rng = random.Random(8)
    for _ in range(200):
        coeffs = [rng.randint(-128, 127) for _ in range(rng.randint(1, 40))]
        value = horner_value(coeffs, 1 << 8)
        assert dense._digits(value, 8) == \
            dense._digits(dense._widen(value, 8, 16), 16)


def random_dense_tables(k: int, r: int, seed: int, var: str):
    """(tables, degrees): two tables of 2^k dense parts with coefficients
    up to 10^40 in size, some of them zero and some shared, and the
    degrees r(a_i + 1), some with a_i = 0, whose closed factor is 0."""
    rng = random.Random(seed)
    size = rng.choice((3, 10 ** 12, 10 ** 40))

    def part():
        if rng.random() < 0.2:
            return Dense(var, 0, ())
        return Dense(var, rng.randint(0, 3),
                     [rng.randint(-size, size)
                      for _ in range(rng.randint(1, 4))])

    shared = part()
    tables = {key: [shared if rng.random() < 0.2 else part()
                    for _ in range(1 << k)] for key in ((), (("C", 1),))}
    ns = [r * rng.choice((1, 1, 2, 3, 5)) for _ in range(k)]
    return tables, ns


@pytest.mark.parametrize("k,r", [(k, r) for k in range(7) for r in (1, 2, 3)])
def test_packed_folds_against_dense_folds(k, r):
    var = "t"
    tables, ns = random_dense_tables(k, r, 700 + 10 * k + r, var)
    lm1 = Dense(var, r, (1,)) - 1
    outs = [Dense(var, n, (1,)) - 1 for n in ns]
    # the generic fold on dense parts and dense factors is the reference
    opened = {key: stringy._fold(t, [lm1] * k, outs)
              for key, t in tables.items()}
    closed = {key: stringy._fold(stringy._superset_sums(t),
                                 [lm1 - f for f in outs], outs)
              for key, t in tables.items()}
    assert opened == closed
    assert stringy._fold_tables(tables, ns, r, var) == opened
    # the packed closed fold against the reference closed fold, packed
    bits, packed = stringy._packed(tables, k)

    def pack(p):
        return horner_value(p.coeffs, 1 << bits) << p.low * bits

    stringy._check_closed(packed, {key: pack(p) for key, p in closed.items()},
                          ns, r, bits)
    for one in closed:
        # one more point in one atom monomial's closed fold
        bumped = {**closed, one: closed[one] + 1}
        with pytest.raises(ConsistencyError):
            stringy._check_closed(
                packed, {key: pack(p) for key, p in bumped.items()},
                ns, r, bits)


def test_packing_below_the_bound_unpacks_a_wrong_numerator(monkeypatch):
    # c (t^2 - 1) + c (t - 1) = c t^2 + c t - 2c with c = 2^42: N = 2^43,
    # so B = 48, and 2c = 2^43 does not fit a balanced digit of 40 bits
    c = Dense("t", 0, (1 << 42,))
    tables, expected = {(): [c, c]}, c * Dense("t", 0, (-2, 1, 1))
    assert stringy._packed(tables, 1)[0] == 48
    assert stringy._fold_tables(tables, [2], 1, "t") == {(): expected}
    real = stringy._packed
    # k - 4 lowers 2k + 2, so B, by exactly 8 bits
    monkeypatch.setattr(stringy, "_packed",
                        lambda tables, k: real(tables, k - 4))
    assert stringy._packed(tables, 1)[0] == 40
    assert stringy._fold_tables(tables, [2], 1, "t") != {(): expected}


def superset_sums_skipping(skip):
    """The superset-sum pass with component ``skip`` left out."""
    def sums(table):
        out = list(table)
        for i in range(len(table).bit_length() - 1):
            if i == skip:
                continue
            bit = 1 << i
            for m in range(len(out)):
                if not m & bit:
                    out[m] = out[m] + out[m | bit]
        return out
    return sums


@pytest.mark.parametrize("r", (1, 2))
def test_open_closed_check_is_live(monkeypatch, r):
    for d in (random_datum(4, r, seed=7 + r),
              random_datum(4, r, seed=9 + r, with_curve=True)):
        expected = motivic_integral(d)
        # the patched pass, skipping nothing, is the real one
        monkeypatch.setattr(stringy, "_superset_sums",
                            superset_sums_skipping(None))
        assert motivic_integral(d) == expected
        for skip in range(4):
            monkeypatch.setattr(stringy, "_superset_sums",
                                superset_sums_skipping(skip))
            with pytest.raises(ConsistencyError):
                motivic_integral(d)
            with pytest.raises(ConsistencyError):
                invariance_check(d, d)
        monkeypatch.undo()


def recording_sums(monkeypatch):
    """Patch stringy._superset_sums to record the tables it returns: a
    fold of any other table of dense parts is an open fold."""
    sums = []
    real = stringy._superset_sums

    def record(table):
        sums.append(real(table))
        return sums[-1]

    monkeypatch.setattr(stringy, "_superset_sums", record)
    return sums


def is_open_table(sums, table):
    return type(table[0]) is int and not any(table is t for t in sums)


def checked_verbs(r: int) -> list:
    """Every verb that folds a datum, chi_y only at index 1."""
    verbs = [motivic_integral, stringy_E, stringy_euler,
             lambda d: invariance_check(d, d)]
    return verbs + [stringy_chi_y] if r == 1 else verbs


@pytest.mark.parametrize("r", (1, 2))
def test_fold_perturbation_is_caught(monkeypatch, r):
    real_fold = stringy._fold
    for d in (random_datum(3, r, seed=21 + r),
              random_datum(3, r, seed=23 + r, with_curve=True)):
        sums = recording_sums(monkeypatch)
        for mask in range(8):
            # one more point in one open stratum, in the open fold alone
            def fold(table, ins, outs, mask=mask):
                if is_open_table(sums, table):
                    table = [x + 1 if m == mask else x
                             for m, x in enumerate(table)]
                return real_fold(table, ins, outs)

            monkeypatch.setattr(stringy, "_fold", fold)
            for verb in checked_verbs(r):
                with pytest.raises(ConsistencyError):
                    verb(d)
        for i in range(3):
            # component i folded out with its in and out factors swapped;
            # they are equal when a_i = 0
            if d.discrepancy(i) == 0:
                continue

            def fold(table, ins, outs, i=i):
                if is_open_table(sums, table):
                    ins, outs = list(ins), list(outs)
                    ins[i], outs[i] = outs[i], ins[i]
                return real_fold(table, ins, outs)

            monkeypatch.setattr(stringy, "_fold", fold)
            for verb in checked_verbs(r):
                with pytest.raises(ConsistencyError):
                    verb(d)
        monkeypatch.undo()


@pytest.mark.parametrize("r", (1, 2))
def test_one_E_function_per_datum_in_compare(monkeypatch, r):
    # each class is realised once per datum, by its one open fold, and the
    # data in L alone hold one atom monomial: one open and one closed fold
    # of dense parts per datum, and the one int fold of its Euler formula
    calls, folds, formula_folds, inside = [], [], [], []
    real_tables, real_fold = stringy._strata_tables, stringy._fold
    real_formula = stringy._euler_formula

    def strata_tables(d):
        calls.append(d)
        return real_tables(d)

    def fold(table, ins, outs):
        (formula_folds if inside else folds).append(table)
        return real_fold(table, ins, outs)

    def euler_formula(d):
        inside.append(d)
        try:
            return real_formula(d)
        finally:
            inside.pop()

    sums = recording_sums(monkeypatch)
    monkeypatch.setattr(stringy, "_strata_tables", strata_tables)
    monkeypatch.setattr(stringy, "_fold", fold)
    monkeypatch.setattr(stringy, "_euler_formula", euler_formula)
    d1, d2 = random_datum(3, r, seed=11), random_datum(2, r, seed=12)
    report = invariance_check(d1, d2)
    assert calls == [d1, d2]
    assert len(formula_folds) == 2
    assert sum(is_open_table(sums, t) for t in folds) == 2
    assert sum(any(t is u for u in sums) for t in folds) == 2
    assert (report.chi_y is None) == (r > 1)
    assert report.euler == (stringy_euler(d1), stringy_euler(d2),
                            stringy_euler(d1) == stringy_euler(d2))


@pytest.mark.parametrize("with_curve", (False, True))
def test_standalone_verbs_run_the_closed_check(monkeypatch, with_curve):
    # one closed fold per atom monomial's table, chi_y only at index 1
    for r in (1, 2):
        d = random_datum(3, r, seed=31 + r, with_curve=with_curve)
        tables = stringy._strata_tables(d)[1]
        verbs = (stringy_E, stringy_euler) + ((stringy_chi_y,) if r == 1
                                              else ())
        for verb in verbs:
            sums = recording_sums(monkeypatch)
            verb(d)
            assert len(sums) == len(tables)
            monkeypatch.undo()


def reference_chi_y(d: ResolutionDatum) -> RationalFunction:
    """stringy_E's parts at (u, v) = (-y, 1), so t = uv = -y, by
    substitution into the E-function, reduced again."""
    e, my = stringy_E(d), -MultiPoly.var("y")
    sub = {"u": my, "v": 1, "t": my}
    return RationalFunction(e.num.substitute_map(sub),
                            e.den.substitute_map(sub))


@pytest.mark.parametrize("k", range(7))
def test_chi_y_off_the_fold_against_E_substitution(k):
    d = random_datum(k, 1, seed=500 + k, with_curve=True)
    chi_y = stringy_chi_y(d)
    assert chi_y == reference_chi_y(d)
    # compare and the verb read it off the same checked fold in L
    assert invariance_check(d, d).chi_y == (chi_y, chi_y, True)
    # negative control: one fold part plus a point changes the value
    atoms, num, den = stringy._checked_integral(d)
    bumped = {**num, (): num.get((), Dense(den.var, 0, ())) + 1}
    assert stringy._chi_y(atoms, bumped, den) != chi_y


def test_index_two_report_skips_chi_y():
    d = random_datum(3, 2, seed=5)
    report = invariance_check(d, d)
    assert report.chi_y is None and report.all_equal
    strata = list(d.strata)
    strata[1] = strata[1] + K0Class.point()
    changed = ResolutionDatum(d.flavor, d.index_r, d.components,
                              tuple(strata))
    assert not invariance_check(d, changed).all_equal


def reference_limit(num: MultiPoly, den: MultiPoly, r: int,
                    k: int) -> Fraction:
    """The limit of the unreduced num/den with uv = t^r = 1 + s, both
    parts vanishing to order exactly k, from one generalized-binomial
    series (1+s)^(a+b+c/r) per term u^a v^b t^c, over Fraction."""
    def series(poly):
        out = TruncSeries.zero("s", k)
        for expo, coeff in poly.terms.items():
            power = sum(Fraction(ee, r) if var == "t" else Fraction(ee)
                        for var, ee in zip(poly.vars, expo))
            binomial = TruncSeries(
                "s", k, [binom_frac(power, j) for j in range(k + 1)])
            out = out + binomial * coeff
        return [Fraction(c) for c in out.coeffs]

    num, den = series(num), series(den)
    assert not any(num[:k]) and not any(den[:k]) and den[k] != 0
    return num[k] / den[k]


@pytest.mark.parametrize("k,r", [(k, r) for k in range(6) for r in (1, 2, 3)])
def test_euler_limit_against_binomial_series(k, r):
    d = random_datum(k, r, seed=500 * k + r, with_curve=True)
    assert stringy_euler(d) == reference_limit(*reference_E(d), r, k)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_euler_limit_rejects_wrong_vanishing_orders(k):
    def vanishing(order, *cofactor):
        return Dense("t", 0, (-1, 1)) ** order * Dense("t", 0, cofactor)

    u, v = MultiPoly.var("u"), MultiPoly.var("v")
    atoms = {"L": LEFSCHETZ, "P": Atom("P", 1, u * v + 1)}  # chi(P) = 2
    good = {(): vanishing(k, 2, 1), (("P", 2),): vanishing(k, 1)}
    # (3 + 1 * 2^2) / 2 at t = 1
    assert stringy._euler_limit(atoms, good, vanishing(k, 1, 1), k) == \
        Fraction(7, 2)
    short = {(): vanishing(k, 2, 1), (("P", 2),): vanishing(k - 1, 1)}
    with pytest.raises(ConsistencyError):
        stringy._euler_limit(atoms, short, vanishing(k, 1, 1), k)
    for den_order in (k - 1, k + 1):
        with pytest.raises(ConsistencyError):
            stringy._euler_limit(atoms, good, vanishing(den_order, 1, 1), k)


@pytest.mark.parametrize("k,r", [(k, r) for k in range(5) for r in (1, 2)])
def test_euler_number_against_sympy(k, r):
    sympy = pytest.importorskip("sympy")
    symbols = {n: sympy.Symbol(n) for n in "uvt"}

    def to_sympy(poly: MultiPoly):
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(symbols[var] ** ee
                          for var, ee in zip(poly.vars, expo)))
            for expo, c in poly.terms.items()))

    d = random_datum(k, r, seed=600 * k + r, with_curve=True)
    e = stringy_E(d)
    value = sympy.cancel(to_sympy(e.num) / to_sympy(e.den))
    at_one = value.subs({s: 1 for s in symbols.values()})
    assert Fraction(int(at_one.p), int(at_one.q)) == stringy_euler(d)
