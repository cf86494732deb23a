"""Exact-arithmetic foundation: polynomials, series, rational functions."""

import math
import random
from fractions import Fraction

import pytest

from genera import stringy
from genera.dense import Dense
from genera.k0 import LEFSCHETZ, Atom
from genera.rings import (ExactDivisionError, MultiPoly, RationalFunction,
                          TruncSeries)
from references import binom_frac, rewrite_uv, stringy_value

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Z = MultiPoly.var("z")


def random_poly(rng, nvars=3, nterms=4, max_exp=3):
    names = ("x", "y", "z")[:nvars]
    out = MultiPoly.const(0)
    for _ in range(nterms):
        term = MultiPoly.const(Fraction(rng.randint(-9, 9),
                                        rng.randint(1, 9)))
        for name in names:
            term = term * MultiPoly.var(name) ** rng.randint(0, max_exp)
        out = out + term
    return out


def test_ring_laws_randomized():
    rng = random.Random(7)
    for _ in range(50):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_poly_basics():
    p = (X + Y) ** 2
    assert p == X ** 2 + 2 * X * Y + Y ** 2
    assert p.coefficients_in("x")[1] == 2 * Y
    assert (p - p).is_zero()
    assert MultiPoly.const(Fraction(3, 4)).constant_value() == Fraction(3, 4)
    assert p.substitute_map({"y": 1}) == X ** 2 + 2 * X + 1


def test_substitute_map_is_simultaneous():
    # every name is replaced at once, so the values are not substituted into
    assert (X ** 2 * Y).substitute_map({"x": Y, "y": X}) == Y ** 2 * X
    assert (X + Y).substitute_map({"x": X * Y, "y": 2}) == X * Y + 2
    assert (X * Z).substitute_map({"x": Y, "w": X}) == Y * Z


def test_substitute_map_against_term_by_term_sum():
    rng = random.Random(11)
    for _ in range(40):
        p = random_poly(rng, nterms=6)
        mapping = {name: random_poly(rng, nterms=2, max_exp=2)
                   for name in rng.sample(("x", "y", "z", "w"), 2)}
        expected = MultiPoly.const(0)
        for expo, coeff in p.terms.items():
            term = MultiPoly.const(coeff)
            for name, e in zip(p.vars, expo):
                value = mapping.get(name, MultiPoly.var(name))
                for _ in range(e):
                    term = term * value
            expected = expected + term
        assert p.substitute_map(mapping) == expected


def test_power_of_a_monomial():
    mono = MultiPoly.monomial({"x": 2, "y": -1}, Fraction(-2, 3))
    out = MultiPoly.const(1)
    for n in range(6):
        assert mono ** n == out
        assert mono ** (-n) * out == 1
        out = out * mono


def test_power_against_repeated_product():
    rng = random.Random(17)
    for p in (X + 1, random_poly(rng, nterms=3, max_exp=2), MultiPoly.const(0)):
        out = MultiPoly.const(1)
        for n in range(18):
            assert p ** n == out, n
            out = out * p


def test_power_skips_the_unused_products(monkeypatch):
    calls = []
    real = MultiPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    p = (X + Y) ** 16
    # four squarings, no multiplication by 1 and no square past the top bit
    assert len(calls) == 4
    # a base in one variable takes no product: it runs the recurrence
    q = (X + 1) ** 16
    monkeypatch.undo()
    assert len(calls) == 4
    assert p == (X + Y) ** 8 * (X + Y) ** 8
    assert q == (X + 1) ** 8 * (X + 1) ** 8


def test_arithmetic_leaves_operands_unchanged():
    a, b = (X + Y) * (X - Y), X + Y
    before = (dict(a.terms), dict(b.terms))
    assert a + b - b == a and a.div_exact(b) == X - Y
    assert (dict(a.terms), dict(b.terms)) == before


def test_constant_hashes_like_its_scalar():
    assert len({MultiPoly.const(3), 3}) == 1
    assert len({MultiPoly.const(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert hash(MultiPoly.const(0)) == hash(0)


def test_laurent_monomials():
    inv = X ** (-2)
    assert inv * X ** 2 == MultiPoly.const(1)
    assert (X ** (-1) + 1) * X == 1 + X


def test_div_exact():
    p = (X + Y) * (X - Y)
    assert p.div_exact(X + Y) == X - Y
    with pytest.raises(ExactDivisionError):
        (X + 1).div_exact(Y)


def test_laurent_div_exact():
    p = (1 + Y) * (X ** 2 - 3)
    assert p.laurent_div_exact(1 + Y) == X ** 2 - 3
    with pytest.raises(ExactDivisionError):
        (X + Y).laurent_div_exact(1 + Y)


@pytest.mark.parametrize("dividend,divisor,quotient", [
    (X ** -1, X, X ** -2),
    (MultiPoly.const(1), X, X ** -1),
    (X ** -2 + X, X * (X + 1), X ** -3 - X ** -2 + X ** -1),
    # the divisor's monomial factor, positive or negative, moves out
    (X ** 3 + X ** 2 * Y, X ** 2 * Y ** 3 * (X + Y), Y ** -3),
    (X + 1, X ** -2 * (X + 1), X ** 2),
    (Y ** -1 * (X - Y) * (X + Y), X * (X + Y), X ** -1 * Y ** -1 * (X - Y)),
])
def test_laurent_div_exact_quotients(dividend, divisor, quotient):
    assert dividend.laurent_div_exact(divisor) == quotient


def test_laurent_div_exact_divides_back():
    # q * b / b == q for Laurent q and polynomial b; q * b + x^-4 leaves
    # a remainder whenever b is not a unit, a monomial
    rng = random.Random(23)
    for _ in range(60):
        b = random_poly(rng, nvars=2, nterms=3)
        if b.is_zero():
            continue
        shift = MultiPoly.monomial({"x": rng.randint(-3, 0),
                                    "y": rng.randint(-3, 0)})
        q = random_poly(rng, nvars=2, nterms=3) * shift
        assert (q * b).laurent_div_exact(b) == q
        if len(b.terms) > 1:
            with pytest.raises(ExactDivisionError):
                (q * b + X ** -4).laurent_div_exact(b)


def test_series_invert_examples():
    geom = TruncSeries.from_coeffs("z", [1, 1], 4).invert()
    assert list(geom.coeffs) == [1, -1, 1, -1, 1]
    todd = TruncSeries.from_coeffs(
        "z", [1, Fraction(1, 2), Fraction(1, 12)], 2)
    assert list(todd.invert().coeffs) == [1, Fraction(-1, 2), Fraction(1, 6)]
    half = TruncSeries.from_coeffs("z", [2], 3).invert()
    assert half.constant_term() == Fraction(1, 2)


def test_series_invert_involution():
    rng = random.Random(3)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(1, 5))] + [
            Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            for _ in range(6)]
        f = TruncSeries("z", 6, coeffs)
        assert f.invert().invert() == f


def test_series_compose_examples():
    order = 4
    expz = TruncSeries("z", order,
                       [Fraction(1, [1, 1, 2, 6, 24][k])
                        for k in range(order + 1)])
    ident = TruncSeries.from_coeffs("z", [0, 1], order)
    assert expz.compose(ident) == expz
    # z/(1 - e^-z) at 2z
    todd = TruncSeries("z", 2, [Fraction(1), Fraction(1, 2),
                                Fraction(1, 12)])
    double = TruncSeries.from_coeffs("z", [0, 2], 2)
    assert list(todd.compose(double).coeffs) == [1, 1, Fraction(1, 3)]
    # log(1+z) o (e^z - 1) = z
    log1p = TruncSeries("z", order, [Fraction(0)] + [
        Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)])
    em1 = expz - 1
    assert log1p.compose(em1) == ident


def test_series_compose_associative():
    order = 6
    f = TruncSeries.from_coeffs("z", [1, 2, 3, 4], order)
    g = TruncSeries.from_coeffs("z", [0, 1, 1], order)
    h = TruncSeries.from_coeffs("z", [0, 2, 0, 5], order)
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_series_exp_log_roundtrip():
    f = TruncSeries.from_coeffs("z", [0, 1, Fraction(1, 3), 2], 8)
    assert f.exp().log() == f


def test_series_rejects_bad_input():
    f = TruncSeries.from_coeffs("z", [1, 1], 4)
    with pytest.raises(ValueError):
        f.compose(f)  # nonzero constant term
    zero_const = TruncSeries.from_coeffs("z", [0, 1], 4)
    with pytest.raises(Exception):
        zero_const.invert()


def test_rational_function_equality():
    a = RationalFunction(X ** 2 - 1, X - 1)
    b = RationalFunction(X + 1)
    assert a == b
    assert a + 1 == RationalFunction(X + 2)
    assert a * (X - 1) == RationalFunction(X ** 2 - 1)
    assert RationalFunction(1, X) + RationalFunction(X - 1, X) == 1
    with pytest.raises(ZeroDivisionError):
        RationalFunction(X, MultiPoly.const(0))


@pytest.mark.parametrize("num,den,reduced", [
    ((X - 1) * (X + Y), X ** 2 - 1, (X + Y, X + 1)),
    ((X - 1) * Y + 1, 1 - X ** 2, (Y - 1 - X * Y, X ** 2 - 1)),
    (X * Y + X ** 2 * Z, 3 * X ** 3, ((Y + X * Z) * X ** -2 / 3, 1)),
    ((X - 1) * Y * Fraction(1, 2), 2 * X - 2, (Y / 4, 1)),
    (X * Y + 1, 2, ((X * Y + 1) / 2, 1)),
], ids=["common", "coprime", "power", "constant", "scalar"])
def test_rational_function_reduces_over_a_one_variable_denominator(
        num, den, reduced):
    # the common factor is the gcd of the denominator with the numerator's
    # coefficient of each monomial in the other variables
    f = RationalFunction(num, den)
    assert (f.numerator, f.denominator) == reduced
    assert f == RationalFunction(*reduced)


def test_laurent_lowest_terms_compare_by_value():
    # a monomial denominator is a unit and moves to the numerator, so
    # x/y and x*y^-1 over 1 have the same lowest terms
    for f, g in [(RationalFunction(X, Y), RationalFunction(X * Y ** -1)),
                 (RationalFunction(X ** -1, Y), RationalFunction(Y ** -1, X))]:
        assert (f.numerator, f.denominator) == (g.numerator, g.denominator)
        assert f == g and hash(f) == hash(g)


def test_rational_function_hash_agrees_with_equality():
    a, b = RationalFunction(X * Y, X * Y * Z), RationalFunction(1, Z)
    assert a == b
    assert len({a, b}) == 1
    assert len({RationalFunction(0, X * Y), RationalFunction(0)}) == 1


def test_rational_function_hashes_like_its_polynomial():
    assert hash(RationalFunction(3)) == hash(3)
    assert hash(RationalFunction(X * Y, Y)) == hash(X)
    assert len({RationalFunction(X * Y, Y), RationalFunction(X), X}) == 1
    # a monomial denominator is a unit in the Laurent ring
    assert RationalFunction(1, X ** 2) == X ** (-2)
    assert len({RationalFunction(1, X ** 2), X ** (-2)}) == 1
    assert RationalFunction(X * Y + X, X * Y ** 2 + X * Y) == Y ** (-1)
    assert len({RationalFunction(X * Y + X, X * Y ** 2 + X * Y),
                Y ** (-1)}) == 1
    # a value that is no Laurent polynomial hashes its lowest terms
    assert hash(RationalFunction(1, X + 1)) == hash(RationalFunction(Y, X * Y + Y))


def test_rational_function_equality_against_cross_multiplication():
    # fractions in lowest terms compare their parts; cross-multiplication
    # is the reference.  Each pool holds one value written several ways,
    # beside others
    rng = random.Random(15)
    for _ in range(40):
        a, b = (random_poly(rng, nvars=1, nterms=3) for _ in range(2))
        if b.is_zero():
            continue
        pool = []
        for scale in (1, 1 + X, X ** 2 - 3, X ** -1, X ** -2 * (X + 2),
                      Y, Fraction(-2, 3), X * Y):
            pool.append(RationalFunction(a * scale, b * scale))
        pool += [RationalFunction(b, a) if not a.is_zero() else pool[0],
                 RationalFunction(a + 1, b), RationalFunction(a, b * (X + 3)),
                 RationalFunction(a * Y, b), RationalFunction(a * Y ** -1, b)]
        for f in pool:
            for g in pool:
                cross = f.numerator * g.denominator == \
                    g.numerator * f.denominator
                assert (f == g) == cross
                if cross:
                    assert hash(f) == hash(g)
    # a denominator left in two variables has no canonical form
    with pytest.raises(ValueError):
        RationalFunction(1, (X + 1) * (Y + 1))
    with pytest.raises(ValueError):
        RationalFunction(X, X * Y ** -1 * (X + Y))


def test_binom_frac():
    assert binom_frac(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom_frac(5, 2) == 10
    assert binom_frac(Fraction(3), 4) == 0


@pytest.mark.parametrize("a", [2, 1 + Y], ids=["2", "1+y"])
def test_scale_variable_coefficients(a):
    # c_k -> c_k a^k, against powers of a taken one by one
    f = TruncSeries("z", 6, [Fraction(1), Fraction(-1, 2), 3 + Y,
                             Fraction(0), Y ** 2, Fraction(5, 7), 1 - Y])
    scaled = f.scale_variable(a)
    assert scaled.order == f.order
    assert scaled[0] == f[0]
    for k in range(1, 7):
        assert scaled[k] == f[k] * MultiPoly._coerce(a) ** k


def to_sympy(sympy, poly: MultiPoly):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(
            sympy.Symbol(name) ** e for name, e in zip(poly.vars, expo)))
        for expo, c in poly.terms.items()))


def test_lowest_terms_against_sympy():
    # Laurent numerators in x and y over denominators in x times a random
    # monomial.  The denominator h*k*s shares s with the numerator
    # (h*r1 + y^j*k*r2)*s, whose y-parts share h and k with it as well
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(41)
    checked = 0
    for _ in range(40):
        h, k, s, r1, r2 = (random_poly(rng, nvars=1, nterms=2)
                           for _ in range(5))
        num = (h * r1 + Y ** rng.randint(1, 2) * k * r2) * s * \
            X ** rng.randint(-3, 0) * Y ** rng.randint(-2, 0)
        den = h * k * s * X ** rng.randint(-3, 3) * Y ** rng.randint(-3, 3)
        if num.is_zero() or den.is_zero():
            continue
        f = RationalFunction(num, den)
        fn, fd = to_sympy(sympy, f.numerator), to_sympy(sympy, f.denominator)
        assert sympy.cancel(fn / fd - to_sympy(sympy, num)
                            / to_sympy(sympy, den)) == 0
        # the denominator has a nonzero constant term, and no factor
        # divides it and every y-part of the numerator, each cleared of
        # its negative powers of x; one y-part alone may share a factor
        assert f.denominator.vars in ((), ("x",))
        assert fd.subs(x, 0) != 0
        common = sympy.Poly(fd, x, domain="QQ")
        for part in f.numerator.coefficients_in("y").values():
            cleared = sympy.numer(sympy.together(to_sympy(sympy, part)))
            common = sympy.gcd(common, sympy.Poly(cleared, x, domain="QQ"))
        assert common.as_expr() == 1
        checked += 1
    assert checked > 25
    for _ in range(60):
        # integer polynomials in x, one of them primitive, with a shared
        # factor and powers of x on both sides
        f, g, h = (random_poly(rng, nvars=1, nterms=3) for _ in range(3))
        a = (f * g * X ** rng.randint(0, 3)).content_normalized()[1]
        b = (h * g * X ** rng.randint(0, 3)).content_normalized()[1] * \
            rng.randint(1, 6)
        if a.is_zero() or b.is_zero():
            continue
        got = to_sympy(sympy, Dense.from_poly(a, "x").gcd(
            Dense.from_poly(b, "x")).to_poly())
        want = sympy.gcd(to_sympy(sympy, a), to_sympy(sympy, b))
        assert sympy.expand(got - want) == 0 or sympy.expand(got + want) == 0


def random_dense(rng, var, low=(0, 0), size=4, bound=5):
    return Dense(var, rng.randint(*low),
                 [rng.randint(-bound, bound) for _ in range(size)])


def test_parts_constructor_against_lowest_terms():
    # the parts route, sum(monomial * part) / (scale * den) handed to
    # RationalFunction._of_parts, against RationalFunction(num, den) on
    # the same value as MultiPolys: Laurent numerators in L and one or two
    # other atoms, zero numerators, denominators times a power of L, and
    # constant ones
    rng = random.Random(31)
    L = MultiPoly.var("L")
    monomials = [(), (("C", 1),), (("C", -2),), (("T", 2),),
                 (("C", 1), ("T", -1)), (("C", -1), ("T", 3))]
    for trial in range(150):
        parts = {m: random_dense(rng, "L", (-3, 2))
                 for m in rng.sample(monomials, rng.randint(1, 3))}
        den = random_dense(rng, "L", size=rng.choice((2, 3)))
        if trial % 10 == 0:
            parts = {m: Dense("L", 0, ()) for m in parts}  # zero numerator
        elif trial % 10 < 4:  # a constant denominator, and a constant
            den = Dense("L", 0, (rng.choice((-4, 1, 3, 6)),))
            if trial % 10 == 1:
                parts = {(): Dense("L", 0, (rng.choice((-9, 2, 12)),))}
        # a factor that cancels, constant at times
        common = Dense("L", 0, (rng.choice((-2, -1, 1, 2)),
                                0 if trial % 10 in (2, 3, 5) else
                                rng.choice((-2, 1, 3))))
        den = den * common
        parts = {m: p * common for m, p in parts.items()}
        if not den.coeffs or den.low:  # a nonzero constant term
            continue
        scale, k = rng.choice((1, -1, 2, -6)), rng.randint(-2, 2)
        got = RationalFunction._of_parts(
            {m: p.shift(-k) for m, p in parts.items()}, den, scale)
        num = sum((p.to_poly() * MultiPoly.monomial(dict(m))
                   for m, p in parts.items()), MultiPoly.const(0))
        want = RationalFunction(num, den.to_poly() * L ** k * scale)
        assert got == want and want == got
        assert hash(got) == hash(want)
        assert str(got) == str(want)
        assert (got.numerator, got.denominator) == \
            (want.numerator, want.denominator)
        # the views are the value in lowest terms: content 1, a positive
        # leading coefficient and a nonzero constant term below
        assert got.numerator * den.to_poly() * L ** k * scale == \
            num * got.denominator
        lowest = Dense.from_poly(got.denominator, "L")
        assert lowest.low == 0 and lowest.coeffs[-1] > 0
        assert math.gcd(*lowest.coeffs) == 1
        # a value with denominator 1 is its Laurent polynomial, and a
        # constant one its int
        if got.denominator == 1:
            assert got == got.numerator and hash(got) == hash(got.numerator)
            if got.numerator.is_constant():
                value = got.numerator.constant_value()
                assert got == value and hash(got) == hash(value)
                assert str(got) == str(value)


@pytest.mark.parametrize("r", (1, 2, 3))
def test_realised_parts_against_stringy_value(r):
    # stringy._realise builds the E-function's parts from fold parts in t
    # times the atoms' E-polynomials, u*v -> t^r as it goes; the reference
    # is stringy_value(num, den, r) on the same value as MultiPolys
    rng = random.Random(70 + r)
    u, v = MultiPoly.var("u"), MultiPoly.var("v")
    atoms = {"L": LEFSCHETZ, "C": Atom("C", 1, 1 - 2 * u - 2 * v + u * v),
             "P": Atom("P", 1, u + v), "T": Atom("T", 2, u * v * v - 1)}
    monomials = [(), (("C", 1),), (("P", 2),), (("C", 1), ("T", 1)),
                 (("P", 1), ("T", 1))]
    checked = 0
    for trial in range(40):
        num = {m: random_dense(rng, "t", (0, 2))
               for m in rng.sample(monomials, rng.randint(0, 3))}
        den = math.prod((Dense("t", 0, (-1, *[0] * (n - 1), 1))
                         for n in rng.sample(range(1, 6), rng.randint(0, 2))),
                        start=Dense("t", 0, (1,)))
        got = stringy._realise(atoms, num, den, r)
        image = sum((p.to_poly() * math.prod(
            (atoms[n].e_poly ** e for n, e in m), start=MultiPoly.const(1))
            for m, p in num.items()), MultiPoly.const(0))
        want = stringy_value(image, den.to_poly(), r)
        assert got == want and hash(got) == hash(want)
        assert str(got) == str(want)
        assert (got.num, got.den) == (want.num, want.den)
        assert got.num * den.to_poly() == \
            rewrite_uv(image, r) * got.den
        checked += not got.den.is_constant()
    assert checked > 10


def canonical(c) -> bool:
    """An int, or a Fraction that is not one: never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def test_coefficients_are_canonical():
    # every result coefficient is canonical, and int-built and
    # Fraction-built inputs give equal values with equal hashes
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = st.one_of(st.integers(-6, 6), st.builds(
        Fraction, st.integers(-6, 6), st.integers(1, 4)))
    terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                            scalars, max_size=4)
    nonzero = scalars.filter(bool)

    def results(a: dict, b: dict, q, c, as_scalar) -> list:
        pa, pb = (MultiPoly(("x", "y"),
                            {e: as_scalar(v) for e, v in t.items()})
                  for t in (a, b))
        mono = MultiPoly.monomial({"x": 1, "y": 2}, as_scalar(q))
        out = [pa + pb, pa - pb, pa * pb, pa ** 3, pa / q, pa / as_scalar(c),
               mono.monomial_inverse(), mono ** -2,
               pa.substitute_map({"x": pb, "y": as_scalar(q)})]
        out += pa.content_normalized()
        if not pb.is_zero():
            d = pb * X + 1
            out += [(pa * pb).div_exact(pb),
                    (pa * d * X ** -2).laurent_div_exact(d)]
        den = pb.substitute_map({"y": 2})
        if not den.is_zero():
            f = RationalFunction(pa, den)
            out += [f.numerator, f.denominator]
        return out

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(terms, terms, nonzero, nonzero)
    def check(a, b, q, c):
        by_int = results(a, b, q, c, lambda v: v)
        by_fraction = results(a, b, q, c, Fraction)
        for got in by_int + by_fraction:
            values = got.terms.values() if isinstance(got, MultiPoly) \
                else [got]
            assert all(canonical(v) for v in values), got
        assert by_int == by_fraction
        assert [hash(v) for v in by_int] == [hash(v) for v in by_fraction]

    check()


def test_float_coefficients_are_rejected():
    for build in (lambda: MultiPoly.const(0.5),
                  lambda: MultiPoly(("x",), {(1,): 1.0}),
                  lambda: X * 1.5):
        with pytest.raises(TypeError):
            build()


def test_exact_division_against_sympy():
    # MultiPoly.div_exact over Q and Dense / over Z raise ExactDivisionError
    # exactly when sympy.div leaves a remainder, and else agree with it
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    rng = random.Random(53)
    outcomes = []
    for _ in range(60):
        a, b = random_poly(rng, nvars=2), random_poly(rng, nvars=2, nterms=2)
        if b.is_zero():
            continue
        if rng.random() < 0.5:
            a = a * b
        q, r = sympy.div(to_sympy(sympy, a), to_sympy(sympy, b), x, y)
        try:
            got = a.div_exact(b)
        except ExactDivisionError:
            got = None
        assert (got is None) == (r != 0)
        if got is not None:
            assert sympy.expand(to_sympy(sympy, got) - q) == 0
        outcomes.append(("MultiPoly", got is None))
    for _ in range(60):
        a, b = (Dense("x", rng.randint(-2, 2),
                      [rng.randint(-4, 4) for _ in range(rng.randint(0, n))])
                for n in (5, 3))
        if b == 0:
            continue
        if rng.random() < 0.5:
            a = a * b
        # Dense keeps x^low apart, so divide the coefficient tuples in Z[x]
        num, den = (to_sympy(sympy, p.shift(-p.low).to_poly()) for p in (a, b))
        q, r = sympy.div(num, den, x, domain="ZZ", auto=False)
        try:
            got = a / b
        except ExactDivisionError:
            got = None
        assert (got is None) == (r != 0)
        if got is not None:
            assert sympy.expand(to_sympy(sympy, got.to_poly())
                                - q * x ** (a.low - b.low)) == 0
        outcomes.append(("Dense", got is None))
    assert len(set(outcomes)) == 4, outcomes
