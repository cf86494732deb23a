"""Acceptance suite: one check per shipped guarantee, all exact.

Each test prints a single [PASS] line when its criterion holds; any
failure is an ordinary assertion failure with zero tolerance.
"""

import random
from fractions import Fraction
from itertools import product
from pathlib import Path

from genera.catalog import SERIES_NAMES, builtin_series, genus_on_projective
from genera.graded import GradedRing
from genera.jets import (JetSpec, cylinder_measure, oracle_integral,
                         partition_check)
from genera.k0 import (K0Class, TowerDatum, blowup_relation_check,
                       chi_y_of_class, e_polynomial, euler_of_class,
                       lefschetz, pro_euler)
from genera.projspace import ProjSpaceRing, hrr_check
from genera.rings import MultiPoly, RationalFunction, TruncSeries
from genera.stringy import (invariance_check, load_datum, motivic_integral,
                            stringy_E, stringy_chi_y, stringy_euler)
from references import (ChernRing, ConstructibleFunction, FormalBundle,
                        RelativeClass, StratifiedMap, StratifiedSpace,
                        arc_tower_class, coordinate_datum,
                        elliptic_class_qseries, epsilon,
                        ghrr_normalization_check, hirzebruch_specialize,
                        jacobian_factor_limit, lambda_op,
                        lambda_y_dual_lines, line_ch, naive_motivic_measure,
                        projective_space_class, pushforward_cf,
                        pushforward_rel, s_op, stringy_value_from_expr)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

Y = MultiPoly.var("y")
U = MultiPoly.var("u")
V = MultiPoly.var("v")
L = MultiPoly.var("L")


def chi_y_poly(n):
    out = MultiPoly.const(0)
    for i in range(n + 1):
        out = out + (-Y) ** i
    return out


def test_criterion_01_chi_y_values():
    h = builtin_series("hirzebruch", 8)
    for n in range(9):
        assert genus_on_projective(h, n) == chi_y_poly(n)
    print("[PASS] 1: chi_y genus of P^n is the alternating sum, n <= 8")


def test_criterion_02_classical_genera():
    todd = builtin_series("todd", 8)
    lg = builtin_series("lgenus", 8)
    chern = builtin_series("chern", 8)
    for n in range(9):
        assert genus_on_projective(todd, n) == 1
        assert genus_on_projective(lg, n) == (1 if n % 2 == 0 else 0)
        assert genus_on_projective(chern, n) == n + 1
    # independent oracle: invert 2 sinh(z/2)/z = 1 + z^2/24 + ... and cube
    sinh_ratio = TruncSeries("z", 2, [Fraction(1), 0, Fraction(1, 24)])
    assert (sinh_ratio.invert() ** 3)[2] == Fraction(-1, 8)
    ahat = builtin_series("ahat", 2)
    assert (ahat ** 3)[2] == Fraction(-1, 8)
    assert genus_on_projective(ahat, 2) == Fraction(-1, 8)
    print("[PASS] 2: Todd/signature/Euler values and Ahat(P^2) = -1/8")


def test_criterion_03_specializations():
    for y0, name in ((-1, "chern"), (0, "todd"), (1, "lgenus")):
        assert hirzebruch_specialize(y0, 16) == \
            builtin_series(name, 16)
    print("[PASS] 3: Hirzebruch specializations at y in {-1,0,1}, order 16")


def test_criterion_04_ghrr_normalization():
    assert ghrr_normalization_check(12)
    # negative control: the hirzebruch series without its -z*y term

    def without_linear_term(name, order):
        f = builtin_series(name, order)
        return TruncSeries(f.var, order, (f.coeffs[0],
                                          f.coeffs[1] + MultiPoly.var("y"))
                           + f.coeffs[2:])

    assert not ghrr_normalization_check(12, without_linear_term)
    print("[PASS] 4: normalization identity at order 12, negative control")


def test_criterion_05_hrr_grid():
    for n in range(6):
        for d in range(6):
            lhs, rhs, equal = hrr_check(n, d)
            assert equal and lhs == rhs, (n, d)
    print("[PASS] 5: HRR against monomial counting, 0 <= n,d <= 5")


def test_criterion_06_two_pipelines():
    for name in SERIES_NAMES:
        f = builtin_series(name, 12)
        for n in range(13):
            ring = ProjSpaceRing([n])
            assert ring.integrate(ring.tangent_class(f)) == \
                MultiPoly._coerce(genus_on_projective(f, n)), (name, n)
        for m in range(4):
            for n in range(4):
                if m + n > 6:
                    continue
                ring = ProjSpaceRing([m, n])
                assert ring.integrate(ring.tangent_class(f)) == \
                    MultiPoly._coerce(genus_on_projective(f, m)) * \
                    MultiPoly._coerce(genus_on_projective(f, n))
    print("[PASS] 6: ring integration = coefficient rule, incl. products")


def test_criterion_06_negative_control():
    # [z^n] f^(n+1) moves by (n+1) a^n when the z^n coefficient of f moves
    # by 1, so the series path must then disagree with the ring integral
    for name in SERIES_NAMES:
        f = builtin_series(name, 12)
        for n in range(1, 13):
            cs = list(f.coeffs)
            cs[n] = cs[n] + 1
            changed = TruncSeries("z", 12, cs)
            ring = ProjSpaceRing([n])
            assert ring.integrate(ring.tangent_class(f)) != \
                MultiPoly._coerce(genus_on_projective(changed, n)), (name, n)


def test_criterion_07_k0_realization():
    rng = random.Random(2024)

    def rand_class():
        out = K0Class.zero()
        for _ in range(rng.randint(1, 4)):
            out = out + rng.randint(-5, 5) * lefschetz(rng.randint(0, 4))
        return out

    for _ in range(200):
        a, b = rand_class(), rand_class()
        assert e_polynomial(a + b) == e_polynomial(a) + e_polynomial(b)
        assert e_polynomial(a * b) == e_polynomial(a) * e_polynomial(b)
    assert e_polynomial(lefschetz(1)) == U * V
    for n in range(9):
        assert chi_y_of_class(projective_space_class(n)) == chi_y_poly(n)
    x, y = lefschetz(2), K0Class.point()
    bl, exc = lefschetz(2) + lefschetz(1), projective_space_class(1)
    assert blowup_relation_check(x, y, bl, exc)
    assert not blowup_relation_check(x, y, bl + 1, exc)
    print("[PASS] 7: E-polynomial ring morphism, chi_y, blow-up relation")


def test_criterion_08_constructible_calculus():
    line = StratifiedSpace("P1", (("pt", K0Class.point()),
                                  ("cell", lefschetz(1))))
    point = StratifiedSpace("pt", (("pt", K0Class.point()),))
    prod = StratifiedSpace("P1xP1", tuple(
        (f"{a}.{b}", line.stratum_class(a) * line.stratum_class(b))
        for a in line.stratum_names() for b in line.stratum_names()))
    f = StratifiedMap(prod, line, tuple(
        (f"{a}.{b}", b, line.stratum_class(a))
        for a in line.stratum_names() for b in line.stratum_names()))
    g = StratifiedMap(line, point, tuple(
        (n, "pt", line.stratum_class(n)) for n in line.stratum_names()))
    fixtures = [(f, g), (StratifiedMap.identity(prod), f),
                (f, StratifiedMap.identity(line))]
    for first, second in fixtures:
        alpha = ConstructibleFunction(first.source, tuple(
            (n, i - 1) for i, n in enumerate(first.source.stratum_names())))
        assert pushforward_cf(first.compose(second), alpha).values == \
            pushforward_cf(second, pushforward_cf(first, alpha)).values
    for space in (line, prod):
        assert euler_of_class(space.total_class()) == sum(
            euler_of_class(space.stratum_class(n))
            for n in space.stratum_names())
    for space, mapping in ((prod, f), (line, g)):
        rel = RelativeClass(space, tuple(
            (n, projective_space_class(i))
            for i, n in enumerate(space.stratum_names())))
        assert epsilon(pushforward_rel(mapping, rel)).values == \
            pushforward_cf(mapping, epsilon(rel)).values
    print("[PASS] 8: functoriality, chi additivity, epsilon naturality")


def test_criterion_09_stringy_invariance():
    ident = load_datum(str(FIXTURES / "identity_c2.json"))
    blow = load_datum(str(FIXTURES / "blowup_c2.json"))
    report = invariance_check(ident, blow)
    assert report.all_equal
    assert motivic_integral(blow) == RationalFunction(L ** 2)
    assert stringy_E(blow) == stringy_value_from_expr("(u*v)^2")
    assert stringy_chi_y(blow) == RationalFunction(Y ** 2)
    assert stringy_euler(blow) == 1
    a1 = load_datum(str(FIXTURES / "a1_cone.json"))
    assert stringy_E(a1) == stringy_value_from_expr("(u*v)^2 + u*v")
    assert stringy_euler(a1) == 2
    # both evaluation paths run (and agree) inside stringy_euler
    for datum in (ident, blow, a1):
        stringy_euler(datum)
    print("[PASS] 9: resolution invariance and A1 values, both Euler paths")


def test_criterion_10_jet_oracle():
    for d in (1, 2):
        for exponents in product((0, 1, 2, 3), repeat=d):
            spec = JetSpec(d, exponents, 24)
            partial, closed, verdict = oracle_integral(spec, 24)
            assert verdict, (d, exponents)
            assert closed == motivic_integral(coordinate_datum(spec))
            # stabilization
            assert cylinder_measure(spec, 4) == \
                cylinder_measure(JetSpec(d, exponents, 4), 4)
            assert partition_check(JetSpec(d, exponents, 6))
    print("[PASS] 10: jet oracle = closed stratum formula, total measure L^d")


def test_criterion_11_lambda_elliptic_jacobian():
    for rank in (0, 1, 2, 3, 4):
        ring = ChernRing(rank, 10)
        e = FormalBundle(ring, rank, chern=[ring.chern_class(i)
                                            for i in range(1, rank + 1)])
        lam, s = lambda_op(e, 10), s_op(e, 10)
        assert (lam * s.scale_variable(Fraction(-1))).map_coeffs(
            ring.reduce) == TruncSeries.one("t", 10)
    ring = GradedRing({"a": 1, "b": 1}, 4)
    e = FormalBundle(ring, 2, split_roots=(MultiPoly.var("a"),
                                           MultiPoly.var("b")))
    assert elliptic_class_qseries(e, 2).constant_term() == \
        lambda_y_dual_lines(e)
    # q^0 elliptic genus of P^n = chi_y: pair ch(Lambda_y of the dual
    # hyperplane lines) against the Todd class, divide by the trivial
    # summand's contribution 1 + y
    for n in (1, 2):
        ring = ProjSpaceRing([n])
        h = MultiPoly.var("h")
        lines = FormalBundle(ring, n + 1, split_roots=(h,) * (n + 1))
        q0 = elliptic_class_qseries(lines, 0).constant_term()
        integrand = line_ch(q0, lines)
        todd = builtin_series("todd", max(n, 1)).evaluate(h)
        for _ in range(n + 1):
            integrand = ring.reduce(integrand * todd)
        value = ring.integrate(integrand).laurent_div_exact(1 + Y)
        assert value == chi_y_poly(n), n
    for a in (1, 2, 3):
        series = jacobian_factor_limit(a, 6)  # raises if the forms differ
        assert series[0] == RationalFunction(1)
    print("[PASS] 11: Lambda/S inverse, elliptic q^0 limits, Jacobian forms")


def test_criterion_12_proalgebraic():
    tower = TowerDatum(eulers=(2,) * 8)
    for n in range(1, 9):
        assert pro_euler(tower, n, 2 ** n) == 2
    x = projective_space_class(2)
    for level in range(6):
        num, left = naive_motivic_measure(x, 2, level)
        assert num == x and left == 0
        expected = x * lefschetz(2 * level) if level else x
        assert arc_tower_class(x, 2, level) == expected
    print("[PASS] 12: stable pro-Euler quotient, naive measure returns [X]")
