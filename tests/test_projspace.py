"""Projective-space cohomology models and the HRR checks."""

from fractions import Fraction

from genera import rings
from genera.catalog import SERIES_NAMES, builtin_series, genus_on_projective
from genera.graded import GradedRing
from genera.projspace import (ProjSpaceRing, count_monomials, hrr_check,
                              ty_class_degree)
from genera.rings import MultiPoly, TruncSeries
from references import count_monomials as enumerated_monomials
from references import (exp_nilpotent, ghrr_normalization_check,
                        twisted_chi_y)

Y = MultiPoly.var("y")


def test_integrate_basics():
    ring = ProjSpaceRing([3])
    h = MultiPoly.var("h")
    assert ring.integrate(h ** 3) == MultiPoly.const(1)
    assert ring.integrate(MultiPoly.const(1)) == MultiPoly.const(0)
    assert ring.integrate((1 + h) ** 4) == MultiPoly.const(4)


def test_tangent_class_examples():
    ring = ProjSpaceRing([2])
    h = MultiPoly.var("h")
    cls = ring.tangent_class(builtin_series("chern", 2))
    assert cls == 1 + 3 * h + 3 * h ** 2
    ring1 = ProjSpaceRing([1])
    assert ring1.tangent_class(builtin_series("todd", 2)) == 1 + h
    assert ProjSpaceRing([0]).tangent_class(
        builtin_series("lgenus", 2)) == MultiPoly.const(1)


def test_monomial_counting_oracle():
    assert count_monomials(3, 2) == 6
    assert count_monomials(1, 7) == 1
    assert count_monomials(4, 0) == 1
    assert count_monomials(0, 0) == 1
    assert count_monomials(0, 3) == 0
    # O(30) on P^11: C(41, 30) monomials, past any enumeration
    assert count_monomials(12, 30) == 3159461968


def test_monomial_count_against_enumeration():
    for n_vars in range(14):
        for d in range(10):
            assert count_monomials(n_vars, d) == \
                enumerated_monomials(n_vars, d), (n_vars, d)


def test_hrr_grid():
    for n in range(6):
        for d in range(6):
            lhs, rhs, equal = hrr_check(n, d)
            assert equal, (n, d, lhs, rhs)


def test_ghrr_normalization():
    assert ghrr_normalization_check(12)
    assert ghrr_normalization_check(2)
    # negative control: the hirzebruch series without its -z*y term

    def without_linear_term(name, order):
        f = builtin_series(name, order)
        return TruncSeries(f.var, order, (f.coeffs[0], f.coeffs[1] + Y)
                           + f.coeffs[2:])

    assert not ghrr_normalization_check(12, without_linear_term)


def test_ty_degree_is_chi_y():
    y = MultiPoly.var("y")
    for n in range(5):
        expected = MultiPoly.const(0)
        for i in range(n + 1):
            expected = expected + (-y) ** i
        assert ty_class_degree(n) == expected


def test_two_pipelines_agree():
    for name in SERIES_NAMES:
        f = builtin_series(name, 8)
        for n in range(7):
            ring = ProjSpaceRing([n])
            value = ring.integrate(ring.tangent_class(f))
            direct = MultiPoly._coerce(genus_on_projective(f, n))
            assert value == direct, (name, n)


def test_product_multiplicativity():
    for name in SERIES_NAMES:
        f = builtin_series(name, 8)
        for m in range(4):
            for n in range(4):
                if m + n > 6:
                    continue
                ring = ProjSpaceRing([m, n])
                value = ring.integrate(ring.tangent_class(f))
                direct = MultiPoly._coerce(genus_on_projective(f, m)) * \
                    MultiPoly._coerce(genus_on_projective(f, n))
                assert value == direct, (name, m, n)


def test_twisted_chi_y_cross_check():
    # independent integral pipeline for the k-twisted genus on the line
    n = 1
    ring = ProjSpaceRing([n])
    full = GradedRing(dict(ring.weights), ring.cutoff, dict(ring.bounds))
    h = MultiPoly.var("h")
    y = MultiPoly.var("y")
    k = MultiPoly.var("k")
    factor = builtin_series("todd", n).evaluate(h)
    integrand = exp_nilpotent(full, -k * (n + 1) * h)
    for _ in range(n + 1):
        integrand = full.reduce(
            integrand * (1 + y * exp_nilpotent(full, -h)) * factor)
    value = ring.integrate(integrand).laurent_div_exact(1 + y)
    assert value == twisted_chi_y(n, 8)


def test_ring_path_runs_without_the_power_recurrence(monkeypatch):
    # the ring path powers by truncated binary powering in GradedRing, so
    # it stays a path apart from the Miller recurrence of genus_on_projective
    lgenus = builtin_series("lgenus", 5)

    def refuse(*args):
        raise AssertionError("the ring path ran the power recurrence")

    monkeypatch.setattr(rings, "_power_coeffs", refuse)
    assert ty_class_degree(6) == sum(
        ((-MultiPoly.var("y")) ** i for i in range(7)), MultiPoly.const(0))
    assert hrr_check(5, 3) == (56, 56, True)
    ring = ProjSpaceRing([2, 3])
    assert ring.integrate(ring.tangent_class(lgenus)) == 0
    monkeypatch.undo()
    hirzebruch = builtin_series("hirzebruch", 12)
    for n in range(13):
        assert ty_class_degree(n) == genus_on_projective(hirzebruch, n), n


def test_ring_path_runs_without_multipoly_arithmetic(monkeypatch):
    # f(h), ch(O(d)) and the top coefficient are built on term dicts
    # around GradedRing's integer powering, with no MultiPoly +, * or **
    hirzebruch = builtin_series("hirzebruch", 9)
    lgenus = builtin_series("lgenus", 3)
    y = MultiPoly.var("y")
    chi_y = sum(((-y) ** i for i in range(10)), MultiPoly.const(0))

    def refuse(*args):
        raise AssertionError("the ring path ran MultiPoly arithmetic")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(MultiPoly, name, refuse)
    ring = ProjSpaceRing([9])
    assert ring.integrate(ring.tangent_class(hirzebruch)) == chi_y
    ring = ProjSpaceRing([2, 3])
    assert ring.integrate(ring.tangent_class(lgenus)) == 0
    assert hrr_check(11, 8) == (75582, 75582, True)
