"""Chern roots vs classes: Newton identities, multiplicative classes,
lambda/S operations, and the elliptic q-series."""

import re
from fractions import Fraction

import pytest

from genera.bundles import (FormalBundle, _line_factor, _line_monomials,
                            chern_character, elliptic_class_qseries,
                            lambda_op, lambda_y_dual_lines, line_ch,
                            multiplicative_class, power_sums_from_chern,
                            s_op)
from genera.catalog import SERIES_NAMES, builtin_series
from genera.graded import ChernRing, GradedRing
from genera.k0 import ValidationError
from genera.projspace import ProjSpaceRing
from genera.rings import MultiPoly, TruncSeries

Y = MultiPoly.var("y")


def generic_bundle(rank, cutoff=8):
    ring = ChernRing(rank, cutoff)
    return FormalBundle(ring, rank,
                        chern=[ring.chern_class(i)
                               for i in range(1, rank + 1)])


def split_pair(cutoff=6):
    ring = GradedRing({"a": 1, "b": 1}, cutoff)
    a, b = MultiPoly.var("a"), MultiPoly.var("b")
    return ring, FormalBundle(ring, 2, split_roots=(a, b))


def test_newton_identities():
    e2 = generic_bundle(2)
    c1, c2 = e2.chern
    p = power_sums_from_chern(e2, 2)
    assert p[0] == c1
    assert p[1] == c1 ** 2 - 2 * c2
    e3 = generic_bundle(3)
    c1, c2, c3 = e3.chern
    p3 = power_sums_from_chern(e3, 3)[2]
    assert p3 == c1 ** 3 - 3 * c1 * c2 + 3 * c3
    line = generic_bundle(1)
    assert power_sums_from_chern(line, 4)[3] == line.chern[0] ** 4


def test_total_chern_class():
    for rank in (1, 2, 3, 4):
        e = generic_bundle(rank)
        total = multiplicative_class(
            builtin_series("chern", 8), e)
        expected = MultiPoly.const(1)
        for c in e.chern:
            expected = expected + c
        assert total == expected


def test_todd_of_line_bundle():
    ring = GradedRing({"h": 1}, 2, {"h": 2})
    line = FormalBundle(ring, 1, chern=[MultiPoly.var("h")])
    td = multiplicative_class(builtin_series("todd", 4), line)
    h = MultiPoly.var("h")
    assert td == 1 + h * Fraction(1, 2) + h ** 2 * Fraction(1, 12)


def test_whitney_multiplicativity():
    ring, e = split_pair(8)
    c, d = MultiPoly.var("a") * 2, MultiPoly.var("b") - MultiPoly.var("a")
    f = FormalBundle(ring, 2, split_roots=(c, d))
    s = e.direct_sum(f)
    for name in SERIES_NAMES:
        series = builtin_series(name, 8)
        lhs = multiplicative_class(series, s)
        rhs = ring.mul(multiplicative_class(series, e),
                       multiplicative_class(series, f))
        assert lhs == rhs


def test_split_path_matches_newton_path():
    ring, e = split_pair(6)
    chern_only = FormalBundle(ring, 2, chern=e.chern)
    for name in SERIES_NAMES:
        series = builtin_series(name, 6)
        assert multiplicative_class(series, e) == \
            multiplicative_class(series, chern_only)


def test_chern_character():
    e = generic_bundle(2, cutoff=2)
    c1, c2 = e.chern
    assert chern_character(e) == \
        2 + c1 + (c1 ** 2 - 2 * c2) * Fraction(1, 2)
    ring = GradedRing({"h": 1}, 2, {"h": 2})
    d = 3
    line = FormalBundle(ring, 1, chern=[MultiPoly.var("h") * d])
    h = MultiPoly.var("h")
    assert chern_character(line) == 1 + d * h + h ** 2 * Fraction(d * d, 2)


def test_chern_character_additive():
    ring, e = split_pair(6)
    f = FormalBundle(ring, 1, split_roots=(MultiPoly.var("a") * 3,))
    assert chern_character(e.direct_sum(f)) == \
        ring.reduce(chern_character(e) + chern_character(f))


def test_lambda_s_inverse():
    for rank in (0, 1, 2, 3, 4):
        e = generic_bundle(rank, cutoff=10)
        lam = lambda_op(e, 10)
        s = s_op(e, 10)
        product = (lam * s.scale_variable(Fraction(-1))).map_coeffs(
            e.ring.reduce)
        assert product == TruncSeries.one("t", 10)


def test_lambda_is_chern_polynomial():
    e = generic_bundle(2)
    lam = lambda_op(e, 4)
    assert lam[0] == MultiPoly.const(1)
    assert lam[1] == e.chern[0]
    assert lam[2] == e.chern[1]
    assert lam[3] == MultiPoly.const(0)


def test_elliptic_q0_is_lambda_y_dual():
    ring, e = split_pair(4)
    ell = elliptic_class_qseries(e, 2)
    assert ell.constant_term() == lambda_y_dual_lines(e)
    line = FormalBundle(ring, 1, split_roots=(MultiPoly.var("a"),))
    assert elliptic_class_qseries(line, 3).constant_term() == \
        lambda_y_dual_lines(line)


def test_elliptic_rank_zero():
    ring = GradedRing({}, 2)
    trivial = FormalBundle(ring, 0, chern=[])
    ell = elliptic_class_qseries(trivial, 2)
    assert ell.constant_term() == 1
    assert ell[1] == 0


def cohomology_elliptic(bundle, q_order, swap=False):
    """The elliptic q-series formed in cohomology from the start: the line
    of class a is exp(a), S_{q^n}(L) = 1/(1 - q^n L), and every product is
    reduced.  ``swap`` exchanges y and 1/y in the q^0 factor of the first
    root (a negative control)."""
    ring = bundle.ring

    def series(coeffs):
        return TruncSeries.from_coeffs("q", coeffs, q_order)

    def mul(a, b):
        return (a * b).map_coeffs(ring.reduce)

    out = series([1])
    for i, alpha in enumerate(bundle.split_roots):
        minus = ring.exp_nilpotent(ring.reduce(-alpha))
        plus = ring.exp_nilpotent(alpha)
        y0 = Y ** -1 if swap and i == 0 else Y
        out = mul(out, series([1 + y0 * minus]))
        for n in range(1, q_order + 1):
            for line, coeff in ((minus, Y), (plus, Y ** -1)):
                lam = series([1] + [0] * (n - 1) + [coeff * line])
                s = series([1] + [0] * (n - 1) + [-line]).invert()
                out = mul(mul(out, lam), s)
    return out


def repeated_root_bundle(n=2, rank=3):
    ring = ProjSpaceRing([n])
    return FormalBundle(ring, rank, split_roots=(MultiPoly.var("h"),) * rank)


def sum_root_bundle():
    """(h1, h2, h1 + h2) on P^1 x P^2."""
    ring = ProjSpaceRing([1, 2])
    h1, h2 = MultiPoly.var("h1"), MultiPoly.var("h2")
    return FormalBundle(ring, 3, split_roots=(h1, h2, h1 + h2))


line_bundles = pytest.mark.parametrize(
    "make", [lambda: split_pair(4)[1], repeated_root_bundle,
             lambda: repeated_root_bundle(3, 4), sum_root_bundle],
    ids=["a,b", "h,h,h", "h,h,h,h", "h1,h2,h1+h2"])


@line_bundles
def test_elliptic_ch_is_a_ring_map(make):
    bundle = make()
    ell = elliptic_class_qseries(bundle, 2)
    ref = cohomology_elliptic(bundle, 2)
    control = cohomology_elliptic(bundle, 2, swap=True)
    for k in range(3):
        value = line_ch(ell[k], bundle)
        assert value == ref[k], k
        assert value != control[k], k


def test_line_model_is_reduced():
    """One line variable per ring variable: repeated roots share a line
    monomial, and a sum of roots is the product of their lines."""
    ell = elliptic_class_qseries(repeated_root_bundle(3, 4), 3)
    assert [len(ell[k].terms) for k in range(4)] == [5, 17, 33, 53]
    x1, x2 = MultiPoly.var("x_h1"), MultiPoly.var("x_h2")
    expected = (1 + Y * x1 ** -1) * (1 + Y * x2 ** -1) * \
        (1 + Y * (x1 * x2) ** -1)
    assert elliptic_class_qseries(sum_root_bundle(), 1)[0] == expected


@line_bundles
def test_equal_lines_share_one_factor(make):
    """The series with one factor per distinct line equals the product of
    one factor per root."""
    bundle = make()
    for q_order in range(4):
        per_root = TruncSeries("q", q_order, [MultiPoly.const(1)] +
                               [MultiPoly.const(0)] * q_order)
        for x in _line_monomials(bundle):
            per_root = per_root * _line_factor(x, q_order)
        assert elliptic_class_qseries(bundle, q_order) == per_root, q_order


A, B, C2 = MultiPoly.var("a"), MultiPoly.var("b"), MultiPoly.var("c2")


@pytest.mark.parametrize("root", [A * Fraction(1, 2), A * B, A + 1, C2,
                                  A ** 2, A ** -1, MultiPoly.var("z")],
                         ids=["a/2", "a*b", "a+1", "c2", "a^2", "1/a", "z"])
def test_line_model_rejects_non_linear_roots(root):
    ring = GradedRing({"a": 1, "b": 1, "c2": 2}, 4)
    bundle = FormalBundle(ring, 2, split_roots=(MultiPoly.var("a"), root))
    for build in (lambda: elliptic_class_qseries(bundle, 1),
                  lambda: lambda_y_dual_lines(bundle)):
        with pytest.raises(ValidationError, match=re.escape(str(root))):
            build()


def test_split_root_validation():
    ring = GradedRing({"a": 1, "b": 1}, 4)
    a, b = MultiPoly.var("a"), MultiPoly.var("b")
    with pytest.raises(ValueError):
        FormalBundle(ring, 2, chern=[a + b, a * b + 1], split_roots=(a, b))


def test_dual_convention():
    e = generic_bundle(3)
    d = e.dual()
    assert d.chern[0] == -e.chern[0]
    assert d.chern[1] == e.chern[1]
    assert d.chern[2] == -e.chern[2]
