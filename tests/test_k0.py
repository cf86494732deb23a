"""Grothendieck-ring classes, constructible functions, towers."""

import random
from fractions import Fraction

import pytest

from genera.k0 import (Atom, ConstructibleFunction, K0Class, LEFSCHETZ,
                       RelativeClass, StratifiedMap, StratifiedSpace,
                       TowerDatum, ValidationError, blowup_relation_check,
                       chi_y_of_class, e_polynomial, epsilon, euler_of_class,
                       exterior_product, lefschetz, poly_to_class, pro_euler,
                       pro_grothendieck, pullback_rel, pushforward_cf,
                       pushforward_rel)
from genera.rings import MultiPoly
from references import (arc_tower_class, naive_motivic_measure,
                        projective_space_class)

U = MultiPoly.var("u")
V = MultiPoly.var("v")
Y = MultiPoly.var("y")


def random_class(rng):
    out = K0Class.zero()
    for _ in range(rng.randint(1, 4)):
        out = out + rng.randint(-5, 5) * lefschetz(rng.randint(0, 4))
    return out


def test_ring_structure():
    p1 = projective_space_class(1)
    assert e_polynomial(p1 * p1) == (U * V + 1) ** 2
    a = random_class(random.Random(1))
    assert a * K0Class.point() == a
    assert e_polynomial(lefschetz(1) * lefschetz(1)) == (U * V) ** 2


def test_e_polynomial_morphism_randomized():
    rng = random.Random(5)
    for _ in range(200):
        a, b = random_class(rng), random_class(rng)
        assert e_polynomial(a + b) == e_polynomial(a) + e_polynomial(b)
        assert e_polynomial(a * b) == e_polynomial(a) * e_polynomial(b)


def test_chi_y_and_euler():
    assert chi_y_of_class(lefschetz(1)) == -Y
    assert chi_y_of_class(projective_space_class(2)) == 1 - Y + Y ** 2
    assert chi_y_of_class(K0Class.point()) == MultiPoly.const(1)
    for n in range(5):
        assert euler_of_class(projective_space_class(n)) == n + 1
    assert euler_of_class(lefschetz(1) - 1) == 0


def test_atom_invariants():
    with pytest.raises(ValidationError):
        Atom("bad", 0, U * V)  # degree exceeds 2*dim
    # an integer dimension and an integer polynomial in u and v
    for dim, e in [(1.0, U), (True, U), (1, U / 2), (1, U * Y),
                   (1, U ** -1), (1, MultiPoly.const(Fraction(1, 2)))]:
        with pytest.raises(ValidationError):
            Atom("bad", dim, e)
    torus = Atom("T", 1, U * V - 1)
    assert euler_of_class(K0Class.atom(torus)) == 0


def test_one_atom_per_name():
    from genera import stringy
    assert stringy.ValidationError is ValidationError
    fake_l = Atom("L", 1, U)
    assert fake_l != LEFSCHETZ
    assert Atom("L", 1, U * V) == LEFSCHETZ
    assert hash(Atom("L", 1, U * V)) == hash(LEFSCHETZ)
    with pytest.raises(ValidationError):
        K0Class.atom(fake_l) + lefschetz(1)
    with pytest.raises(ValidationError):
        K0Class.atom(fake_l) * lefschetz(2)
    assert K0Class.atom(fake_l) != lefschetz(1)


def test_poly_to_class_roundtrip():
    from genera.expr import parse_expr
    poly = parse_expr("L^2 - 2*L + 1", variables=("L",))
    cls = poly_to_class(poly, {"L": LEFSCHETZ})
    assert cls == (lefschetz(1) - 1) * (lefschetz(1) - 1)
    with pytest.raises(ValidationError):
        poly_to_class(parse_expr("1/2"), {"L": LEFSCHETZ})
    with pytest.raises(ValidationError):
        poly_to_class(parse_expr("L^-1", variables=("L",)), {"L": LEFSCHETZ})
    with pytest.raises(ValidationError):
        poly_to_class(parse_expr("C + 1", variables=("C",)), {"L": LEFSCHETZ})


def several_atoms():
    return {"C": Atom("C", 1, 1 - 2 * U - 2 * V + U * V), "L": LEFSCHETZ,
            "T": Atom("T", 1, U * V - 1)}


def class_of(text, atoms):
    from genera.expr import parse_expr
    return poly_to_class(parse_expr(text, variables=tuple(atoms)), atoms)


def test_class_text_with_several_atoms():
    # terms by total degree, then by the text of the monomial
    cls = class_of("T^2 - 3 + L + C + C^2 + 2*C*L - C*T + L^2*T",
                   several_atoms())
    assert str(cls) == "-3 + C + L + 2*C*L - C*T + C^2 + T^2 + L^2*T"
    assert str(K0Class.zero()) == "0"
    assert str(-lefschetz(2) + 1) == "1 - L^2"


def test_blowup_relation():
    x = lefschetz(2)
    y = K0Class.point()
    bl = lefschetz(2) + lefschetz(1)
    exc = projective_space_class(1)
    assert blowup_relation_check(x, y, bl, exc)
    assert blowup_relation_check(K0Class.zero(), K0Class.zero(),
                                 K0Class.zero(), K0Class.zero())
    assert not blowup_relation_check(x, y, bl + 1, exc)


# ---------------------------------------------------------------------
# stratified bases


def proj_line():
    return StratifiedSpace("P1", (("pt", K0Class.point()),
                                  ("cell", lefschetz(1))))


def point_space():
    return StratifiedSpace("pt", (("pt", K0Class.point()),))


def constant_map(space):
    target = point_space()
    return StratifiedMap(space, target, tuple(
        (name, "pt", space.stratum_class(name))
        for name in space.stratum_names()))


def test_stratified_map_validation():
    with pytest.raises(ValidationError):
        StratifiedMap(proj_line(), point_space(),
                      (("pt", "pt", K0Class.point()),
                       ("cell", "pt", K0Class.point())))


def test_pushforward_cf_examples():
    x = proj_line()
    f = constant_map(x)
    one = ConstructibleFunction.indicator(x)
    assert pushforward_cf(f, one).value("pt") == 2
    # product projection: (P1 x P1) -> P1 with fiber P1 per stratum
    prod = StratifiedSpace("P1xP1", tuple(
        (f"{a}*{b}", x.stratum_class(a) * x.stratum_class(b))
        for a in x.stratum_names() for b in x.stratum_names()))
    proj = StratifiedMap(prod, x, tuple(
        (f"{a}*{b}", b, x.stratum_class(a))
        for a in x.stratum_names() for b in x.stratum_names()))
    pushed = pushforward_cf(proj, ConstructibleFunction.indicator(prod))
    assert all(pushed.value(n) == 2 for n in x.stratum_names())
    ident = StratifiedMap.identity(x)
    assert pushforward_cf(ident, one).values == \
        tuple(sorted(one.values))


def test_functoriality():
    x = proj_line()
    prod = StratifiedSpace("P1xP1", tuple(
        (f"{a}*{b}", x.stratum_class(a) * x.stratum_class(b))
        for a in x.stratum_names() for b in x.stratum_names()))
    f = StratifiedMap(prod, x, tuple(
        (f"{a}*{b}", b, x.stratum_class(a))
        for a in x.stratum_names() for b in x.stratum_names()))
    g = constant_map(x)
    alpha = ConstructibleFunction(prod, tuple(
        (n, i + 1) for i, n in enumerate(prod.stratum_names())))
    lhs = pushforward_cf(f.compose(g), alpha)
    rhs = pushforward_cf(g, pushforward_cf(f, alpha))
    assert lhs.values == rhs.values


def test_additivity_of_euler():
    x = proj_line()
    assert euler_of_class(x.total_class()) == \
        sum(euler_of_class(x.stratum_class(n)) for n in x.stratum_names())


def test_euler_integral():
    x = proj_line()
    alpha = ConstructibleFunction(x, (("pt", 3), ("cell", -1)))
    # 3*chi(pt) + (-1)*chi(C) = 3 - 1
    assert alpha.euler_integral() == 2


def test_epsilon_naturality():
    x = proj_line()
    f = constant_map(x)
    rel = RelativeClass(x, (("pt", projective_space_class(1)),
                            ("cell", K0Class.point())))
    lhs = epsilon(pushforward_rel(f, rel))
    rhs = pushforward_cf(f, epsilon(rel))
    assert lhs.values == rhs.values
    assert epsilon(RelativeClass.unit(x)).values == \
        ConstructibleFunction.indicator(x).values


def test_pullback_and_exterior():
    x = proj_line()
    f = StratifiedMap.identity(x)
    rel = RelativeClass(x, (("pt", lefschetz(1)), ("cell", K0Class.point())))
    assert pullback_rel(f, rel).fibers == tuple(sorted(rel.fibers))
    unit2 = exterior_product(RelativeClass.unit(x), RelativeClass.unit(x))
    assert all(c == K0Class.point() for _, c in unit2.fibers)
    assert unit2.base.total_class() == x.total_class() * x.total_class()


def test_relative_absolute():
    x = proj_line()
    rel = RelativeClass.unit(x)
    assert rel.absolute() == projective_space_class(1)


# ---------------------------------------------------------------------
# towers


def test_pro_euler():
    tower = TowerDatum(eulers=(2, 2, 2, 2, 2))
    for n in range(1, 6):
        assert pro_euler(tower, n, 2 ** n) == 2
    assert pro_euler(TowerDatum(eulers=(1,)), 1, 7) == 7
    assert pro_euler(TowerDatum(eulers=(3, 3)), 2, 9) == 3
    with pytest.raises(ValidationError):
        TowerDatum(eulers=(2, 0))


def test_pro_grothendieck():
    tower = TowerDatum(gamma=lefschetz(2))
    num, left = pro_grothendieck(tower, 2, lefschetz(5))
    assert num == lefschetz(3) and left == 0
    num, left = pro_grothendieck(tower, 1, lefschetz(5))
    assert num == lefschetz(5) and left == 0


def test_pro_grothendieck_point_and_two_atom_gamma():
    atoms = several_atoms()
    value = class_of("T^2 - 3 + L + C*T", atoms)
    assert pro_grothendieck(TowerDatum(gamma=K0Class.point()), 3, value) \
        == (value, 0)
    tower = TowerDatum(gamma=class_of("C*T", atoms))
    assert pro_grothendieck(tower, 3, class_of("C^2*T^3 + C^3*T^2", atoms)) \
        == (class_of("T + C", atoms), 0)
    assert pro_grothendieck(tower, 4, class_of("C*T^2 + C^3*T^2", atoms)) \
        == (class_of("T + C^2*T", atoms), 2)
    assert pro_grothendieck(tower, 3, class_of("C*T + 1", atoms)) \
        == (class_of("C*T + 1", atoms), 2)


def test_naive_motivic_measure():
    x = projective_space_class(2)
    for level in range(5):
        num, left = naive_motivic_measure(x, 2, level)
        assert num == x and left == 0
    assert arc_tower_class(x, 2, 3) == x * lefschetz(6)
    # dimension zero
    num, left = naive_motivic_measure(K0Class.point(2), 0, 4)
    assert num == K0Class.point(2) and left == 0
