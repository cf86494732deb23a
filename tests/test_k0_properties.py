"""Property tests: the realisations of K0 are ring morphisms, and equal
classes hash alike, over classes in several atoms, two of them named
like the variables u and v of the E-polynomial."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from genera.expr import parse_expr  # noqa: E402
from genera.k0 import (Atom, K0Class, LEFSCHETZ, chi_y_of_class,  # noqa: E402
                       e_polynomial, euler_of_class, poly_to_class)
from genera.rings import MultiPoly  # noqa: E402

U = MultiPoly.var("u")
V = MultiPoly.var("v")

ATOMS = {
    "C": Atom("C", 1, 1 - 2 * U - 2 * V + U * V),   # a genus-2 curve
    "L": LEFSCHETZ,
    "u": Atom("u", 1, U * V + V),
    "v": Atom("v", 1, U * V - 1),
}

monomials = st.lists(st.tuples(st.sampled_from(sorted(ATOMS)),
                               st.integers(0, 2)), max_size=3)


@st.composite
def classes(draw):
    out = K0Class.zero()
    for _ in range(draw(st.integers(0, 3))):
        term = K0Class.point(draw(st.integers(-4, 4)))
        for name, power in draw(monomials):
            term = term * K0Class.atom(ATOMS[name], power)
        out = out + term
    return out


REALISATIONS = (e_polynomial, chi_y_of_class, euler_of_class)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(classes(), classes())
def test_realisations_are_ring_morphisms(a, b):
    for realise in REALISATIONS:
        assert realise(a + b) == realise(a) + realise(b)
        assert realise(a - b) == realise(a) - realise(b)
        assert realise(a * b) == realise(a) * realise(b)
        assert realise(K0Class.point()) == 1


def test_e_polynomial_of_atoms_named_u_and_v():
    cls = K0Class.atom(ATOMS["u"]) * K0Class.atom(ATOMS["v"])
    assert e_polynomial(cls) == (U * V + V) * (U * V - 1)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(classes(), classes())
def test_equal_classes_hash_alike(a, b):
    rebuilt = (a + b) - b
    assert rebuilt == a and hash(rebuilt) == hash(a)
    parsed = poly_to_class(parse_expr(str(a), variables=tuple(ATOMS)), ATOMS)
    assert parsed == a and hash(parsed) == hash(a)
    assert len({a, rebuilt, parsed}) == 1


def test_constant_class_hashes_like_its_integer():
    for n in (-2, 0, 3):
        assert K0Class.point(n) == n and hash(K0Class.point(n)) == hash(n)
    assert len({K0Class.point(3), 3}) == 1


def test_class_of_an_atom_is_not_equal_to_the_atom():
    # an Atom hashes by its own fields, so a class that compared equal to
    # it would break the hash contract; arithmetic still coerces atoms
    for atom in ATOMS.values():
        cls = K0Class.atom(atom)
        assert cls != atom and atom != cls
        assert len({cls, atom}) == 2
        assert cls + atom == 2 * cls and cls * atom == K0Class.atom(atom, 2)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(classes())
def test_euler_is_the_e_polynomial_at_one(a):
    # euler_of_class substitutes each atom's chi; this path reads the
    # whole E-polynomial
    at_one = e_polynomial(a).substitute_map({"u": 1, "v": 1})
    assert euler_of_class(a) == at_one
