"""Grothendieck ring of varieties modelled by atoms with E-polynomials,
and proalgebraic towers.

A variety enters only through its class: an atom is a (name, dimension,
E-polynomial) triple and nothing else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .rings import MultiPoly, _monomial_text, _poly_text

U = MultiPoly.var("u")
V = MultiPoly.var("v")


class ValidationError(ValueError):
    """Input data violating a structural invariant."""


def load_json_object(path: str) -> dict:
    """The JSON object in the file ``path``.  An OSError propagates;
    text that is not JSON, JSON nested past the decoder's recursion
    limit, or JSON that is not an object, raises a ValidationError
    naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValidationError(f"invalid JSON in {path}: {exc}") from None
        except RecursionError:
            raise ValidationError(
                f"invalid JSON in {path}: nested too deeply") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path} must hold a JSON object")
    return data


@dataclass(frozen=True)
class Atom:
    """A variety atom: dimension and Hodge-Deligne E-polynomial in u, v."""

    name: str
    dim: int
    e_poly: MultiPoly

    def __post_init__(self):
        if type(self.dim) is not int:
            raise ValidationError(
                f"atom dimension must be an integer, got {self.dim!r}")
        if self.dim < 0:
            raise ValidationError("atom dimension must be nonnegative")
        if set(self.e_poly.vars) - {"u", "v"} or any(
                not isinstance(c, int) or min(e, default=0) < 0
                for e, c in self.e_poly.terms.items()):
            raise ValidationError(
                f"the E-polynomial of atom {self.name!r} must be an integer "
                f"polynomial in u and v, got {self.e_poly}")
        if self.e_poly.total_degree() > 2 * self.dim:
            raise ValidationError(
                f"E-polynomial degree exceeds 2*dim for atom {self.name!r}")


LEFSCHETZ = Atom("L", 1, U * V)


def _check_terms(terms, names, atoms: dict) -> None:
    """K0's boundary check: each (exponents, coefficient) of terms has an
    int coefficient and no negative exponent, and each of names is the
    name of one of atoms; raises ValidationError."""
    for expo, coeff in terms:
        if not isinstance(coeff, int):
            raise ValidationError("K0 classes have integer coefficients")
        if min(expo, default=0) < 0:
            raise ValidationError("negative atom powers are not in K0")
    for name in names:
        if name not in atoms:
            raise ValidationError(f"unknown atom {name!r}")


class K0Class:
    """Integer polynomial in atom names: ``poly`` is a MultiPoly whose
    variables are atom names, and ``atoms`` maps each of them to its Atom.

    The constructor is the boundary check: integer coefficients, no
    negative exponents, and an atom for every variable.  Arithmetic is
    MultiPoly's; two different atoms with one name cannot meet.
    """

    __slots__ = ("poly", "atoms")

    def __init__(self, poly: MultiPoly, atoms: dict):
        _check_terms(poly.terms.items(), poly.vars, atoms)
        self.poly = poly
        self.atoms = {name: atoms[name] for name in poly.vars}

    @classmethod
    def zero(cls) -> "K0Class":
        return cls(MultiPoly.const(0), {})

    @classmethod
    def point(cls, coeff: int = 1) -> "K0Class":
        return cls(MultiPoly.const(coeff), {})

    @classmethod
    def atom(cls, a: Atom, power: int = 1, coeff: int = 1) -> "K0Class":
        return cls(MultiPoly.monomial({a.name: power}, coeff), {a.name: a})

    @staticmethod
    def _coerce(x):
        if isinstance(x, K0Class):
            return x
        if isinstance(x, int):
            return K0Class.point(x)
        if isinstance(x, Atom):
            return K0Class.atom(x)
        return None

    def _merged_atoms(self, other: "K0Class") -> dict:
        atoms = dict(self.atoms)
        for name, a in other.atoms.items():
            have = atoms.setdefault(name, a)
            if have is not a and have != a:
                raise ValidationError(
                    f"two different atoms are named {name!r}")
        return atoms

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return K0Class(self.poly + other.poly, self._merged_atoms(other))

    __radd__ = __add__

    def __neg__(self):
        return K0Class(-self.poly, self.atoms)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return K0Class(self.poly - other.poly, self._merged_atoms(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return K0Class(self.poly * other.poly, self._merged_atoms(other))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in K0")
        return K0Class(self.poly ** n, self.atoms)

    def __eq__(self, other):
        # an int is its point class and hashes like it; an Atom, whose hash
        # is its own, is not coerced
        if isinstance(other, int):
            other = K0Class.point(other)
        elif not isinstance(other, K0Class):
            return NotImplemented
        return self.poly == other.poly and self.atoms == other.atoms

    def __hash__(self):
        return hash(self.poly)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def map_atoms(self, fn) -> MultiPoly:
        """Ring morphism determined by atom -> MultiPoly."""
        return self.poly.substitute_map(
            {name: fn(a) for name, a in self.atoms.items()})

    def divide_monomial(self, other: "K0Class", power: int):
        """Cancel other^power when other is a single atom-monomial dividing
        every term; returns (reduced, remaining_power)."""
        if power == 0 or self.is_zero():
            return self, 0
        if len(other.poly.terms) != 1:
            return self, power
        (mono, coeff), = other.poly.terms.items()
        if coeff != 1:
            return self, power
        k = power
        for name, e in zip(other.poly.vars, mono):
            k = min(k, min(self.poly.coefficients_in(name)) // e)
        if k == 0:
            return self, power
        return (K0Class(self.poly * other.poly.monomial_inverse() ** k,
                        self._merged_atoms(other)), power - k)

    def __str__(self):
        names, terms = self.poly.vars, self.poly.terms
        return _poly_text(names, terms, lambda expo: (
            sum(expo), _monomial_text(names, expo)))

    __repr__ = __str__


def lefschetz(power: int = 1) -> K0Class:
    return K0Class.atom(LEFSCHETZ, power)


def poly_to_class(poly: MultiPoly, atoms: dict) -> K0Class:
    """Interpret a polynomial in atom names as a K0 class."""
    return K0Class(poly, atoms)


def e_polynomial(a: K0Class) -> MultiPoly:
    """The E-polynomial realization (ring morphism to Z[u, v])."""
    return a.map_atoms(lambda atom: atom.e_poly)


def chi_y_of_class(a: K0Class) -> MultiPoly:
    """E(-y, 1): the chi_y specialization."""
    return e_polynomial(a).substitute_map(
        {"u": -MultiPoly.var("y"), "v": Fraction(1)})


def euler_of_class(a: K0Class) -> int:
    """Topological (compactly supported) Euler characteristic E(1, 1).

    The source text states E(-1,-1) = chi; mixed-Hodge additivity forces
    E(1,1) = chi_c, which is what every worked value here requires, so
    E(1,1) it is (flagged, not silently reconciled).  Each atom enters
    through its own chi, its E-polynomial at (1, 1), an integer since
    ``Atom`` admits only integer E-polynomials; the class is then
    evaluated at those integers.
    """
    # an E-polynomial at (1, 1) is the sum of its coefficients
    chis = [sum(a.atoms[name].e_poly.terms.values()) for name in a.poly.vars]
    out = 0
    for expo, coeff in a.poly.terms.items():
        for chi, e in zip(chis, expo):
            coeff *= chi ** e
        out += coeff
    return out


def blowup_relation_check(x: K0Class, y: K0Class, bl: K0Class,
                          exc: K0Class) -> bool:
    """[Bl_Y X] - [E] = [X] - [Y] in K0."""
    return bl - exc == x - y


# ---------------------------------------------------------------------
# proalgebraic towers


@dataclass(frozen=True)
class TowerDatum:
    """Per-level fiber data of a proalgebraic tower, indexed from 1.

    Euler mode: nonzero fiber Euler numbers e_1, e_2, ... (e_0 := 1 by
    convention).  Class mode: a constant fiber class gamma.  The arc tower
    of a smooth X of dimension d is class mode with gamma = L^d, where the
    n-th jet level sits at tower index n + 1.
    """

    eulers: tuple = ()
    gamma: K0Class | None = None

    def __post_init__(self):
        if self.gamma is None and not self.eulers:
            raise ValidationError("tower needs Euler numbers or a fiber class")
        if any(e == 0 for e in self.eulers):
            raise ValidationError("fiber Euler numbers must be nonzero")


def pro_euler(t: TowerDatum, n: int, chi_alpha_n: int) -> Fraction:
    """chi(alpha_n) / (e_0 e_1 ... e_{n-1}) with e_0 = 1."""
    if not t.eulers:
        raise ValidationError("tower is not in Euler mode")
    if n < 1:
        raise ValueError("level index starts at 1")
    if n - 1 > len(t.eulers):
        raise ValueError("tower too short for this level")
    denom = 1
    for k in range(1, n):
        denom *= t.eulers[k - 1]
    return Fraction(chi_alpha_n, denom)


def pro_grothendieck(t: TowerDatum, n: int, gamma_alpha_n: K0Class):
    """Gamma(alpha_n) / gamma^(n-1), reduced when gamma divides monomially.

    Returns (numerator, remaining_denominator_power)."""
    if t.gamma is None:
        raise ValidationError("tower is not in class mode")
    if n < 1:
        raise ValueError("level index starts at 1")
    return gamma_alpha_n.divide_monomial(t.gamma, n - 1)
