"""Grothendieck ring of varieties modelled by atoms with E-polynomials,
relative classes and constructible functions over finite stratified bases,
and proalgebraic towers.

A variety enters only through its class: an atom is a (name, dimension,
E-polynomial) triple and nothing else.  Maps have constant fibers per
stratum pair; refine the stratification to encode anything else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
# stratified spaces, maps, constructible functions


@dataclass(frozen=True)
class StratifiedSpace:
    """Finite list of (name, class) strata; the space's class is the sum."""

    name: str
    strata: tuple  # of (name, K0Class)

    def __post_init__(self):
        names = [n for n, _ in self.strata]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate stratum names")

    def stratum_class(self, name: str) -> K0Class:
        for n, c in self.strata:
            if n == name:
                return c
        raise KeyError(name)

    def stratum_names(self):
        return tuple(n for n, _ in self.strata)

    def total_class(self) -> K0Class:
        out = K0Class.zero()
        for _, c in self.strata:
            out = out + c
        return out


@dataclass(frozen=True)
class StratifiedMap:
    """Stratum-to-stratum map with a constant fiber class per source
    stratum; validated so that [source stratum] = [target stratum]*[fiber]."""

    source: StratifiedSpace
    target: StratifiedSpace
    assignment: tuple  # of (source_name, target_name, fiber K0Class)

    def __post_init__(self):
        seen = set()
        for sname, tname, fiber in self.assignment:
            seen.add(sname)
            sclass = self.source.stratum_class(sname)
            tclass = self.target.stratum_class(tname)
            if sclass != tclass * fiber:
                raise ValidationError(
                    f"stratum {sname!r}: class must equal target class "
                    f"times fiber class")
        if seen != set(self.source.stratum_names()):
            raise ValidationError("every source stratum needs an assignment")

    def fiber_over(self, source_name: str):
        for sname, tname, fiber in self.assignment:
            if sname == source_name:
                return tname, fiber
        raise KeyError(source_name)

    @staticmethod
    def identity(space: StratifiedSpace) -> "StratifiedMap":
        return StratifiedMap(space, space, tuple(
            (n, n, K0Class.point()) for n in space.stratum_names()))

    def compose(self, then: "StratifiedMap") -> "StratifiedMap":
        """The map `then o self` (self first)."""
        if then.source is not self.target and \
                then.source != self.target:
            raise ValidationError("maps are not composable")
        assignment = []
        for sname, tname, fiber in self.assignment:
            t2, fiber2 = then.fiber_over(tname)
            assignment.append((sname, t2, fiber * fiber2))
        return StratifiedMap(self.source, then.target, tuple(assignment))


@dataclass(frozen=True)
class ConstructibleFunction:
    """Integer value per stratum of a stratified space."""

    base: StratifiedSpace
    values: tuple  # of (stratum_name, int)

    def __post_init__(self):
        if set(n for n, _ in self.values) != set(self.base.stratum_names()):
            raise ValidationError("values must cover exactly the strata")

    def value(self, name: str) -> int:
        for n, v in self.values:
            if n == name:
                return v
        raise KeyError(name)

    @staticmethod
    def indicator(space: StratifiedSpace) -> "ConstructibleFunction":
        return ConstructibleFunction(space, tuple(
            (n, 1) for n in space.stratum_names()))

    def euler_integral(self) -> int:
        """chi(X; alpha) = sum over strata of value * chi_c(stratum)."""
        return sum(v * euler_of_class(self.base.stratum_class(n))
                   for n, v in self.values)


def pushforward_cf(f: StratifiedMap,
                   alpha: ConstructibleFunction) -> ConstructibleFunction:
    """f_*(alpha): fiberwise Euler integration."""
    if alpha.base != f.source:
        raise ValidationError("function lives on the wrong base")
    acc = {n: 0 for n in f.target.stratum_names()}
    for sname, tname, fiber in f.assignment:
        acc[tname] += alpha.value(sname) * euler_of_class(fiber)
    return ConstructibleFunction(f.target, tuple(sorted(acc.items())))


@dataclass(frozen=True)
class RelativeClass:
    """Relative K0 class over a stratified base: the constant fiber class
    over each stratum (the class over a point of that stratum)."""

    base: StratifiedSpace
    fibers: tuple  # of (stratum_name, K0Class)

    def __post_init__(self):
        if set(n for n, _ in self.fibers) != set(self.base.stratum_names()):
            raise ValidationError("fibers must cover exactly the strata")

    def fiber(self, name: str) -> K0Class:
        for n, c in self.fibers:
            if n == name:
                return c
        raise KeyError(name)

    @staticmethod
    def unit(space: StratifiedSpace) -> "RelativeClass":
        """[X -> id X]: point fiber everywhere."""
        return RelativeClass(space, tuple(
            (n, K0Class.point()) for n in space.stratum_names()))

    def absolute(self) -> K0Class:
        """Push to a point: sum of [stratum]*[fiber]."""
        out = K0Class.zero()
        for n, c in self.fibers:
            out = out + self.base.stratum_class(n) * c
        return out


def pushforward_rel(f: StratifiedMap, a: RelativeClass) -> RelativeClass:
    """Regroup along f, weighting each stratum by its fiber class."""
    if a.base != f.source:
        raise ValidationError("class lives on the wrong base")
    acc = {n: K0Class.zero() for n in f.target.stratum_names()}
    for sname, tname, fiber in f.assignment:
        acc[tname] = acc[tname] + a.fiber(sname) * fiber
    return RelativeClass(f.target, tuple(sorted(acc.items())))


def pullback_rel(f: StratifiedMap, a: RelativeClass) -> RelativeClass:
    """Fiber product: each source stratum inherits the class over its image."""
    if a.base != f.target:
        raise ValidationError("class lives on the wrong base")
    fibers = []
    for sname, tname, _ in f.assignment:
        fibers.append((sname, a.fiber(tname)))
    return RelativeClass(f.source, tuple(sorted(fibers)))


def epsilon(a: RelativeClass) -> ConstructibleFunction:
    """Fiberwise Euler characteristic: sends the relative unit to 1_X."""
    return ConstructibleFunction(a.base, tuple(
        (n, euler_of_class(c)) for n, c in a.fibers))


def exterior_product(a: RelativeClass, b: RelativeClass) -> RelativeClass:
    """Relative class over the product base (product stratification)."""
    strata = tuple(
        (f"{n1}*{n2}", c1 * c2)
        for n1, c1 in a.base.strata for n2, c2 in b.base.strata)
    base = StratifiedSpace(f"{a.base.name}*{b.base.name}", strata)
    fibers = tuple(
        (f"{n1}*{n2}", a.fiber(n1) * b.fiber(n2))
        for n1, _ in a.base.strata for n2, _ in b.base.strata)
    return RelativeClass(base, fibers)


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
