"""Stringy invariants of log-terminal pairs from normal-crossing
resolution data: motivic integrals in closed form, the stringy E-function,
its chi_y and Euler specializations, the per-component Jacobian factor of
the degree-level elliptic limit, and cross-resolution invariance reports.

A resolution datum lists the exceptional components with their
discrepancies and the class of every open stratum; everything else is
exact fraction arithmetic.  Fractional powers L^(1/r) live in an adjoined
variable t with the rewrite rule u*v -> t^r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dense import Dense, _digits, _pack
from .expr import _to_poly, parse_expr, parse_terms
from .k0 import Atom, K0Class, LEFSCHETZ, ValidationError, _check_terms, \
    load_json_object
from .rings import ExactDivisionError, MultiPoly, RationalFunction, \
    TruncSeries, _parts_in, _scalar, exp_coeffs

MAX_COMPONENTS = 14
# the degree of the integral's denominator prod (L^{r(a_i+1)} - 1) in the
# integral variable, and of each stratum class in it; at 4096, compare X X
# takes 0.3-0.8 s through the CLI (2-vCPU host); of its in-process part,
# 60-90% reduces the values
MAX_DENOMINATOR_DEGREE = 4096


class ConsistencyError(ArithmeticError):
    """Two evaluation paths that must agree did not."""


def _check_components(flavor: str, index_r: int, components) -> tuple:
    """Validate the flavor, the index and the (name, discrepancy)
    components of resolution data, including the budget on the degree of
    the integral's denominator, but not that the names are distinct;
    raises ValidationError.  Returns the degrees r(a_i + 1) of the
    denominator's factors, as ints."""
    if flavor not in ("stringy", "arc"):
        raise ValidationError(f"unknown flavor {flavor!r}")
    if index_r < 1:
        raise ValidationError("index r must be a positive integer")
    if len(components) > MAX_COMPONENTS:
        raise ValidationError(
            f"at most {MAX_COMPONENTS} components are supported")
    ns = []
    for name, a in components:
        a = Fraction(a)
        if a <= -1:
            raise ValidationError(f"discrepancy of {name!r} must be > -1")
        ra = index_r * a
        if ra.denominator != 1:
            raise ValidationError(
                f"r * discrepancy of {name!r} must be an integer")
        if flavor == "arc" and (a.denominator != 1 or a < 0):
            raise ValidationError(
                "arc flavor needs nonnegative integer discrepancies")
        ns.append(ra.numerator + index_r)
    if sum(ns) > MAX_DENOMINATOR_DEGREE:
        raise ValidationError(
            f"the sum of r * (a_i + 1) over the components is {sum(ns)}; "
            f"at most {MAX_DENOMINATOR_DEGREE} is supported")
    return tuple(ns)


def _split(terms: dict, atoms: dict, used: dict, var: str, r: int) -> dict:
    """A class with the term dict ``terms`` (``expr.parse_terms``) as the
    fold reads it: per monomial in the atoms other than L, as sorted (name,
    exponent) pairs, its coefficient in L, a Dense in var with L -> var^r.
    K0's boundary check (``k0._check_terms``) holds against atoms; it
    runs term by term only when some term fails it, so that the first one
    raises.  Each atom the class names goes into used, where two
    different atoms with one name raise ValidationError, and so does a
    degree in var above the budget MAX_DENOMINATOR_DEGREE."""
    rows, names, valid = {}, set(), True
    for key, c in terms.items():
        if type(c) is not int:
            c = _scalar(c)
            valid = valid and type(c) is int
        e, rest = 0, key
        for i, (name, power) in enumerate(key):
            names.add(name)
            valid = valid and power >= 0
            if name == "L":
                e, rest = power, key[:i] + key[i + 1:]
        rows.setdefault(rest, {})[r * e] = c
    names = sorted(names)
    _check_terms(() if valid else (([e for _, e in key], _scalar(c))
                                   for key, c in terms.items()), names, atoms)
    for name in names:
        atom = atoms[name]
        have = used.setdefault(name, atom)
        if have is not atom and have != atom:
            raise ValidationError(f"two different atoms are named {name!r}")
    top = max((max(row) for row in rows.values()), default=0)
    if top > MAX_DENOMINATOR_DEGREE:
        raise ValidationError(
            f"a stratum class has degree {top} in {var}; at most "
            f"{MAX_DENOMINATOR_DEGREE} is supported")
    return {key: Dense(var, min(row), [row.get(k, 0) for k in range(
        min(row), max(row) + 1)]) for key, row in rows.items()}


class ResolutionDatum:
    """Normal-crossing resolution data for a log-terminal pair.

    components: tuple of (name, discrepancy) with every discrepancy > -1
    and r * discrepancy integral; strata: tuple of the 2^k open-stratum
    classes (``K0Class``), indexed by bitmask: bit i of the index is set
    when component i is in the subset.

    The datum holds each stratum as the fold reads it: ``atoms``, the
    atoms its classes name, by name, and ``parts``, per bitmask the
    ``_split`` of the class, its Dense parts in ``var`` (L, or t with
    L -> t^r when r > 1) by atom monomial.  Strata that share one class
    object share one parts object.  The constructor splits each distinct
    class once; the loader builds the parts from the class texts with
    ``_of_parts``, and ``strata`` is then built on first read, one class
    per distinct parts object.  == and the hash compare the held form.
    """

    __slots__ = ("flavor", "index_r", "components", "atoms", "parts", "_ns",
                 "_strata")

    def __init__(self, flavor: str, index_r: int, components: tuple,
                 strata: tuple):
        ns = _check_components(flavor, index_r, components)
        names = [n for n, _ in components]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate component names")
        k = len(components)
        if not isinstance(strata, tuple) or len(strata) != 1 << k:
            raise ValidationError(
                f"strata must be a tuple of {1 << k} classes, "
                f"one per subset of the components")
        atoms, split, var = {}, {}, _variable(index_r)
        for cls in strata:
            # the strata tuple keeps every class alive, so ids stay distinct
            if id(cls) not in split:
                poly = cls.poly
                split[id(cls)] = _split(
                    {tuple(p for p in zip(poly.vars, expo) if p[1]): c
                     for expo, c in poly.terms.items()},
                    cls.atoms, atoms, var, index_r)
        self._set(flavor, index_r, components, ns, atoms,
                  tuple(split[id(cls)] for cls in strata), strata)

    @classmethod
    def _of_parts(cls, flavor: str, index_r: int, components: tuple,
                  ns: tuple, atoms: dict, parts: tuple) -> "ResolutionDatum":
        """The datum whose 2^k strata are held as ``parts``, the
        ``_split`` of their classes, which name the ``atoms``, over the
        components that ``_check_components`` validated into ``ns``."""
        return object.__new__(cls)._set(
            flavor, index_r, components, ns, atoms, parts, None)

    def _set(self, flavor, index_r, components, ns, atoms, parts, strata):
        for name, value in zip(self.__slots__, (flavor, index_r, components,
                                                atoms, parts, ns, strata)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, *a):
        raise AttributeError("ResolutionDatum is immutable")

    var = property(lambda self: _variable(self.index_r))

    @property
    def strata(self) -> tuple:
        if self._strata is None:
            r, classes = self.index_r, {}
            for split in self.parts:
                if id(split) not in classes:
                    classes[id(split)] = K0Class(_to_poly({
                        tuple(sorted(key + (("L", (part.low + i) // r),)))
                        if part.low + i else key: c
                        for key, part in split.items()
                        for i, c in enumerate(part.coeffs) if c}), self.atoms)
            object.__setattr__(self, "_strata", tuple(
                classes[id(split)] for split in self.parts))
        return self._strata

    def __eq__(self, other):
        if not isinstance(other, ResolutionDatum):
            return NotImplemented
        return (self.flavor, self.index_r, self.components, self.parts,
                self.atoms) == (other.flavor, other.index_r,
                                other.components, other.parts, other.atoms)

    def __hash__(self):
        return hash((self.flavor, self.index_r, self.components, tuple(
            frozenset(split.items()) for split in self.parts)))

    def __repr__(self):
        return (f"ResolutionDatum({self.flavor!r}, {self.index_r!r}, "
                f"{self.components!r}, {self.strata!r})")

    def discrepancy(self, i: int) -> Fraction:
        return Fraction(self.components[i][1])

    def closed_stratum(self, mask: int) -> K0Class:
        """[E_I] = sum over J containing I of [E_J^o], I and J as bitmasks."""
        return sum((cls for j, cls in enumerate(self.strata)
                    if j & mask == mask), K0Class.zero())


def _variable(r: int) -> str:
    """The variable of a datum's parts and fold at index r: L = t^r."""
    return "L" if r == 1 else "t"


# ---------------------------------------------------------------------
# values with a fractional-power variable


def rewrite_uv(poly: MultiPoly, r: int) -> MultiPoly:
    """Canonical representative modulo u*v = t^r: in every monomial,
    min(deg_u, deg_v) is moved into the t exponent."""
    poly = MultiPoly._coerce(poly)
    if "u" not in poly.vars or "v" not in poly.vars:
        return poly
    names, terms, _ = poly._align(MultiPoly.var("t"))
    iu, iv, it = (names.index(var) for var in "uvt")
    out = {}
    for expo, coeff in terms.items():
        new = list(expo)
        m = min(new[iu], new[iv])
        new[iu], new[iv], new[it] = new[iu] - m, new[iv] - m, new[it] + r * m
        out[tuple(new)] = out.get(tuple(new), 0) + coeff
    return MultiPoly(names, out)


_UV, _ONE = MultiPoly.monomial({"u": 1, "v": 1}), MultiPoly.const(1)


def _as_uv(names, terms: dict):
    """Terms over names in t, u, v with each t^c as u^c v^c (u*v = t at
    r = 1), one to one where no monomial has both u and v."""
    out = {}
    for expo, coeff in terms.items():
        u, v, t = (dict(zip(names, expo)).get(x, 0) for x in "uvt")
        out[u + t, v + t] = coeff
    return ("u", "v"), out


@dataclass(frozen=True, init=False)
class StringyValue:
    """Exact fraction num/den with u*v = t^r and den in t: r and ``value``,
    a ``RationalFunction`` with no monomial in both u and v, a form that
    division by a polynomial in t keeps.  So == and the hash compare the
    unique lowest terms; ``num`` and ``den`` are its views."""

    value: RationalFunction
    r: int

    def __init__(self, num, den, r: int):
        den = MultiPoly._coerce(den)
        if set(den.vars) - {"t"}:
            raise ValidationError(
                f"stringy denominator must be a polynomial in t, got {den}")
        self._set(RationalFunction(rewrite_uv(num, r), den), r)

    def _set(self, value: RationalFunction, r: int) -> "StringyValue":
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "r", r)
        return self

    num = property(lambda self: self.value.numerator)
    den = property(lambda self: self.value.denominator)

    def __str__(self):
        return self.value._text(_as_uv if self.r == 1 else None)

    __repr__ = __str__


# ---------------------------------------------------------------------
# motivic integral (variable L, other atoms kept as variables)


def _superset_sums(table: list) -> list:
    """out[S] = sum of table[J] over every bitmask J containing S, by one
    pass per component (Yates' zeta transform): O(k * 2^k) additions."""
    out = list(table)
    bit = 1
    while bit < len(out):
        for m in range(len(out)):
            if not m & bit:
                out[m] = out[m] + out[m | bit]
        bit <<= 1
    return out


def _fold(table: list, ins: list, outs: list):
    """Sum over bitmasks I of table[I] * prod_{i in I} ins[i] *
    prod_{i not in I} outs[i], folding out one component at a time from
    the highest; each step halves the table, 2^(k+1) - 2 products in all."""
    for i in reversed(range(len(ins))):
        half = 1 << i
        a, d = ins[i], outs[i]
        table = [table[m] * d + table[m + half] * a for m in range(half)]
    return table[0]


def _denominator(ns, var: str) -> Dense:
    """The product of the factors var^n - 1 over the degrees n = r(a_i + 1)
    that ``_check_components`` returns, as a dense polynomial."""
    return math.prod((Dense(var, n, (1,)) - 1 for n in ns),
                     start=Dense(var, 0, (1,)))


def _strata_tables(d: ResolutionDatum):
    """The datum's parts transposed: its atoms by name, and per atom
    monomial the table of dense parts in ``d.var`` indexed by bitmask."""
    size, zero = len(d.parts), Dense(d.var, 0, ())
    tables = {}
    for m, split in enumerate(d.parts):
        for key, part in split.items():
            table = tables.get(key)
            if table is None:
                table = tables[key] = [zero] * size
            table[m] = part
    return d.atoms, tables


def _packed(tables: dict, k: int):
    """(B, packed): each dense part p of the tables, a polynomial (K0 has
    no negative powers), as the int p(X) at X = 2^B, so that the folds run
    on ints.  Every fold factor has 1-norm at most 2 and a closed part
    sums at most 2^k open ones, so every coefficient of either fold of a
    table is below 4^k N, N the total 1-norm of the parts.  B, a multiple
    of 8, has 2^(B-1) > 4^k N: a fold's balanced base-X digits are its
    coefficients, and two folds are equal iff their values are."""
    parts = [p for t in tables.values() for p in t]
    norm = sum(sum(map(abs, p.coeffs)) for p in parts)
    bits = (norm.bit_length() + 2 * k + 9) // 8 * 8
    ints = {}
    for p in parts:
        if id(p) not in ints:
            ints[id(p)] = _pack(p.coeffs, bits) << p.low * bits
    return bits, {key: [ints[id(p)] for p in t] for key, t in tables.items()}


def _fold_tables(tables: dict, ns: list, r: int, var: str) -> dict:
    """The open fold of each table of dense parts, stratum I weighted by
    prod_{i in I} (var^r - 1) * prod_{i not in I} (var^{ns[i]} - 1), on
    the tables packed by ``_packed``, checked against the closed-stratum
    fold by ``_check_closed``."""
    bits, packed = _packed(tables, len(ns))
    outs = [(1 << n * bits) - 1 for n in ns]
    ins = [(1 << r * bits) - 1] * len(ns)
    num = {key: _fold(t, ins, outs) for key, t in packed.items()}
    _check_closed(packed, num, ns, r, bits)
    return {key: Dense(var, 0, _digits(v, bits)) for key, v in num.items()}


def _check_closed(packed: dict, num: dict, ns: list, r: int,
                  bits: int) -> None:
    """The closed-stratum fold of each packed table, its superset sums
    weighted by (X^r - 1) - (X^{ns[i]} - 1) per component in the subset
    and X^{ns[i]} - 1 per component out of it, X = 2^bits, must equal the
    packed open fold num on every atom monomial; a mismatch raises
    ConsistencyError."""
    ins = [(1 << r * bits) - (1 << n * bits) for n in ns]
    outs = [(1 << n * bits) - 1 for n in ns]
    if num != {key: _fold(_superset_sums(t), ins, outs)
               for key, t in packed.items()}:
        raise ConsistencyError(
            "open- and closed-stratum forms of the motivic integral differ")


def checked_fold(flavor: str, r: int, components, tables: dict,
                 var: str):
    """``_fold_tables`` of the tables of open-stratum parts over the (name,
    discrepancy) components, validated as a ``ResolutionDatum``'s, and the
    denominator, dense in var; a mismatch raises ConsistencyError."""
    ns = _check_components(flavor, r, components)
    return _fold_tables(tables, ns, r, var), _denominator(ns, var)


def _sum_dense_parts(num: dict, image, var: str) -> Dense:
    """The sum of num[key] times image(n)^e per (n, e) in key: one dense
    polynomial in var, each atom's image an int or dense in var."""
    return sum((math.prod((image(n) ** e for n, e in key), start=part)
                for key, part in num.items()), Dense(var, 0, ()))


def _checked_integral(d: ResolutionDatum):
    """The one fold of d that every invariant reads: its atoms, numerator
    by atom monomial and denominator, dense in L (in t when r > 1), the
    open fold checked against the closed one by ``_fold_tables``."""
    atoms, tables = _strata_tables(d)
    return (atoms, _fold_tables(tables, d._ns, d.index_r, d.var),
            _denominator(d._ns, d.var))


def _integral(atoms: dict, num: dict, den: Dense, r: int) -> RationalFunction:
    """The integral of a ``_checked_integral`` fold, the other atoms as
    variables; at r > 1 none may be named t, as t = L^(1/r)."""
    if r > 1 and "t" in atoms:
        raise ValidationError(f"an atom named 't' clashes with t = L^(1/{r})")
    return RationalFunction._of_parts(num, den)


def _realise(atoms: dict, num: dict, den: Dense, r: int) -> StringyValue:
    """The E-realisation of an integral's numerator over den: each atom
    goes to its E-polynomial and the variable to t, so L -> t^r = uv, and
    each u^a v^b goes to t^(r min(a, b)) times what is left of it."""
    parts = {}
    for key, part in num.items():
        image = math.prod((atoms[n].e_poly ** e for n, e in key), start=_ONE)
        for (a, b), c in image._align(_UV)[1].items():
            m = min(a, b)
            mono = (("u", a - m),) if a > m else (("v", b - m),) if b > m else ()
            parts[mono] = parts.get(mono, 0) + Dense(
                "t", part.low + r * m, [c * x for x in part.coeffs])
    return object.__new__(StringyValue)._set(RationalFunction._of_parts(
        parts, Dense("t", den.low, den.coeffs)), r)


def motivic_integral(d: ResolutionDatum) -> RationalFunction:
    """Sum over strata of [E_I^o] * prod_{i in I} (L-1)/(L^{a_i+1}-1),
    exact in L (in t with t^r = L when r > 1) and the other atoms.

    The closed-stratum form sum [E_I] * prod((L-1)/(L^{a_i+1}-1) - 1) is
    computed alongside and must agree; a mismatch raises ConsistencyError.
    The closed strata [E_I] are the superset sums of the open ones.
    """
    return _integral(*_checked_integral(d), d.index_r)


# ---------------------------------------------------------------------
# stringy E-function and specializations


def stringy_E(d: ResolutionDatum) -> StringyValue:
    """Sum over strata of E(E_I^o; u, v) * prod_{i in I}
    (uv-1)/((uv)^{a_i+1}-1), with (uv)^{1/r} carried by t; the
    E-realisation of the checked integral's fold."""
    return _realise(*_checked_integral(d), d.index_r)


def _chi_y(atoms: dict, num: dict, den: Dense) -> RationalFunction:
    """The E-function of an index-1 fold (its atoms, numerator by atom
    monomial and denominator) at (u, v) = (-y, 1), so that its variable
    L = uv goes to -y.  Each atom goes to its E-polynomial at (L, 1), so
    the numerator is one dense polynomial; the fraction is reduced once,
    at L = -y."""
    images = {n: sum(_parts_in(a.e_poly, "u", den.var).values(),
                     Dense(den.var, 0, ())) for n, a in atoms.items()}
    top, den = (Dense("y", p.low, [-c if (p.low + i) % 2 else c
                                   for i, c in enumerate(p.coeffs)])
                for p in (_sum_dense_parts(num, images.__getitem__, den.var),
                          den))
    return RationalFunction._of_parts({(): top}, den)


def stringy_chi_y(d: ResolutionDatum) -> RationalFunction:
    """stringy_E at (u, v) = (-y, 1); needs index r = 1 so L = uv = -y.
    Read off the checked integral's fold, as the Euler limit is, without
    the E-function."""
    if d.index_r != 1:
        raise ValidationError(
            "chi_y specialization needs Gorenstein index 1")
    return _chi_y(*_checked_integral(d))


def _euler_of_parts(split: dict, atoms: dict) -> int:
    """The Euler number E(1, 1) of a class held as its ``_split``: L and
    t go to 1, and each other atom to its Euler number, the sum of its
    E-polynomial's coefficients, as in ``k0.euler_of_class``."""
    return sum(sum(part.coeffs) * math.prod(
        sum(atoms[n].e_poly.terms.values()) ** e for n, e in key)
        for key, part in split.items())


def _euler_formula(d: ResolutionDatum) -> Fraction:
    """Sum over strata of chi(E_I^o) * prod_{i in I} 1/(a_i + 1), read
    off the strata's parts with one Euler number per distinct parts
    object.  With n_i = r(a_i + 1) each 1/(a_i + 1) is r/n_i, so the sum
    is one fold of ints, sum over I of chi_I r^|I| prod_{i not in I} n_i,
    over prod n_i."""
    distinct = {id(split): split for split in d.parts}
    chis = {key: _euler_of_parts(split, d.atoms)
            for key, split in distinct.items()}
    ns = d._ns
    return Fraction(_fold([chis[id(split)] for split in d.parts],
                          [d.index_r] * len(ns), ns), math.prod(ns))


def _euler_limit(atoms: dict, num: dict, den: Dense, k: int) -> Fraction:
    """The removable-singularity limit at u = v = 1 of the E-function of a
    fold with k components: its atoms, numerator by atom monomial and
    denominator.  Each atom goes to its Euler number, the sum of its
    E-polynomial's coefficients, so the numerator is one dense polynomial;
    var - 1 divides exactly out of it and out of den k times, each time
    by a running sum, and the limit is their ratio at var = 1.  A zero at
    1 of order below k, or one of den above k, raises ConsistencyError."""
    top = _sum_dense_parts(
        num, lambda n: sum(atoms[n].e_poly.terms.values()), den.var)
    root = Dense(den.var, 0, (-1, 1))
    try:
        for _ in range(k):
            top, den = top / root, den / root
    except ExactDivisionError as exc:
        raise ConsistencyError(
            f"the E-function does not vanish to order {k} at 1") from exc
    if not sum(den.coeffs):
        raise ConsistencyError(
            f"the denominator vanishes to order above {k} at 1")
    return Fraction(sum(top.coeffs), sum(den.coeffs))


def _checked_euler(d: ResolutionDatum, fold: tuple) -> Fraction:
    """The formula path of the stringy Euler number, checked against the
    limit of d's fold (atoms, numerator by atom monomial, denominator);
    a disagreement raises ConsistencyError."""
    direct = _euler_formula(d)
    limit = _euler_limit(*fold, len(d.components))
    if limit != direct:
        raise ConsistencyError(
            f"stringy Euler paths disagree: formula {direct}, limit {limit}")
    return direct


def stringy_euler(d: ResolutionDatum) -> Fraction:
    """Sum over strata of chi(E_I^o) * prod_{i in I} 1/(a_i + 1).

    Verified against the removable-singularity limit of stringy_E at
    u = v = 1, taken on the checked integral's fold in x (L, or t at
    r > 1): (x - 1)^k, k the number of components, divides out of
    numerator and denominator, which are then evaluated at x = 1; a
    disagreement raises ConsistencyError.
    """
    return _checked_euler(d, _checked_integral(d))


# ---------------------------------------------------------------------
# per-component Jacobian factor of the degree-level elliptic limit


def jacobian_factor_limit(a, e_order: int) -> TruncSeries:
    """(y-1)(1 - y^{a+1} e^{-e}) / ((y^{a+1}-1)(1 - y e^{-e})) as a series
    in the nilpotent variable e with rational-function-in-y coefficients.

    The equivalent form 1 + (y - y^{a+1})(1 - e^{-e})/((y^{a+1}-1)(1 - y e^{-e}))
    is evaluated alongside; a termwise mismatch raises ConsistencyError.
    For a = 0 the factor is identically 1.
    """
    a = Fraction(a)
    if a <= -1:
        raise ValidationError("discrepancy must be > -1")
    if a.denominator != 1:
        raise ValidationError(
            "the degree-level factor needs an integral discrepancy")
    y = MultiPoly.var("y")
    ya1 = y ** (int(a) + 1)
    if a == 0:
        return TruncSeries.one("e", e_order).map_coeffs(RationalFunction)
    # e^{-e}, over rational functions of y so that the inverse exists
    exp = TruncSeries("e", e_order, exp_coeffs(-1, e_order)).map_coeffs(
        RationalFunction)
    inv = ((1 - exp * y) * (ya1 - 1)).invert()
    form1 = (1 - exp * ya1) * (y - 1) * inv
    form2 = (1 - exp) * (y - ya1) * inv + 1
    if form1 != form2:
        raise ConsistencyError("the two Jacobian-factor forms disagree")
    return form1


# ---------------------------------------------------------------------
# invariance report


@dataclass(frozen=True)
class InvarianceReport:
    integral: tuple       # (value1, value2, equal)
    e_function: tuple
    chi_y: tuple | None   # None: not defined at Gorenstein index r > 1
    euler: tuple

    @property
    def all_equal(self) -> bool:
        return all(row[2] for row in
                   (self.integral, self.e_function, self.chi_y, self.euler)
                   if row is not None)


def invariance_check(d1: ResolutionDatum, d2: ResolutionDatum) -> InvarianceReport:
    """Compare the four invariants of two resolution data for one pair;
    chi_y only when both have index 1.  Each datum's E-function realises
    its checked integral, whose fold also feeds its Euler limit check.
    Each datum's values compare at the lcm R of the two indices, where
    its t = L^(1/r) (L at r = 1) is t^(R/r)."""
    n1, n2 = _checked_integral(d1), _checked_integral(d2)
    r1, r2 = d1.index_r, d2.index_r
    big = math.lcm(r1, r2)

    def lift(f, r: int, var: str):
        # f at index big: its variable, t = L^(1/r) or L, goes to t^(big/r)
        return f if r == big else \
            f.substitute(var, MultiPoly.var("t") ** (big // r))

    i1, i2 = _integral(*n1, big), _integral(*n2, big)
    e1, e2 = _realise(*n1, r1), _realise(*n2, r2)
    chi_y = None
    if r1 == r2 == 1:
        c1, c2 = _chi_y(*n1), _chi_y(*n2)
        chi_y = (c1, c2, c1 == c2)
    x1, x2 = _checked_euler(d1, n1), _checked_euler(d2, n2)
    return InvarianceReport(
        (i1, i2, lift(i1, r1, n1[2].var) == lift(i2, r2, n2[2].var)),
        (e1, e2, lift(e1.value, r1, "t") == lift(e2.value, r2, "t")),
        chi_y, (x1, x2, x1 == x2))


# ---------------------------------------------------------------------
# JSON ingestion


def datum_from_dict(data: dict) -> ResolutionDatum:
    """Build a ResolutionDatum from the JSON schema:
    {"flavor": ..., "index_r": ..., "components": [{"name", "a"}],
     "strata": [{"subset": [names], "class": expr}], "atoms": optional
     [{"name", "dim", "e": expr in u, v}]}."""
    try:
        flavor = data["flavor"]
        index_r = data["index_r"]
        comp_list = data["components"]
        strata_list = data["strata"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed resolution datum: {exc}") from exc
    if type(index_r) is not int:
        raise ValidationError(f"index_r must be an integer, got {index_r!r}")
    atoms = {"L": LEFSCHETZ}
    try:
        for spec in data.get("atoms", ()):
            e_poly = parse_expr(spec["e"], variables=("u", "v"))
            atom = Atom(spec["name"], spec["dim"], e_poly)
            if atoms.setdefault(atom.name, atom) != atom:
                raise ValidationError(
                    f"atom {atom.name!r} conflicts with an earlier definition")
        components = tuple((c["name"], Fraction(str(c["a"])))
                           for c in comp_list)
    except (KeyError, TypeError) as exc:
        raise ValidationError(
            f"malformed atom or component entry: {exc!r}") from exc
    names = [name for name, _ in components]
    if not all(isinstance(name, str) for name in names):
        raise ValidationError("component names must be strings")
    # before the 2^k strata are listed, parsed and split, which dominate
    # loading and grow with k and the index r; a repeated name fails on
    # the strata below
    ns = _check_components(flavor, index_r, components)
    if not isinstance(strata_list, list):
        raise ValidationError("strata must be a list of entries")
    strata = [None] * (1 << len(names))
    # each name's bit; a repeated name keeps its first, so that the strata
    # on its later bits are reported missing
    bits = {}
    for i, name in enumerate(names):
        bits.setdefault(name, 1 << i)
    # one parts object per distinct class text, shared by its strata, so
    # that the text is parsed and split once and the fold packs it once
    parsed, variables, used = {}, tuple(atoms), {}
    var = _variable(index_r)
    for entry in strata_list:
        if not isinstance(entry, dict):
            raise ValidationError(f"stratum entry {entry!r} is not an object")
        for key in ("subset", "class"):
            if key not in entry:
                raise ValidationError(f"stratum entry misses key {key!r}")
        if not isinstance(entry["subset"], list):
            raise ValidationError("stratum subset must be a list of names")
        mask = 0
        for name in entry["subset"]:
            bit = bits.get(name) if isinstance(name, str) else None
            if bit is None:
                raise ValidationError(f"unknown component {name!r}")
            mask |= bit
        if strata[mask] is not None:
            raise ValidationError("duplicate stratum entry")
        text = entry["class"]
        if not isinstance(text, str) or text not in parsed:
            # a non-string raises in parse_terms before it is stored
            parsed[text] = _split(parse_terms(text, variables=variables),
                                  atoms, used, var, index_r)
        strata[mask] = parsed[text]
    for mask, split in enumerate(strata):
        if split is None:
            missing = ", ".join(n for i, n in enumerate(names) if mask >> i & 1)
            raise ValidationError(f"missing stratum entry {{{missing}}}")
    return ResolutionDatum._of_parts(flavor, index_r, components, ns, used,
                                     tuple(strata))


def load_datum(path: str) -> ResolutionDatum:
    return datum_from_dict(load_json_object(path))
