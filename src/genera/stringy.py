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
from .expr import parse_expr
from .k0 import Atom, K0Class, LEFSCHETZ, ValidationError, euler_of_class, \
    load_json_object, poly_to_class
from .rings import ExactDivisionError, MultiPoly, RationalFunction, \
    TruncSeries, _parts_in, exp_coeffs

MAX_COMPONENTS = 14
# the degree of the integral's denominator prod (L^{r(a_i+1)} - 1) in the
# integral variable; at 4096, compare X X takes 0.3-0.8 s through the CLI
# (2-vCPU host); of its in-process part, 60-90% reduces the values
MAX_DENOMINATOR_DEGREE = 4096


class ConsistencyError(ArithmeticError):
    """Two evaluation paths that must agree did not."""


def _check_components(flavor: str, index_r: int, components) -> None:
    """Validate the flavor, the index and the (name, discrepancy)
    components of resolution data, including the budget on the degree of
    the integral's denominator; raises ValidationError."""
    if flavor not in ("stringy", "arc"):
        raise ValidationError(f"unknown flavor {flavor!r}")
    if index_r < 1:
        raise ValidationError("index r must be a positive integer")
    if len(components) > MAX_COMPONENTS:
        raise ValidationError(
            f"at most {MAX_COMPONENTS} components are supported")
    names = [n for n, _ in components]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate component names")
    degree = 0  # the sum of r * (a_i + 1)
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
        degree += ra.numerator + index_r
    if degree > MAX_DENOMINATOR_DEGREE:
        raise ValidationError(
            f"the sum of r * (a_i + 1) over the components is {degree}; "
            f"at most {MAX_DENOMINATOR_DEGREE} is supported")


@dataclass(frozen=True)
class ResolutionDatum:
    """Normal-crossing resolution data for a log-terminal pair.

    components: tuple of (name, discrepancy) with every discrepancy > -1
    and r * discrepancy integral; strata: tuple of the 2^k open-stratum
    classes, indexed by bitmask: bit i of the index is set when component
    i is in the subset.
    """

    flavor: str
    index_r: int
    components: tuple
    strata: tuple

    def __post_init__(self):
        _check_components(self.flavor, self.index_r, self.components)
        k = len(self.components)
        if not isinstance(self.strata, tuple) or len(self.strata) != 1 << k:
            raise ValidationError(
                f"strata must be a tuple of {1 << k} classes, "
                f"one per subset of the components")

    def discrepancy(self, i: int) -> Fraction:
        return Fraction(self.components[i][1])

    def closed_stratum(self, mask: int) -> K0Class:
        """[E_I] = sum over J containing I of [E_J^o], I and J as bitmasks."""
        return sum((cls for j, cls in enumerate(self.strata)
                    if j & mask == mask), K0Class.zero())


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


def _factors(components, r: int, var: str):
    """The degrees r(a_i + 1), one per (name, a_i) component, integers by
    the components' validation, and the denominator, the product of the
    factors var^{r(a_i+1)} - 1, as a dense polynomial."""
    ns = [int(r * (Fraction(a) + 1)) for _, a in components]
    return ns, math.prod((Dense(var, n, (1,)) - 1 for n in ns),
                         start=Dense(var, 0, (1,)))


def _strata_tables(d: ResolutionDatum, var: str):
    """Every stratum class split by ``rings._parts_in``, L -> var^r, once
    per distinct class object: the atoms by name, and per atom monomial
    the table of dense parts indexed by bitmask."""
    r, size, zero = d.index_r, len(d.strata), Dense(var, 0, ())
    atoms, tables, parts = {}, {}, {}
    for m, cls in enumerate(d.strata):
        # the strata tuple keeps every class alive, so ids stay distinct
        split = parts.get(id(cls))
        if split is None:
            split = parts[id(cls)] = _parts_in(cls.poly, "L", var, r)
            atoms.update(cls.atoms)
        for key, part in split.items():
            table = tables.get(key)
            if table is None:
                table = tables[key] = [zero] * size
            table[m] = part
    return atoms, tables


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
    _check_components(flavor, r, components)
    ns, den = _factors(components, r, var)
    return _fold_tables(tables, ns, r, var), den


def _sum_dense_parts(num: dict, image, var: str) -> Dense:
    """The sum of num[key] times image(n)^e per (n, e) in key: one dense
    polynomial in var, each atom's image an int or dense in var."""
    return sum((math.prod((image(n) ** e for n, e in key), start=part)
                for key, part in num.items()), Dense(var, 0, ()))


def _checked_integral(d: ResolutionDatum):
    """The one fold of d that every invariant reads: its atoms, numerator
    by atom monomial and denominator, dense in L (in t when r > 1), the
    open fold checked against the closed one by ``_fold_tables``."""
    var = "L" if d.index_r == 1 else "t"
    atoms, tables = _strata_tables(d, var)
    ns, den = _factors(d.components, d.index_r, var)
    return atoms, _fold_tables(tables, ns, d.index_r, var), den


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


def _euler_formula(d: ResolutionDatum) -> Fraction:
    """Sum over strata of chi(E_I^o) * prod_{i in I} 1/(a_i + 1), with
    one Euler number per distinct class object."""
    k = len(d.components)
    # the strata tuple keeps every class alive, so ids stay distinct
    distinct = {id(cls): cls for cls in d.strata}
    chis = {key: Fraction(euler_of_class(cls))
            for key, cls in distinct.items()}
    return _fold([chis[id(cls)] for cls in d.strata],
                 [1 / (d.discrepancy(i) + 1) for i in range(k)], [1] * k)


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
    if len(components) > MAX_COMPONENTS:
        # before parsing the 2^k stratum classes, which dominate loading
        raise ValidationError(
            f"at most {MAX_COMPONENTS} components are supported")
    if not isinstance(strata_list, list):
        raise ValidationError("strata must be a list of entries")
    strata = [None] * (1 << len(names))
    # one K0Class per distinct class text, shared by its strata, so that
    # the fold splits it once
    parsed, variables = {}, tuple(atoms)
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
            if name not in names:
                raise ValidationError(f"unknown component {name!r}")
            mask |= 1 << names.index(name)
        if strata[mask] is not None:
            raise ValidationError("duplicate stratum entry")
        text = entry["class"]
        if not isinstance(text, str) or text not in parsed:
            # a non-string raises in parse_expr before it is stored
            parsed[text] = poly_to_class(
                parse_expr(text, variables=variables), atoms)
        strata[mask] = parsed[text]
    for mask, cls in enumerate(strata):
        if cls is None:
            missing = ", ".join(n for i, n in enumerate(names) if mask >> i & 1)
            raise ValidationError(f"missing stratum entry {{{missing}}}")
    return ResolutionDatum(flavor, index_r, components, tuple(strata))


def load_datum(path: str) -> ResolutionDatum:
    return datum_from_dict(load_json_object(path))
