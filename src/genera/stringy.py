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

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .expr import parse_expr
from .k0 import Atom, K0Class, LEFSCHETZ, ValidationError, euler_of_class, \
    e_polynomial, poly_to_class
from .rings import MultiPoly, RationalFunction, TruncSeries, binom_frac, \
    exp_coeffs

MAX_COMPONENTS = 16


class ConsistencyError(ArithmeticError):
    """Two evaluation paths that must agree did not."""


@dataclass(frozen=True)
class ResolutionDatum:
    """Normal-crossing resolution data for a log-terminal pair.

    components: tuple of (name, discrepancy) with every discrepancy > -1
    and r * discrepancy integral; strata: mapping from each frozenset of
    component indices to the class of the corresponding open stratum.
    """

    flavor: str
    index_r: int
    components: tuple
    strata: dict

    def __post_init__(self):
        if self.flavor not in ("stringy", "arc"):
            raise ValidationError(f"unknown flavor {self.flavor!r}")
        if self.index_r < 1:
            raise ValidationError("index r must be a positive integer")
        if len(self.components) > MAX_COMPONENTS:
            raise ValidationError(
                f"at most {MAX_COMPONENTS} components are supported")
        names = [n for n, _ in self.components]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate component names")
        for name, a in self.components:
            a = Fraction(a)
            if a <= -1:
                raise ValidationError(
                    f"discrepancy of {name!r} must be > -1")
            if (self.index_r * a).denominator != 1:
                raise ValidationError(
                    f"r * discrepancy of {name!r} must be an integer")
            if self.flavor == "arc" and (a.denominator != 1 or a < 0):
                raise ValidationError(
                    "arc flavor needs nonnegative integer discrepancies")
        k = len(self.components)
        for size in range(k + 1):
            for subset in combinations(range(k), size):
                if frozenset(subset) not in self.strata:
                    missing = "{" + ", ".join(names[i] for i in subset) + "}"
                    raise ValidationError(f"missing stratum entry {missing}")

    def discrepancy(self, i: int) -> Fraction:
        return Fraction(self.components[i][1])

    def subsets(self):
        k = len(self.components)
        for size in range(k + 1):
            for subset in combinations(range(k), size):
                yield frozenset(subset)

    def open_stratum(self, subset) -> K0Class:
        return self.strata[frozenset(subset)]

    def closed_stratum(self, subset) -> K0Class:
        """[E_I] = sum over J containing I of [E_J^o]."""
        subset = frozenset(subset)
        out = K0Class.zero()
        for j in self.subsets():
            if subset <= j:
                out = out + self.strata[j]
        return out

    def total_class(self) -> K0Class:
        out = K0Class.zero()
        for j in self.subsets():
            out = out + self.strata[j]
        return out


def product_datum(d1: ResolutionDatum, d2: ResolutionDatum) -> ResolutionDatum:
    """Datum of a product pair: components concatenate, strata multiply."""
    if d1.index_r != d2.index_r or d1.flavor != d2.flavor:
        raise ValidationError("factors must share flavor and index")
    k1 = len(d1.components)
    used = {name for name, _ in d1.components}
    components = list(d1.components)
    for name, a in d2.components:
        while name in used:
            name += "'"
        used.add(name)
        components.append((name, a))
    strata = {}
    for s1 in d1.subsets():
        for s2 in d2.subsets():
            key = frozenset(s1 | {i + k1 for i in s2})
            strata[key] = d1.strata[s1] * d2.strata[s2]
    return ResolutionDatum(d1.flavor, d1.index_r, tuple(components), strata)


# ---------------------------------------------------------------------
# values with a fractional-power variable


def rewrite_uv(poly: MultiPoly, r: int) -> MultiPoly:
    """Canonical representative modulo u*v = t^r: in every monomial,
    min(deg_u, deg_v) is moved into the t exponent."""
    poly = MultiPoly._coerce(poly)
    out = MultiPoly.const(0)
    u = MultiPoly.var("u")
    v = MultiPoly.var("v")
    t = MultiPoly.var("t")
    iu = poly.vars.index("u") if "u" in poly.vars else None
    iv = poly.vars.index("v") if "v" in poly.vars else None
    for expo, coeff in poly.terms.items():
        du = expo[iu] if iu is not None else 0
        dv = expo[iv] if iv is not None else 0
        m = min(du, dv)
        mono = MultiPoly.const(coeff) * u ** (du - m) * v ** (dv - m) \
            * t ** (r * m)
        for var, e in zip(poly.vars, expo):
            if var not in ("u", "v"):
                mono = mono * MultiPoly.var(var) ** e
        out = out + mono
    return out


@dataclass(frozen=True)
class StringyValue:
    """Exact fraction num/den with u*v = t^r; den is a polynomial in t
    (a product of factors t^{r(a_i+1)} - 1, up to sign)."""

    num: MultiPoly
    den: MultiPoly
    r: int

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = StringyValue(MultiPoly._coerce(other),
                                 MultiPoly.const(1), self.r)
        if not isinstance(other, StringyValue):
            return NotImplemented
        if self.r != other.r:
            return False
        lhs = rewrite_uv(self.num * other.den, self.r)
        rhs = rewrite_uv(other.num * self.den, self.r)
        return lhs == rhs

    def __hash__(self):
        return hash((self.r,))

    def __str__(self):
        num, den = self.num, self.den
        if self.r == 1:
            uv = MultiPoly.var("u") * MultiPoly.var("v")
            num = num.substitute_map({"t": uv})
            den = den.substitute_map({"t": uv})
        if den == MultiPoly.const(1):
            return str(num)
        return f"({num}) / ({den})"

    __repr__ = __str__


def stringy_value_from_expr(text: str, r: int = 1) -> StringyValue:
    """Parse a polynomial in u, v (and t) as a StringyValue."""
    poly = parse_expr(text, variables=("u", "v", "t"))
    return StringyValue(rewrite_uv(poly, r), MultiPoly.const(1), r)


# ---------------------------------------------------------------------
# motivic integral (variable L, classes realized through atoms)


def _realize_in_l(cls: K0Class, lpoly: MultiPoly) -> MultiPoly:
    """Realize a class as a polynomial in the integral variable, mapping
    the Lefschetz atom to lpoly; any other atom is out of scope here."""
    def fn(atom: Atom):
        if atom == LEFSCHETZ:
            return lpoly
        raise ValidationError(
            f"motivic integral needs classes polynomial in L, got atom "
            f"{atom.name!r}")
    return cls.map_atoms(fn)


def motivic_integral(d: ResolutionDatum) -> RationalFunction:
    """Sum over strata of [E_I^o] * prod_{i in I} (L-1)/(L^{a_i+1}-1),
    as an exact rational function of L (of t with t^r = L when r > 1).

    The closed-stratum form sum [E_I] * prod((L-1)/(L^{a_i+1}-1) - 1) is
    computed alongside and must agree; a mismatch raises ConsistencyError.
    """
    r = d.index_r
    lname = "L" if r == 1 else "t"
    lvar = MultiPoly.var(lname)
    lpoly = lvar ** r
    k = len(d.components)
    # m_i = r(a_i + 1), the integer exponent of the denominator factor
    ms = [int(r * (d.discrepancy(i) + 1)) for i in range(k)]
    dens = [lvar ** m - 1 for m in ms]
    lm1 = lpoly - 1
    den = MultiPoly.const(1)
    for f in dens:
        den = den * f

    open_num = MultiPoly.const(0)
    closed_num = MultiPoly.const(0)
    for subset in d.subsets():
        open_term = _realize_in_l(d.open_stratum(subset), lpoly)
        closed_term = _realize_in_l(d.closed_stratum(subset), lpoly)
        for i in range(k):
            if i in subset:
                open_term = open_term * lm1
                closed_term = closed_term * (lm1 - dens[i])
            else:
                open_term = open_term * dens[i]
                closed_term = closed_term * dens[i]
        open_num = open_num + open_term
        closed_num = closed_num + closed_term
    if open_num != closed_num:
        raise ConsistencyError(
            "open- and closed-stratum forms of the motivic integral differ")
    return RationalFunction(open_num, den)


# ---------------------------------------------------------------------
# stringy E-function and specializations


def stringy_E(d: ResolutionDatum) -> StringyValue:
    """Sum over strata of E(E_I^o; u, v) * prod_{i in I}
    (uv-1)/((uv)^{a_i+1}-1), with (uv)^{1/r} carried by t."""
    r = d.index_r
    t = MultiPoly.var("t")
    k = len(d.components)
    ms = [int(r * (d.discrepancy(i) + 1)) for i in range(k)]
    dens = [t ** m - 1 for m in ms]
    uvm1 = t ** r - 1
    den = MultiPoly.const(1)
    for f in dens:
        den = den * f
    num = MultiPoly.const(0)
    for subset in d.subsets():
        term = rewrite_uv(e_polynomial(d.open_stratum(subset)), r)
        for i in range(k):
            term = term * (uvm1 if i in subset else dens[i])
        num = num + term
    return StringyValue(rewrite_uv(num, r), den, r)


def stringy_chi_y(d: ResolutionDatum) -> RationalFunction:
    """stringy_E at (u, v) = (-y, 1); needs index r = 1 so t = uv = -y."""
    if d.index_r != 1:
        raise ValidationError(
            "chi_y specialization needs Gorenstein index 1")
    e = stringy_E(d)
    my = -MultiPoly.var("y")
    sub = {"u": my, "v": Fraction(1), "t": my}
    return RationalFunction(e.num.substitute_map(sub),
                            e.den.substitute_map(sub))


def _one_plus_s_power(expo: Fraction, order: int) -> TruncSeries:
    """(1+s)^expo as a truncated series, generalized binomial."""
    return TruncSeries("s", order,
                       [binom_frac(expo, j) for j in range(order + 1)])


def stringy_euler(d: ResolutionDatum) -> Fraction:
    """Sum over strata of chi(E_I^o) * prod_{i in I} 1/(a_i + 1).

    Verified against the removable-singularity limit of stringy_E at
    u = v = 1 (substituting uv = 1 + s and reading the s^0 term); a
    disagreement raises ConsistencyError.
    """
    k = len(d.components)
    direct = Fraction(0)
    for subset in d.subsets():
        term = Fraction(euler_of_class(d.open_stratum(subset)))
        for i in subset:
            term /= (d.discrepancy(i) + 1)
        direct += term

    # limit path: every numerator term vanishes to order k in s, the
    # denominator to exactly order k
    e = stringy_E(d)
    order = k + 2
    r = d.index_r

    def poly_series(poly: MultiPoly) -> TruncSeries:
        out = TruncSeries.zero("s", order)
        for expo, coeff in poly.terms.items():
            power = Fraction(0)
            for var, ee in zip(poly.vars, expo):
                if var in ("u", "v"):
                    power += ee
                elif var == "t":
                    power += Fraction(ee, r)
                elif ee:
                    raise ValidationError(
                        f"unexpected variable {var!r} in stringy value")
            out = out + _one_plus_s_power(power, order) * coeff
        return out

    num_s = poly_series(e.num)
    den_s = poly_series(e.den)
    num_c = [Fraction(MultiPoly._coerce(c).constant_value())
             for c in num_s.coeffs]
    den_c = [Fraction(MultiPoly._coerce(c).constant_value())
             for c in den_s.coeffs]
    if any(den_c[:k]) or den_c[k] == 0:
        raise ConsistencyError("denominator does not vanish to order k")
    if any(num_c[:k]):
        raise ConsistencyError("numerator does not vanish to order k")
    limit = num_c[k] / den_c[k]
    if limit != direct:
        raise ConsistencyError(
            f"stringy Euler paths disagree: formula {direct}, limit {limit}")
    return direct


# ---------------------------------------------------------------------
# per-component Jacobian factor of the degree-level elliptic limit


def _series_quotient(num, den, var: str, order: int) -> TruncSeries:
    """num/den as a TruncSeries with RationalFunction coefficients."""
    d0 = RationalFunction(den[0])
    out = []
    for kk in range(order + 1):
        acc = RationalFunction(num[kk])
        for j in range(kk):
            acc = acc - out[j] * RationalFunction(den[kk - j])
        out.append(acc / d0)
    return TruncSeries(var, order, out)


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
        return TruncSeries("e", e_order,
                           [RationalFunction(1)] + [RationalFunction(0)] * e_order)
    exp = exp_coeffs(-1, e_order)
    num1 = [(y - 1) * (MultiPoly.const(1 if kk == 0 else 0) - ya1 * exp[kk])
            for kk in range(e_order + 1)]
    den = [(ya1 - 1) * (MultiPoly.const(1 if kk == 0 else 0) - y * exp[kk])
           for kk in range(e_order + 1)]
    form1 = _series_quotient(num1, den, "e", e_order)

    num2 = [(y - ya1) * (MultiPoly.const(1 if kk == 0 else 0) - exp[kk])
            for kk in range(e_order + 1)]
    tail = _series_quotient(num2, den, "e", e_order)
    form2 = tail + 1
    if form1 != form2:
        raise ConsistencyError("the two Jacobian-factor forms disagree")
    return form1


# ---------------------------------------------------------------------
# invariance report


@dataclass(frozen=True)
class InvarianceReport:
    integral: tuple       # (value1, value2, equal)
    e_function: tuple
    chi_y: tuple
    euler: tuple

    @property
    def all_equal(self) -> bool:
        return all(flag for _, _, flag in
                   (self.integral, self.e_function, self.chi_y, self.euler))


def invariance_check(d1: ResolutionDatum, d2: ResolutionDatum) -> InvarianceReport:
    """Compare the four invariants of two resolution data for one pair."""
    i1, i2 = motivic_integral(d1), motivic_integral(d2)
    e1, e2 = stringy_E(d1), stringy_E(d2)
    c1, c2 = stringy_chi_y(d1), stringy_chi_y(d2)
    x1, x2 = stringy_euler(d1), stringy_euler(d2)
    return InvarianceReport((i1, i2, i1 == i2), (e1, e2, e1 == e2),
                            (c1, c2, c1 == c2), (x1, x2, x1 == x2))


# ---------------------------------------------------------------------
# JSON ingestion


def datum_from_dict(data: dict) -> ResolutionDatum:
    """Build a ResolutionDatum from the JSON schema:
    {"flavor": ..., "index_r": ..., "components": [{"name", "a"}],
     "strata": [{"subset": [names], "class": expr}], "atoms": optional
     [{"name", "dim", "e": expr in u, v}]}."""
    try:
        flavor = data["flavor"]
        index_r = int(data["index_r"])
        comp_list = data["components"]
        strata_list = data["strata"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed resolution datum: {exc}") from exc
    atoms = {"L": LEFSCHETZ}
    try:
        for spec in data.get("atoms", ()):
            e_poly = parse_expr(spec["e"], variables=("u", "v"))
            atom = Atom(spec["name"], int(spec["dim"]), e_poly)
            if atoms.setdefault(atom.name, atom) != atom:
                raise ValidationError(
                    f"atom {atom.name!r} conflicts with an earlier definition")
        components = tuple((c["name"], Fraction(str(c["a"])))
                           for c in comp_list)
    except (KeyError, TypeError) as exc:
        raise ValidationError(
            f"malformed atom or component entry: {exc!r}") from exc
    index = {name: i for i, (name, _) in enumerate(components)}
    strata = {}
    for entry in strata_list:
        try:
            subset = frozenset(index[name] for name in entry["subset"])
        except KeyError as exc:
            raise ValidationError(f"unknown component {exc}") from exc
        if subset in strata:
            raise ValidationError("duplicate stratum entry")
        poly = parse_expr(entry["class"], variables=tuple(atoms))
        strata[subset] = poly_to_class(poly, atoms)
    return ResolutionDatum(flavor, index_r, components, strata)


def load_datum(path: str) -> ResolutionDatum:
    with open(path, "r", encoding="utf-8") as fh:
        return datum_from_dict(json.load(fh))
