"""Exact arithmetic foundation: multivariate polynomials, truncated power
series and rational functions over arbitrary-precision rationals.

All values are immutable; every operation returns a new object.  A
polynomial coefficient is canonical: an ``int`` when it is integral, a
``fractions.Fraction`` otherwise, so equality testing is always exact
structural comparison and integer work stays on ints.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _scalar(x):
    """A coefficient in canonical form: an int when it is integral, a
    Fraction otherwise; anything else, a float included, is a TypeError."""
    if type(x) is int:
        return x
    if isinstance(x, (int, Fraction)):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"not a rational scalar: {x!r}")


def _div(a, b):
    """a / b, exact: an int over an int is an int when it divides, else a
    Fraction, never a float; any other pair is plain ``/``."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def exp_coeffs(a, order: int) -> list:
    """The coefficients a^j / j! of e^(a z) for j = 0..order; a is a
    rational or a polynomial."""
    out = [Fraction(1)]
    for j in range(1, order + 1):
        out.append(out[-1] * a / j)
    return out


class MultiPoly:
    """Multivariate polynomial with rational coefficients, each an int when
    it is integral and a Fraction otherwise (``_scalar``).

    Variables are kept sorted and unused variables are dropped, so two
    polynomials are equal iff their internal representations coincide.
    Exponents are normally nonnegative; negative exponents are tolerated
    structurally (Laurent extension, used for the Lefschetz variable).
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        clean = {tuple(e): s for e, c in terms.items() if (s := _scalar(c))}
        # drop variables that never occur with a nonzero exponent, and sort
        # the rest; distinct names keep distinct exponent tuples distinct
        used = [i for i in range(len(variables)) if any(e[i] for e in clean)]
        if len(used) != len(variables) or list(variables) != sorted(variables):
            used.sort(key=variables.__getitem__)
            clean = {tuple(e[i] for i in used): c for e, c in clean.items()}
            variables = tuple(variables[i] for i in used)
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, c) -> "MultiPoly":
        return cls((), {(): c})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): 1})

    @classmethod
    def monomial(cls, powers: dict, coeff=1) -> "MultiPoly":
        names = tuple(sorted(powers))
        return cls(names, {tuple(powers[n] for n in names): coeff})

    # -- helpers ------------------------------------------------------
    @staticmethod
    def _coerce(x):
        if isinstance(x, MultiPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return MultiPoly.const(x)
        return None

    def _align(self, other):
        """Shared variables and copies of both term dicts over them."""
        if self.vars == other.vars:
            return self.vars, dict(self.terms), dict(other.terms)
        names = tuple(sorted(set(self.vars) | set(other.vars)))

        def remap(poly):
            idx = [names.index(v) for v in poly.vars]
            out = {}
            for expo, coeff in poly.terms.items():
                new = [0] * len(names)
                for i, e in zip(idx, expo):
                    new[i] = e
                out[tuple(new)] = coeff
            return out

        return names, remap(self), remap(other)

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self):
        """The constant term (all exponents zero), an int or a Fraction."""
        return self.terms.get((0,) * len(self.vars), 0)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        names, a, b = self._align(other)
        for expo, coeff in b.items():
            a[expo] = a.get(expo, 0) + coeff
        return MultiPoly(names, a)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        names, a, b = self._align(other)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly(names, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of polynomial by zero")
            return MultiPoly(self.vars, {e: _div(c, other)
                                         for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.div_exact(other)

    def __pow__(self, n: int):
        """The n-th power: a monomial scales its exponents, a base in one
        variable powers D times it as a ``Dense`` over Z (D the lcm of its
        denominators) and divides by D^n, any other binary powering."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.monomial_inverse() ** (-n)
        if len(self.terms) == 1:
            (expo, coeff), = self.terms.items()
            return MultiPoly(self.vars,
                             {tuple(e * n for e in expo): coeff ** n})
        if n == 0:
            return MultiPoly.const(1)
        if len(self.vars) == 1:
            a, d = _cleared(self, self.vars)
            return _from_dense(self.vars, a ** n, 1, d ** n)
        # binary powering from the lowest set bit, with no square after
        # the highest one
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def monomial_inverse(self) -> "MultiPoly":
        """Inverse of a single-term polynomial (Laurent)."""
        if len(self.terms) != 1:
            raise ExactDivisionError("only monomials are invertible")
        (expo, coeff), = self.terms.items()
        return MultiPoly(self.vars, {tuple(-e for e in expo): _div(1, coeff)})

    # -- comparison ---------------------------------------------------
    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        # a constant equals its scalar, so it hashes like it
        h = self._hash
        if h is None:
            h = hash(self.constant_value()) if not self.vars else \
                hash((self.vars, tuple(sorted(self.terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    # -- substitution -------------------------------------------------
    def substitute_map(self, mapping: dict) -> "MultiPoly":
        """Substitute every named variable at once: a value that contains
        a substituted name keeps it, as in a ring morphism."""
        names = [n for n in self.vars if n in mapping]
        if not names:
            return self
        values = {n: self._coerce(mapping[n]) for n in names}
        keep = [i for i, n in enumerate(self.vars) if n not in mapping]
        rest = tuple(self.vars[i] for i in keep)
        moved = [(n, self.vars.index(n)) for n in names]
        out_vars = tuple(sorted(set(rest).union(
            *(value.vars for value in values.values()))))
        rest_place = [out_vars.index(v) for v in rest]
        one = MultiPoly.const(1)
        powers = {}
        out = {}
        for expo, coeff in self.terms.items():
            factor = one
            for n, i in moved:
                if expo[i]:
                    key = (n, expo[i])
                    if key not in powers:
                        powers[key] = values[n] ** expo[i]
                    factor = powers[key] if factor is one \
                        else factor * powers[key]
            # coeff * (kept part of the monomial) * factor, added into one
            # dict: summing MultiPolys would copy the sum once per term
            base = [0] * len(out_vars)
            for j, i in zip(rest_place, keep):
                base[j] = expo[i]
            place = [out_vars.index(v) for v in factor.vars]
            for e, c in factor.terms.items():
                new = base[:]
                for j, x in zip(place, e):
                    new[j] += x
                new = tuple(new)
                out[new] = out.get(new, 0) + coeff * c
        return MultiPoly(out_vars, out)

    def coefficients_in(self, name: str) -> dict:
        """Split into {power: polynomial in the remaining variables}."""
        if name not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets = {}
        for expo, coeff in self.terms.items():
            buckets.setdefault(expo[i], {})[expo[:i] + expo[i + 1:]] = coeff
        return {p: MultiPoly(rest, t) for p, t in buckets.items()}

    # -- division -----------------------------------------------------
    def _lead(self):
        # graded lex leading term
        expo = max(self.terms, key=lambda e: (sum(e), e))
        return expo, self.terms[expo]

    def div_exact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division; raises ExactDivisionError on a remainder."""
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division of polynomial by zero")
        if any(e < 0 for expo in list(self.terms) + list(divisor.terms) for e in expo):
            raise ExactDivisionError("exact division needs nonnegative exponents")
        names, rem, div = self._align(divisor)
        dl_expo = max(div, key=lambda e: (sum(e), e))
        dl_coeff = div[dl_expo]
        quot = {}
        while rem:
            r_expo = max(rem, key=lambda e: (sum(e), e))
            r_coeff = rem[r_expo]
            q_expo = tuple(x - y for x, y in zip(r_expo, dl_expo))
            if any(e < 0 for e in q_expo):
                raise ExactDivisionError("nonzero remainder in exact division")
            q_coeff = _div(r_coeff, dl_coeff)
            quot[q_expo] = quot.get(q_expo, 0) + q_coeff
            for d_expo, d_coeff in div.items():
                key = tuple(x + y for x, y in zip(q_expo, d_expo))
                val = rem.get(key, 0) - q_coeff * d_coeff
                if val == 0:
                    rem.pop(key, None)
                else:
                    rem[key] = val
        return MultiPoly(names, quot)

    def laurent_div_exact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division in the Laurent ring, negative exponents allowed
        on either side.  Each side's monomial factor comes out first; no
        variable divides what is left of the divisor, so what is left of
        the dividend has a Laurent quotient only if it has a polynomial one."""
        names, terms, div = self._align(self._coerce(divisor))

        def split(terms):
            low = [min((e[i] for e in terms), default=0)
                   for i in range(len(names))]
            return low, MultiPoly(names, {
                tuple(x - y for x, y in zip(e, low)): c
                for e, c in terms.items()})

        (a, top), (b, bottom) = split(terms), split(div)
        return top.div_exact(bottom) * MultiPoly.monomial(
            {name: x - y for name, x, y in zip(names, a, b)})

    # -- content / gcd (univariate only) ------------------------------
    def content_normalized(self):
        """(unit, primitive) with primitive having integer content 1 and
        positive leading coefficient in graded lex order."""
        if self.is_zero():
            return 1, self
        coeffs = list(self.terms.values())
        num_gcd = math.gcd(*(c.numerator for c in coeffs))
        den_lcm = math.lcm(*(c.denominator for c in coeffs))
        unit = _div(num_gcd, den_lcm)
        if self._lead()[1] < 0:
            unit = -unit
        return unit, self / unit

    def gcd_univariate(self, other: "MultiPoly"):
        """Monic gcd when both polynomials involve the same single variable
        (or are constant); returns None when not applicable."""
        names = set(self.vars) | set(other.vars)
        if len(names) > 1:
            return None
        if self.is_zero():
            return other.content_normalized()[1]
        if other.is_zero():
            return self.content_normalized()[1]
        if not names:
            return MultiPoly.const(1)
        names = tuple(names)
        a, b = _cleared(self, names)[0], _cleared(other, names)[0]
        if a.low < 0 or b.low < 0:
            return None
        g = a.gcd(b)
        return _from_dense(names, g, 1, g.coeffs[-1])

    # -- serialization ------------------------------------------------
    def __str__(self):
        return _poly_text(self.vars, self.terms)

    def __repr__(self):
        return f"MultiPoly({self})"


def _monomial_text(names, expo) -> str:
    """The monomial with these exponents, as ``x^2*y``."""
    return "*".join(v if e == 1 else f"{v}^{e}"
                    for v, e in zip(names, expo) if e != 0)


def _poly_text(names, terms: dict, key=None) -> str:
    """The polynomial with these {exponents: coefficient} terms over the
    variables ``names`` as text, its terms sorted by ``key(exponents)``,
    by default by total degree and then by exponents."""
    if not terms:
        return "0"
    parts = []
    for expo in sorted(terms, key=key or (lambda e: (sum(e), e))):
        coeff = terms[expo]
        mono = _monomial_text(names, expo)
        if not mono:
            body = _frac_str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{_frac_str(abs(coeff))}*{mono}"
        parts.append(("- " if coeff < 0 else "+ ") + body)
    text = " ".join(parts)
    return "-" + text[2:] if text.startswith("- ") else text[2:]


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------
# one-variable polynomials over Z, for the gcd and the power of a
# one-variable base

def _cleared(poly: MultiPoly, names: tuple):
    """(D * poly as a Dense, D) for a polynomial in the variables
    ``names``, at most one; D is the lcm of its coefficient denominators."""
    d = math.lcm(*(c.denominator for c in poly.terms.values()))
    return Dense.from_poly(poly, names[0] if names else "", d), d


def _from_dense(names: tuple, p, num: int, den: int) -> MultiPoly:
    """num/den times the Dense p as a MultiPoly in ``names``, which is
    (var,), or () for a constant p."""
    return MultiPoly(names, {(p.low + i,)[:len(names)]: _div(c * num, den)
                             for i, c in enumerate(p.coeffs) if c})


def _parts_in(poly: MultiPoly, v: str, var: str = "", r: int = 1,
              multiplier: int = 1) -> dict:
    """multiplier * poly, whose coefficients it makes ints, as {monomial in
    the variables other than v, as (name, exponent) pairs: its coefficient
    in v, a Dense in var (v by default) with v -> var^r}."""
    i = poly.vars.index(v) if v in poly.vars else None
    rows = {}
    for expo, c in poly.terms.items():
        key = tuple((n, e) for j, (n, e) in enumerate(zip(poly.vars, expo))
                    if e and j != i)
        rows.setdefault(key, {})[0 if i is None else r * expo[i]] = \
            c.numerator * (multiplier // c.denominator)
    return {key: Dense(var or v, min(row), [row.get(k, 0) for k in range(
        min(row), max(row) + 1)]) for key, row in rows.items()}


# ---------------------------------------------------------------------
# coefficient-ring glue shared by TruncSeries / RationalFunction

def coeff_div_exact(value, a):
    """value / a where the quotient is known to exist in the coefficient
    ring: scalar division when a is a scalar or a constant polynomial,
    exact (Laurent) polynomial division when a is any other polynomial,
    and plain ``/`` for any other coefficient, such as a
    RationalFunction.  A quotient of two ints is an int when it divides."""
    if isinstance(a, MultiPoly):
        if not a.is_constant():
            return MultiPoly._coerce(value).laurent_div_exact(a)
        a = a.constant_value()
    if a == 0:
        raise ExactDivisionError("division by a zero coefficient")
    return _div(value, a)


def _power_coeffs(a, n: int, length: int) -> list:
    """The first ``length`` coefficients g_k of (a_0 + a_1 z + ...)^n for
    n >= 1 and a_0 != 0, by the J.C.P. Miller recurrence (Knuth, TAOCP
    vol. 2, section 4.7), which follows from f g' = n f' g:

        k a_0 g_k = sum_{j>=1} ((n+1) j - k) a_j g_(k-j),  g_0 = a_0^n.

    The sum runs over the nonzero a_j, so a base with m of them costs
    O(length m) coefficient products whatever n is.  The division by
    k a_0 is exact (``coeff_div_exact``): the quotient is a coefficient of
    the power, hence a polynomial even when a_0 is not a unit, such as
    1 + y, and an int when every a_j is an int."""
    a0 = a[0]
    terms = [(j, c) for j, c in enumerate(a) if j and c != 0]
    g = [a0 ** n]
    for k in range(1, length):
        acc = 0  # adds to every coefficient type, and keeps ints ints
        for j, c in terms:
            if j > k:
                break
            acc = acc + c * g[k - j] * ((n + 1) * j - k)
        g.append(coeff_div_exact(acc, a0 * k))
    return g


class TruncSeries:
    """Truncated univariate formal power series, exact through z^order.

    Coefficients may be Fractions, MultiPolys or RationalFunctions; all
    arithmetic is truncated at the stored order and never reads beyond it.
    """

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var: str, order: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list must have length order + 1")
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def from_coeffs(cls, var, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        coeffs += [0] * (order + 1 - len(coeffs))
        return cls(var, order, coeffs[: order + 1])

    @classmethod
    def zero(cls, var, order):
        return cls(var, order, [0] * (order + 1))

    @classmethod
    def one(cls, var, order):
        return cls.from_coeffs(var, [Fraction(1)], order)

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def constant_term(self):
        return self.coeffs[0]

    def truncate(self, order: int) -> "TruncSeries":
        if order <= self.order:
            return TruncSeries(self.var, order, self.coeffs[: order + 1])
        return TruncSeries(self.var, order,
                           list(self.coeffs) + [0] * (order - self.order))

    def map_coeffs(self, fn) -> "TruncSeries":
        return TruncSeries(self.var, self.order, [fn(c) for c in self.coeffs])

    def _check(self, other):
        if self.var != other.var or self.order != other.order:
            raise ValueError("series must share variable and truncation order")

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            cs = list(self.coeffs)
            cs[0] = cs[0] + other
            return TruncSeries(self.var, self.order, cs)
        self._check(other)
        return TruncSeries(self.var, self.order,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return self.map_coeffs(lambda c: -c)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return self.map_coeffs(lambda c: c * other)
        self._check(other)
        out = [0] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if isinstance(a, (int, Fraction)) and a == 0:
                continue
            for j in range(self.order + 1 - i):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return TruncSeries(self.var, self.order, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.var != other.var or self.order != other.order:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __pow__(self, n: int):
        """The n-th power, truncated at the series' order: with
        f = z^v (a_v + a_(v+1) z + ...) and a_v != 0, the power recurrence
        of ``_power_coeffs`` on a_v, a_(v+1), ... shifted by v n.
        Negative n powers the inverse."""
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            return TruncSeries.one(self.var, self.order)
        out = [0] * (self.order + 1)
        v = next((k for k, c in enumerate(self.coeffs) if c != 0), None)
        if v is not None and v * n <= self.order:
            out[v * n:] = _power_coeffs(self.coeffs[v:], n,
                                        self.order - v * n + 1)
        return TruncSeries(self.var, self.order, out)

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """Substitute ``inner`` (zero constant term) into this series."""
        self._check(inner)
        if inner.coeffs[0] != 0:
            raise ValueError("inner series must have zero constant term")
        out = TruncSeries.from_coeffs(self.var, [self.coeffs[0]], self.order)
        power = TruncSeries.one(self.var, self.order)
        for k in range(1, self.order + 1):
            power = power * inner
            out = out + power * self.coeffs[k]
        return out

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse; the constant term must be a unit: a
        nonzero scalar or RationalFunction, or a monomial."""
        c = self.coeffs[0]
        inv0 = c.monomial_inverse() if isinstance(c, MultiPoly) else _div(1, c)
        out = [inv0] + [0] * self.order
        for n in range(1, self.order + 1):
            acc = 0
            for k in range(1, n + 1):
                acc = acc + self.coeffs[k] * out[n - k]
            out[n] = -(inv0 * acc)
        return TruncSeries(self.var, self.order, out)

    def exp(self) -> "TruncSeries":
        if self.coeffs[0] != 0:
            raise ValueError("exp needs zero constant term")
        return TruncSeries(self.var, self.order,
                           exp_coeffs(1, self.order)).compose(self)

    def log(self) -> "TruncSeries":
        if not self.coeffs[0] == 1:
            raise ValueError("log needs constant term 1")
        # log(1 + u) = u - u^2/2 + u^3/3 - ...
        return TruncSeries(self.var, self.order, [0] + [
            Fraction((-1) ** (k + 1), k) for k in range(1, self.order + 1)
        ]).compose(self - 1)

    def scale_variable(self, a) -> "TruncSeries":
        """Substitute z -> a*z, with a a coefficient-ring element."""
        cs = [self.coeffs[0]]
        power = 1
        for c in self.coeffs[1:]:
            power = power * a
            cs.append(c * power)
        return TruncSeries(self.var, self.order, cs)

    def evaluate(self, value):
        """Evaluate at a nilpotent/truncating ring element via Horner."""
        out = self.coeffs[self.order]
        for k in range(self.order - 1, -1, -1):
            out = out * value + self.coeffs[k]
        return out

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = "" if k == 0 else (self.var if k == 1 else f"{self.var}^{k}")
            cs = str(c) if not isinstance(c, Fraction) else _frac_str(c)
            if "+" in cs or "-" in cs[1:]:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono and cs != "1" else (mono or cs))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"TruncSeries[{self.var}; O({self.var}^{self.order + 1})]({self})"


class RationalFunction:
    """Quotient of polynomials in its unique lowest terms, held as parts:
    a primitive int ``Dense`` denominator in one variable v, with a
    nonzero constant term and a positive leading coefficient (1, with v
    "", when constant), per monomial in the other variables an int
    Laurent ``Dense`` in v, and a positive int scale prime to them.  So
    two fractions are equal iff their parts are.  A denominator in several
    variables, its monomial factor moved up, raises ValueError.
    ``numerator`` and ``denominator`` are MultiPoly views, built on first
    read."""

    __slots__ = ("_parts", "_den", "_scale", "_views")

    def __init__(self, numerator, denominator=1):
        numerator, denominator = _to_poly(numerator), _to_poly(denominator)
        if denominator.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        shift = {name: -min(e[i] for e in denominator.terms)
                 for i, name in enumerate(denominator.vars)}
        if any(shift.values()):
            unit = MultiPoly.monomial(shift)
            numerator, denominator = numerator * unit, denominator * unit
        if len(denominator.vars) > 1:
            raise ValueError(f"denominator in several variables: {denominator}")
        v = denominator.vars[0] if denominator.vars else ""
        scale = math.lcm(*(c.denominator for c in numerator.terms.values()))
        dd = math.lcm(*(c.denominator for c in denominator.terms.values()))
        self._reduce(_parts_in(numerator, v, multiplier=scale * dd),
                     Dense.from_poly(denominator, v, dd), scale)

    @classmethod
    def _of_parts(cls, parts: dict, den, scale: int = 1):
        """sum(monomial * part) / (scale * den), each monomial a sorted
        tuple of (name, exponent) pairs, each part an int Laurent ``Dense``
        in den's variable, den an int Dense with a nonzero constant term."""
        self = object.__new__(cls)
        self._reduce(parts, den, scale)
        return self

    def _reduce(self, parts: dict, den, scale: int):
        # a common factor lies in v alone: the gcd of den with every part,
        # each stripped of its power of v; one part keeps its quotient
        parts = {m: p for m, p in parts.items() if p.coeffs}
        if not parts:
            den = Dense("", 0, (1,))
        elif len(parts) == 1 and not den.is_constant():
            (m, p), = parts.items()
            _, den, q = den._gcd(p.shift(-p.low))
            parts = {m: q.shift(p.low)}
        elif not den.is_constant():
            g = den
            for p in parts.values():
                g = g.gcd(p.shift(-p.low))
            den, parts = den / g, {m: p / g for m, p in parts.items()}
        c = math.gcd(*den.coeffs) * (1 if den.coeffs[-1] > 0 else -1)
        den = Dense(den.var if len(den.coeffs) > 1 else "", 0,
                    [x // c for x in den.coeffs])
        scale *= c
        g = math.gcd(scale, *(x for p in parts.values() for x in p.coeffs)) \
            * (1 if scale > 0 else -1)
        parts = {m: Dense(p.var, p.low, [x // g for x in p.coeffs])
                 for m, p in parts.items()}
        if not den.var:  # every variable moves into the monomials
            parts = {tuple(sorted(m + ((p.var, k),))) if k else m:
                     Dense("", 0, (x,)) for m, p in parts.items()
                     for k, x in enumerate(p.coeffs, p.low) if x}
        for name, value in (("_parts", parts), ("_den", den),
                            ("_scale", scale // g), ("_views", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    def _terms(self):
        """The numerator's variables and {exponents: coefficient} terms."""
        v = self._den.var
        names = tuple(sorted({n for m in self._parts for n, _ in m} |
                             ({v} if v else set())))
        terms = {}
        for m, p in self._parts.items():
            e = dict(m)
            for k, c in enumerate(p.coeffs, p.low):
                if c:
                    e[v] = k
                    terms[tuple(e.get(n, 0) for n in names)] = \
                        _div(c, self._scale)
        return names, terms

    def _view(self, i: int) -> MultiPoly:
        if self._views is None:
            object.__setattr__(self, "_views", (MultiPoly(*self._terms()),
                                                self._den.to_poly()))
        return self._views[i]

    numerator = property(lambda self: self._view(0))
    denominator = property(lambda self: self._view(1))

    @staticmethod
    def _coerce(x):
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, (int, Fraction, MultiPoly)):
            return RationalFunction(x)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.numerator, self.denominator)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.numerator * other.numerator,
                                self.denominator * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.reciprocal()

    def reciprocal(self):
        return RationalFunction(self.denominator, self.numerator)

    def __pow__(self, n: int):
        if n < 0:
            return self.reciprocal() ** (-n)
        return RationalFunction(self.numerator ** n, self.denominator ** n)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._scale == other._scale and self._den == other._den \
            and self._parts == other._parts

    def __hash__(self):
        # a fraction equal to a polynomial hashes like it
        if not self._den.var:
            return hash(self.numerator)
        return hash((self._den, self._scale, frozenset(self._parts.items())))

    def as_polynomial(self) -> MultiPoly:
        """The Laurent polynomial equal to this fraction; raises
        ExactDivisionError when there is none."""
        if not self._den.is_constant():
            raise ExactDivisionError(f"not a Laurent polynomial: {self}")
        return self.numerator

    def substitute(self, name, value) -> "RationalFunction":
        return RationalFunction(self.numerator.substitute_map({name: value}),
                                self.denominator.substitute_map({name: value}))

    def _text(self, rename=None) -> str:
        """The fraction as text, each side's (names, terms) renamed first."""
        d = self._den
        sides = [self._terms()] + ([] if d.is_constant() else [((d.var,), {
            (k,): c for k, c in enumerate(d.coeffs) if c})])
        num, *den = [_poly_text(*(rename(*s) if rename else s))
                     for s in sides]
        return f"({num}) / ({den[0]})" if den else num

    __str__ = _text

    def __repr__(self):
        return f"RationalFunction({self})"


def _to_poly(x) -> MultiPoly:
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return MultiPoly.const(x)
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


from .dense import Dense  # noqa: E402  (dense builds on MultiPoly)
