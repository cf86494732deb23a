"""Dense univariate Laurent polynomials with integer coefficients.

The motivic sums of ``jets`` and ``stringy`` are polynomials in one
variable, L, or t with t^r = L, with integer coefficients.  ``Dense``
holds such a polynomial as its lowest exponent and a tuple of ints, so
its arithmetic runs on plain ints and lists.  ``MultiPoly`` stays the
general type, crossed by ``from_poly`` and ``to_poly``; a fraction keeps
its parts as ``Dense``, with ``MultiPoly`` views built on first read.

This module also owns the Kronecker-packed format on which the folds of
``stringy`` and the power of ``graded.GradedRing`` run: a polynomial with
int coefficients packs by ``_pack`` to one int, its value at X = 2^B with
B a multiple of 8, and unpacks by ``_digits`` to its balanced base-X
digits, which are its coefficients while each is below 2^(B-1) in size;
``_widen`` moves a packed value to a wider B.
"""

from __future__ import annotations

import math
from array import array
from functools import reduce
from itertools import accumulate

from .rings import ExactDivisionError, MultiPoly, _power_coeffs


class Dense:
    """sum_i coeffs[i] * var^(low + i) with int coefficients; immutable.

    ``coeffs`` has no zero at either end, and the zero polynomial has no
    coefficients and ``low`` 0.  A constant equals the int it holds,
    whatever its ``var``, and hashes like it.  Products are schoolbook,
    ``/`` is exact division over Z and ``gcd`` is the gcd in Z[var].
    """

    __slots__ = ("var", "low", "coeffs")

    def __init__(self, var: str, low: int, coeffs):
        coeffs = tuple(coeffs)
        start, end = 0, len(coeffs)
        while end and not coeffs[end - 1]:
            end -= 1
        while start < end and not coeffs[start]:
            start += 1
        if start or end < len(coeffs):
            coeffs = coeffs[start:end]
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "low", low + start if coeffs else 0)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Dense is immutable")

    # -- conversion ---------------------------------------------------
    @classmethod
    def from_poly(cls, poly: MultiPoly, var: str,
                  multiplier: int = 1) -> "Dense":
        """``multiplier`` times the MultiPoly ``poly``, which must be in
        ``var`` alone (or constant) and have integer coefficients once
        multiplied."""
        if poly.vars not in ((), (var,)):
            raise ValueError(f"not a polynomial in {var} alone: {poly}")
        if not poly.terms:
            return cls(var, 0, ())
        expos = [e[0] if e else 0 for e in poly.terms]
        low = min(expos)
        out = [0] * (max(expos) - low + 1)
        for e, c in zip(expos, poly.terms.values()):
            q, r = divmod(multiplier, c.denominator)
            if r:
                raise ValueError(f"not an integer polynomial: {poly}")
            out[e - low] = c.numerator * q
        return cls(var, low, out)

    def to_poly(self) -> MultiPoly:
        low = self.low
        return MultiPoly((self.var,), {(low + i,): c for i, c in
                                       enumerate(self.coeffs) if c})

    # -- helpers ------------------------------------------------------
    def _coerce(self, x):
        if isinstance(x, Dense):
            return x
        if isinstance(x, int):
            return Dense(self.var, 0, (x,))
        return None

    def is_constant(self) -> bool:
        return not self.low and len(self.coeffs) <= 1

    def _shared_var(self, other: "Dense") -> str:
        if self.var == other.var or other.is_constant():
            return self.var
        if self.is_constant():
            return other.var
        raise ValueError(f"polynomials in {self.var} and {other.var} "
                         f"do not mix")

    # -- arithmetic ---------------------------------------------------
    def _add(self, other, sign: int):
        """self + sign * other, sign = 1 or -1, for a Dense or int other."""
        if isinstance(other, Dense):
            var, blow, b = self._shared_var(other), other.low, other.coeffs
        elif isinstance(other, int):
            var, blow, b = self.var, 0, (other,) if other else ()
        else:
            return NotImplemented
        a, alow = self.coeffs, self.low
        if not b:
            return self
        if not a:
            return Dense(var, blow, b if sign > 0 else [-y for y in b])
        low = min(alow, blow)
        out = [0] * (max(alow + len(a), blow + len(b)) - low)
        i = alow - low
        out[i:i + len(a)] = a
        j = blow - low
        window = out[j:j + len(b)]
        out[j:j + len(b)] = [x + y for x, y in zip(window, b)] if sign > 0 \
            else [x - y for x, y in zip(window, b)]
        return Dense(var, low, out)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        out = self._add(other, -1)
        return out if out is NotImplemented else -out

    def __neg__(self):
        return Dense(self.var, self.low, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return Dense(self.var, self.low, [other * x for x in self.coeffs])
        if not isinstance(other, Dense):
            return NotImplemented
        var = self._shared_var(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return Dense(var, 0, ())
        n = len(a)
        out = [b[0] * x for x in a] + [0] * (len(b) - 1)
        for j in range(1, len(b)):
            c = b[j]
            if c:
                out[j:j + n] = [o + c * x for o, x in zip(out[j:j + n], a)]
        return Dense(var, self.low + other.low, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """The exact quotient in Z[var, 1/var]; raises ExactDivisionError
        when there is none.  By Gauss's lemma there is one whenever
        ``other`` is primitive and divides this polynomial over Q."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        var = self._shared_var(other)
        if not other.coeffs:
            raise ZeroDivisionError("division of polynomial by zero")
        if not self.coeffs:
            return self
        b = other.coeffs
        if len(b) == 2 and b[1] == 1:
            quot = _linear_quotient(self.coeffs, -b[0])
        else:
            quot = _long_quotient(self.coeffs, b)
        return Dense(var, self.low - other.low, quot)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        """The n-th power, n >= 0, by the power recurrence of
        ``rings._power_coeffs``, whose divisions are exact over Z."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative powers are not supported")
        a = self.coeffs
        if n == 0:
            return Dense(self.var, 0, (1,))
        if len(a) <= 1:
            return Dense(self.var, self.low * n, [c ** n for c in a])
        return Dense(self.var, self.low * n,
                     _power_coeffs(a, n, (len(a) - 1) * n + 1))

    def gcd(self, other: "Dense") -> "Dense":
        """The gcd in Z[var], with content 1 and a positive leading
        coefficient: var^min(low) times the gcd of the primitive
        coefficient tuples a and b; with zero, the other one.  Otherwise
        it is the heuristic gcd (GCDHEU; Char, Geddes and Gonnet, 1989) on
        the packed format of this module: at xi = 2^B >= 2 min(|a|, |b|)
        + 2 in max-norms, the balanced digits (``_digits``) of gcd(a(xi),
        b(xi)), both values ``_pack``ed, made primitive, are the gcd g
        once they divide a and b exactly.  The first B is the least
        multiple of 8 with 2^B >= 2 min(|a|, |b|) + 29, sympy's first
        point rounded up, so that a gcd with coefficients a little above
        the norms, such as (L - 1)^3 against norms of 1, needs one point;
        until the digits divide, B grows by 8.  Past xi >= 2 |res(a/g,
        b/g)| |g| they always do."""
        return self._gcd(other)[0]

    def _gcd(self, other: "Dense"):
        """(g, self / g, other / g) with g the gcd; the quotients are None
        when either is zero.  GCDHEU accepts g once both primitive tuples
        divide by it exactly, and keeps those quotients."""
        var = self._shared_var(other)
        low = min((p.low for p in (self, other) if p.coeffs), default=0)
        a, b = _primitive(self.coeffs), _primitive(other.coeffs)
        if not (a and b):
            g = a or b
            return (Dense(var, low, [-c for c in g] if g and g[-1] < 0 else g),
                    None, None)
        # the least multiple of 8 with 2^bits >= 2 min(|a|, |b|) + 29
        need = (2 * min(max(map(abs, a)), max(map(abs, b))) + 28).bit_length()
        bits = -(-need // 8) * 8
        while True:
            g = _digits(math.gcd(_pack(a, bits), _pack(b, bits)), bits)
            while not g[-1]:
                g.pop()
            g = _primitive(g)
            try:
                qa, qb = _long_quotient(a, g), _long_quotient(b, g)
            except ExactDivisionError:
                bits += 8
                continue
            ca, cb = math.gcd(*self.coeffs), math.gcd(*other.coeffs)
            return (Dense(var, low, g),
                    Dense(var, self.low - low, [ca * q for q in qa]),
                    Dense(var, other.low - low, [cb * q for q in qb]))

    def shift(self, k: int) -> "Dense":
        """This polynomial times var^k."""
        return Dense(self.var, self.low + k, self.coeffs)

    # -- comparison ---------------------------------------------------
    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs and self.low == other.low and \
            (self.var == other.var or self.is_constant())

    def __hash__(self):
        if self.is_constant():
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash((self.var, self.low, self.coeffs))

    def __repr__(self):
        return f"Dense({self.to_poly()})"


def _primitive(coeffs) -> list:
    g = math.gcd(*coeffs)
    return [c // g for c in coeffs]


def _pack(coeffs, bits: int) -> int:
    """The tuple's polynomial at 2^bits: Horner's rule on shifts, or two
    halves joined by one shift of m * bits."""
    if len(coeffs) <= 64:
        return reduce(lambda s, c: (s << bits) + c, reversed(coeffs), 0)
    m = len(coeffs) // 2
    return _pack(coeffs[:m], bits) + (_pack(coeffs[m:], bits) << m * bits)


# byte b to b ^ 0x80: a digit d in [-128, 128) stored as the byte d + 128
# becomes the byte of d in two's complement
_SIGNED = bytes(b ^ 0x80 for b in range(256))


def _digits(value: int, bits: int) -> list:
    """The balanced base-2^bits digits of value, lowest first, each in
    [-2^(bits-1), 2^(bits-1)), bits a positive multiple of 8: the
    coefficients of the one polynomial with coefficients in that range
    whose value at 2^bits is value.  One to_bytes pass of value plus
    2^(bits-1) at every digit, which makes each digit nonnegative; at
    bits = 8 the bytes are read back as signed bytes in one pass, and
    wider digits by one from_bytes call each."""
    size, n = bits // 8, abs(value).bit_length() // bits + 2
    half = 1 << bits - 1
    raw = (value + int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")
           ).to_bytes(n * size, "little")
    if size == 1:
        return array("b", raw.translate(_SIGNED)).tolist()
    return [int.from_bytes(raw[i:i + size], "little") - half
            for i in range(0, n * size, size)]


def _widen(value: int, bits: int, wide: int) -> int:
    """value, a polynomial packed at 2^bits, packed at 2^wide instead,
    wide >= bits both multiples of 8: its balanced digits (``_digits``)
    are read in the same to_bytes pass, each spread from bits / 8 to
    wide / 8 bytes, and the offset that made them nonnegative is taken
    off at 2^wide."""
    size, n = bits // 8, abs(value).bit_length() // bits + 2
    half, pad = bytes(size - 1) + b"\x80", bytes((wide - bits) // 8)
    raw = (value + int.from_bytes(half * n, "little")
           ).to_bytes(n * size, "little")
    return int.from_bytes(pad.join([raw[i:i + size] for i in
                                    range(0, n * size, size)]), "little") \
        - int.from_bytes((half + pad) * n, "little")


def _long_quotient(a, b) -> list:
    """The quotient of the coefficient tuples a / b over Z, by long
    division from the top; raises ExactDivisionError on a remainder."""
    a, db, lead = list(a), len(b), b[-1]
    if len(a) < db:
        raise ExactDivisionError("nonzero remainder in exact division")
    quot = [0] * (len(a) - db + 1)
    for k in reversed(range(len(quot))):
        q, rem = divmod(a[k + db - 1], lead)
        if rem:
            raise ExactDivisionError("nonzero remainder in exact division")
        quot[k] = q
        if q:
            for i in range(db - 1):
                a[k + i] -= q * b[i]
    if any(a[:db - 1]):
        raise ExactDivisionError("nonzero remainder in exact division")
    return quot


def _linear_quotient(a, c: int) -> list:
    """The quotient of the coefficient tuple a by var - c, in one pass
    from the top (Horner's synthetic division): each quotient coefficient
    is c times the one above it plus a coefficient of a, a running sum
    when c = 1; the last sum is the remainder a(c), which must be 0."""
    sums = list(accumulate(reversed(a), None if c == 1 else
                           lambda s, x: s * c + x))
    if sums[-1]:
        raise ExactDivisionError("nonzero remainder in exact division")
    sums.pop()
    sums.reverse()
    return sums
