"""Seeded query lists for the three workloads.

A workload is a list of queries that one timed pass runs in order.  Every
query carries the reference values it is checked against, computed by
``oracle`` and never by genera.  Query sizes sit on fixed grids, so a pass
costs the same whatever the seed; the seed draws what does not change
the cost (the order of the pass, of factors and of coordinates, which
resolution comes first, the index-2 stratum classes, the degrees of hrr).
"""

from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

SERIES = ("chern", "todd", "lgenus", "ahat", "hirzebruch")
Y_POINTS = (2, -3, 5)
L_POINTS = (2, 3, 5)
S_POINTS = (2, 3)
Q_POINTS = (2, 3, 7)


@dataclass
class Query:
    """One query: CLI arguments (``argv``) or a library call (``call``),
    and how to compute its reference values.  Every query must exit 0."""

    kind: str
    argv: tuple = ()
    call: tuple = ()
    reference: Callable[[], dict] = dict

    @functools.cached_property
    def expect(self) -> dict:
        """The reference values, computed on first use: they are not part
        of the inputs that set-up prepares."""
        return self.reference()


def build(workload: str, seed: int, workdir: str):
    """(pass queries, warm-up queries) for a workload; input files go to
    ``workdir``."""
    return WORKLOADS[workload](random.Random(seed), workdir)


def _shuffled(rng, queries):
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------
# genus_tables


def _genus(series: str, n: int) -> Query:
    points = Y_POINTS if series == "hirzebruch" else (0,)
    return Query("genus", ("genus", "--series", series, "--n", str(n)),
                 reference=lambda: {
                     y: oracle.genus_closed_form(series, n, Fraction(y))
                     for y in points})


def _hrr(n: int, d: int) -> Query:
    return Query("hrr", ("hrr", "--n", str(n), "--d", str(d),
                         "--output", "json"),
                 reference=lambda: {"sections": oracle.hrr_sections(n, d)})


def _ty(n: int) -> Query:
    return Query("ty", ("ty", "--n", str(n)),
                 reference=lambda: {
                     y: oracle.genus_closed_form("hirzebruch", n, Fraction(y))
                     for y in Y_POINTS})


def genus_tables(rng, workdir):
    # The cost of a genus query steps with n (binary powering of the
    # series), so n runs over a fixed grid and every pass costs the same
    # whatever the seed; the seed picks the degrees d of hrr and the
    # order of the pass.  n = 17 exceeds the default order 16, so that
    # series is built at order n.
    queries = [_genus(series, n) for series in SERIES[:4] for n in range(18)]
    queries += [_genus("hirzebruch", n) for n in range(1, 18, 2)]
    queries += [_ty(n) for n in range(10)]
    queries += [_hrr(n, rng.randint(0, 8)) for n in range(12)]
    warmup = [_genus(s, 6) for s in SERIES] + [_hrr(4, 3), _ty(5)]
    return _shuffled(rng, queries), warmup


# ---------------------------------------------------------------------
# stringy_compare
#
# A resolution of one factor: discrepancies of its components and, for
# every subset of components, the class of the open stratum as integer
# coefficients in L.

RESOLUTIONS = {
    "C2": (
        ((), {(): (0, 0, 1)}),                                   # identity
        ((1,), {(): (-1, 0, 1), (0,): (1, 1)}),                  # point blow-up
        ((1, 2), {(): (-1, 0, 1), (0,): (0, 1), (1,): (0, 1),    # and again
                  (0, 1): (1,)}),                                # on E
    ),
    "C3": (
        ((), {(): (0, 0, 0, 1)}),
        ((2,), {(): (-1, 0, 0, 1), (0,): (1, 1, 1)}),
        ((2, 4), {(): (-1, 0, 0, 1), (0,): (0, 1, 1), (1,): (0, 0, 1),
                  (0, 1): (1, 1)}),
    ),
    "A1": (                                # the quadric cone C^2/{1, -1}
        ((0,), {(): (-1, 0, 1), (0,): (1, 1)}),                  # crepant
        ((0, 1), {(): (-1, 0, 1), (0,): (0, 1), (1,): (0, 1),    # blown up
                  (0, 1): (1,)}),                                # on E
    ),
}


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _class_text(coeffs) -> str:
    """A class in L from its coefficients, as input text."""
    parts = []
    for i, c in enumerate(coeffs):
        if c:
            mono = "" if i == 0 else "L" if i == 1 else f"L^{i}"
            body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else \
                mono or str(abs(c))
            parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _product(resolutions):
    """Discrepancies and strata of a product of factor resolutions."""
    comps, strata = (), {(): (1,)}
    for a_list, fstrata in resolutions:
        k = len(comps)
        new = {}
        for s1, c1 in strata.items():
            for s2, c2 in fstrata.items():
                new[s1 + tuple(k + i for i in s2)] = _poly_mul(c1, c2)
        comps, strata = comps + tuple(Fraction(a) for a in a_list), new
    return comps, strata


def _write_datum(path, comps, strata, r):
    names = [f"E{i + 1}" for i in range(len(comps))]
    data = {
        "flavor": "stringy",
        "index_r": r,
        "components": [{"name": n, "a": str(a)} for n, a in zip(names, comps)],
        "strata": [{"subset": [names[i] for i in sorted(subset)],
                    "class": _class_text(coeffs)}
                   for subset, coeffs in sorted(strata.items())],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


# Pairs to compare: (factor, resolution of the first, of the second) for
# each factor of the product.  The cost of a compare grows like 4^k in the
# number k of components, so the pairs are fixed and the seed orders the
# factors and picks which resolution comes first.
PAIRS = (
    (("C2", 0, 1),),                                      # k = 0, 1
    (("C3", 0, 1),),                                      # 0, 1
    (("C2", 1, 0), ("C2", 0, 1)),                         # 1, 1
    (("A1", 0, 1), ("C2", 0, 0)),                         # 1, 2
    (("A1", 0, 1), ("C2", 1, 0)),                         # 2, 2
    (("C3", 0, 2), ("C2", 1, 1)),                         # 1, 3
    (("C3", 1, 2), ("A1", 0, 0)),                         # 2, 3
    (("C3", 1, 2), ("C3", 2, 1)),                         # 3, 3
    (("A1", 0, 1), ("A1", 0, 1), ("C2", 0, 0)),           # 2, 4
    (("A1", 1, 0), ("A1", 0, 1), ("C2", 1, 1)),           # 4, 4
    (("A1", 0, 1), ("A1", 0, 1), ("C2", 1, 1)),           # 3, 5
    (("A1", 0, 1), ("A1", 1, 1), ("C2", 1, 2)),           # 4, 6
)


def _compare(rng, workdir, index, pair):
    """A pair of resolutions of one product, factors in a seeded order."""
    pair = list(pair)
    rng.shuffle(pair)
    first = [RESOLUTIONS[f][i] for f, i, _ in pair]
    second = [RESOLUTIONS[f][j] for f, _, j in pair]
    if rng.random() < 0.5:
        first, second = second, first
    paths = []
    for side, res in (("a", first), ("b", second)):
        path = os.path.join(workdir, f"pair{index}{side}.json")
        _write_datum(path, *_product(res), 1)
        paths.append(path)
    return Query("compare", ("stringy", "compare", *paths, "--output", "json"),
                 reference=lambda: _compare_reference(first))


def _compare_reference(resolutions):
    comps, strata = _product(resolutions)

    def at(x):
        return oracle.stratum_sum(comps, strata, Fraction(x), 1)

    return {
        "integral": {("L", x): at(x) for x in L_POINTS},
        "E-function": {("uv", s): at(s * s) for s in S_POINTS},
        "chi_y": {("y", y): at(-y) for y in Y_POINTS[:2]},
        # the Euler number of a product is the product over its factors
        "euler": {(): _euler_product(resolutions)},
    }


def _euler_product(resolutions):
    out = Fraction(1)
    for a_list, strata in resolutions:
        out *= oracle.stringy_euler([Fraction(a) for a in a_list], strata)
    return out


# Discrepancies of the index-2 data: each set has a half-integral member,
# so L^(1/2) is needed.  The seed orders the components and picks the
# stratum classes, whose degrees are fixed.
INDEX2 = ((Fraction(1, 2),),
          (Fraction(-1, 2), Fraction(1)),
          (Fraction(1, 2), Fraction(3, 2)),
          (Fraction(-1, 2), Fraction(0), Fraction(1, 2)),
          (Fraction(1, 2), Fraction(1), Fraction(3, 2)),
          (Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(3, 2)))


def _index2(rng, workdir, index, discrepancies):
    """Index-2 data of dimension 3 with seeded stratum classes, and its
    integral / efun / euler queries (compare rejects index 2)."""
    comps = list(discrepancies)
    rng.shuffle(comps)
    strata = {}
    for subset in oracle.all_subsets(len(comps)):
        coeffs = [rng.randint(1, 2) for _ in range(max(3 - len(subset), 0) + 1)]
        if not subset:
            coeffs[-1] = 1
        strata[subset] = tuple(coeffs)
    path = os.path.join(workdir, f"index2_{index}.json")
    _write_datum(path, comps, strata, 2)

    def values():
        return {("t", s): oracle.stratum_sum(comps, strata, Fraction(s), 2)
                for s in S_POINTS}

    return [
        Query("integral", ("stringy", "integral", path), reference=values),
        Query("efun", ("stringy", "efun", path), reference=values),
        Query("euler", ("stringy", "euler", path),
              reference=lambda: {(): oracle.stringy_euler(comps, strata)}),
    ]


def stringy_compare(rng, workdir):
    queries = [_compare(rng, workdir, i, pair) for i, pair in enumerate(PAIRS)]
    # two data per set of discrepancies, so that the median query time
    # falls among many queries of about the same cost
    for i, discrepancies in enumerate(INDEX2 + INDEX2):
        queries += _index2(rng, workdir, i, discrepancies)
    warm = random.Random(0)
    warmup = [_compare(warm, workdir, "w", PAIRS[8])] + \
        _index2(warm, workdir, "w", INDEX2[3])
    return _shuffled(rng, queries), warmup


# ---------------------------------------------------------------------
# jets_oracle


def _oracle(exponents, pmax: int) -> Query:
    return Query("oracle", ("jets", "oracle", "--dim", str(len(exponents)),
                            "--exponents", ",".join(map(str, exponents)),
                            "--pmax", str(pmax), "--output", "json"),
                 reference=lambda: {
                     "partial": {q: oracle.jets_partial_sum(exponents, pmax,
                                                            Fraction(q))
                                 for q in Q_POINTS},
                     "closed": {q: oracle.jets_closed_form(exponents,
                                                           Fraction(q))
                                for q in Q_POINTS},
                 })


def _partition(dim: int, level: int) -> Query:
    return Query("partition", call=("partition_check", dim, level),
                 reference=lambda: {"holds": True})


def _exponents(rng, dim: int, zeros: int, shift: int):
    """Exponents 1, 2, 3, 1, ... (starting at 1 + shift) on dim - zeros
    coordinates and 0 on the rest, in a seeded order.  The cost of an
    oracle query depends on the multiset of exponents, not their order."""
    out = [(j + shift) % 3 + 1 for j in range(dim - zeros)] + [0] * zeros
    rng.shuffle(out)
    return tuple(out)


def jets_oracle(rng, workdir):
    queries = []
    # (dimension, coordinates with exponent 0, pmax): the cost grows like
    # pmax^(positive coordinates + 1), so the sizes are fixed per slot and
    # the seed orders the coordinates
    for dim, zeros, pmax in ((1, 0, 8), (1, 0, 16), (1, 0, 24),
                             (2, 0, 8), (2, 0, 12), (2, 1, 12),
                             (3, 0, 6), (3, 0, 8), (3, 1, 8), (3, 2, 12),
                             (4, 0, 4), (4, 0, 6), (4, 1, 6), (4, 2, 8)):
        queries += [_oracle(_exponents(rng, dim, zeros, shift), pmax)
                    for shift in range(3)]
    for dim, level in ((1, 8), (1, 16), (2, 4), (2, 8), (3, 3), (3, 4)):
        queries.append(_partition(dim, level))
    warmup = [_oracle((1, 2, 3), 8), _partition(3, 3)]
    return _shuffled(rng, queries), warmup


WORKLOADS = {
    "genus_tables": genus_tables,
    "stringy_compare": stringy_compare,
    "jets_oracle": jets_oracle,
}
