"""Per-layer spans and counts, installed around genera's public functions
and methods at run time; no program file is edited.

Each wrapped call is a span with a name, start, end and parent.  Spans
are aggregated as they close (calls, self time, and time of the outermost
span of each group, so that recursion inside one layer is counted once)
and the first ``SPAN_LOG_LIMIT`` of them are kept in memory and written
out once, at the end.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from fractions import Fraction

SPAN_LOG_LIMIT = 100_000

_MP_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")
_RING_ARITH = _MP_ARITH + ("__mul__", "__rmul__", "__pow__", "__eq__")

# group -> [(module, class or None, attribute names)]
GROUPS = {
    "rings.poly_mul": [("rings", "MultiPoly", ("__mul__", "__rmul__",
                                               "__pow__"))],
    "rings.poly_add": [("rings", "MultiPoly", _MP_ARITH)],
    "rings.poly_div": [("rings", "MultiPoly", (
        "__truediv__", "div_exact", "laurent_div_exact", "gcd_univariate",
        "content_normalized"))],
    "rings.series": [("rings", "TruncSeries", _RING_ARITH + (
        "compose", "invert", "exp", "log", "scale_variable", "evaluate",
        "map_coeffs", "truncate"))],
    "rings.ratfunc": [("rings", "RationalFunction", _MP_ARITH + (
        "__init__", "__mul__", "__rmul__", "__eq__", "__truediv__",
        "__rtruediv__", "reciprocal", "substitute", "as_polynomial"))],
    "expr.parse": [("expr", None, ("parse_expr",))],
    "graded.reduce": [("graded", "GradedRing", ("reduce",))],
    "catalog.series_build": [("catalog", None, ("builtin_series",))],
    "catalog.genus": [("catalog", None, ("genus_on_projective",))],
    "projspace.hrr": [("projspace", None, ("hrr_check",))],
    "projspace.ty": [("projspace", None, ("ty_class_degree",))],
    "k0.realize": [("k0", "K0Class", ("map_atoms",))],
    "k0.class": [("k0", "K0Class", _RING_ARITH),
                 ("k0", None, ("poly_to_class",))],
    "stringy.load": [("stringy", None, ("load_datum",))],
    "stringy.integral": [("stringy", None, ("motivic_integral",))],
    "stringy.closed_stratum": [("stringy", "ResolutionDatum",
                                ("closed_stratum",))],
    "stringy.efun": [("stringy", None, ("stringy_E",))],
    "stringy.chiy": [("stringy", None, ("stringy_chi_y",))],
    "stringy.euler": [("stringy", None, ("stringy_euler",))],
    "stringy.compare": [("stringy", None, ("invariance_check",))],
    "jets.cylinder": [("jets", None, ("cylinder_measure",))],
    "jets.partition": [("jets", None, ("partition_check",))],
    "jets.oracle": [("jets", None, ("oracle_integral",))],
    "cli.query": [("cli", None, ("main",))],
}

# metric -> (unit, how it is read from the aggregates)
#   ("calls", group, names)  calls of those attributes of the group
#   ("outer", group)         time of the group's outermost spans
#   ("self", group)          self time of the group's spans
#   ("terms",)               sum of terms x terms over MultiPoly products
METRICS = {
    "rings.poly_mul_calls": ("count", ("calls", "rings.poly_mul",
                                       ("__mul__", "__rmul__"))),
    "rings.poly_term_products": ("count", ("terms",)),
    "rings.poly_mul_ms": ("ms", ("outer", "rings.poly_mul")),
    "rings.poly_add_ms": ("ms", ("outer", "rings.poly_add")),
    "rings.poly_div_ms": ("ms", ("outer", "rings.poly_div")),
    "rings.series_mul_calls": ("count", ("calls", "rings.series",
                                         ("__mul__", "__rmul__"))),
    "rings.series_ms": ("ms", ("outer", "rings.series")),
    "rings.ratfunc_calls": ("count", ("calls", "rings.ratfunc", None)),
    "rings.ratfunc_ms": ("ms", ("outer", "rings.ratfunc")),
    "expr.parse_calls": ("count", ("calls", "expr.parse", None)),
    "expr.parse_ms": ("ms", ("outer", "expr.parse")),
    "graded.reduce_calls": ("count", ("calls", "graded.reduce", None)),
    "graded.reduce_ms": ("ms", ("outer", "graded.reduce")),
    "catalog.series_build_ms": ("ms", ("outer", "catalog.series_build")),
    "catalog.genus_ms": ("ms", ("outer", "catalog.genus")),
    "projspace.hrr_ms": ("ms", ("outer", "projspace.hrr")),
    "projspace.ty_ms": ("ms", ("outer", "projspace.ty")),
    "k0.realize_calls": ("count", ("calls", "k0.realize", None)),
    "k0.realize_ms": ("ms", ("outer", "k0.realize")),
    "k0.class_ms": ("ms", ("outer", "k0.class")),
    "stringy.load_ms": ("ms", ("outer", "stringy.load")),
    "stringy.integral_ms": ("ms", ("outer", "stringy.integral")),
    "stringy.closed_stratum_calls": ("count", ("calls",
                                               "stringy.closed_stratum", None)),
    "stringy.efun_calls": ("count", ("calls", "stringy.efun", None)),
    "stringy.efun_ms": ("ms", ("outer", "stringy.efun")),
    "stringy.chiy_ms": ("ms", ("outer", "stringy.chiy")),
    "stringy.euler_ms": ("ms", ("outer", "stringy.euler")),
    "jets.cylinder_calls": ("count", ("calls", "jets.cylinder", None)),
    "jets.cylinder_ms": ("ms", ("outer", "jets.cylinder")),
    "jets.partition_ms": ("ms", ("outer", "jets.partition")),
    "jets.oracle_ms": ("ms", ("outer", "jets.oracle")),
    "cli.query_ms": ("ms", ("outer", "cli.query")),
    "cli.self_ms": ("ms", ("self", "cli.query")),
}


class Tracer:
    """Span aggregation for one process.  ``install`` wraps genera in
    place; totals are read with ``metrics``."""

    def __init__(self):
        self.names = []            # span name by index
        self.groups = []           # group by span index
        self.calls = []
        self.self_s = []
        self.outer_s = []
        self.term_products = 0     # sum of terms x terms over MultiPoly products
        self.log = {key: array(code) for key, code in (
            ("id", "q"), ("name", "i"), ("parent", "q"), ("start", "d"),
            ("end", "d"))}
        self.dropped = 0
        self._next_id = 0
        self._frames = []          # [span id, child seconds]
        self._depth = {}           # group -> open spans of the group

    def install(self, genera_modules: dict):
        """Wrap every callable named in GROUPS, rebinding module globals
        that hold the same function object (``from .x import f``)."""
        poly = genera_modules["rings"].MultiPoly
        replaced = {}
        for group, owners in GROUPS.items():
            self._depth[group] = 0
            for mod, cls, attrs in owners:
                owner = getattr(genera_modules[mod], cls) if cls else \
                    genera_modules[mod]
                for attr in attrs:
                    fn = vars(owner)[attr]
                    name = f"{mod}.{cls + '.' if cls else ''}{attr}"
                    count = (cls == "MultiPoly"
                             and attr in ("__mul__", "__rmul__"))
                    wrapped = self._wrap(fn, name, group,
                                         poly if count else None)
                    setattr(owner, attr, wrapped)
                    if not cls:
                        replaced[id(fn)] = (fn, wrapped)
        for module in genera_modules.values():
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, fn, name, group, count_terms_of):
        index = len(self.names)
        self.names.append(name)
        self.groups.append(group)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.outer_s.append(0.0)
        frames, depth, clock = self._frames, self._depth, time.perf_counter
        calls, self_s, outer_s, log = self.calls, self.self_s, self.outer_s, \
            self.log
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if count_terms_of is not None:
                other = args[1]
                if isinstance(other, count_terms_of):
                    other = len(other.terms)
                elif isinstance(other, (int, Fraction)):
                    other = 1 if other else 0
                else:
                    other = 0
                tracer.term_products += len(args[0].terms) * other
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = frames[-1][0] if frames else -1
            frame = [span_id, 0.0]
            frames.append(frame)
            depth[group] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                depth[group] -= 1
                duration = end - start
                calls[index] += 1
                self_s[index] += duration - frame[1]
                if not depth[group]:
                    outer_s[index] += duration
                if frames:
                    frames[-1][1] += duration
                if len(log["id"]) < SPAN_LOG_LIMIT:
                    log["id"].append(span_id)
                    log["name"].append(index)
                    log["parent"].append(parent)
                    log["start"].append(start)
                    log["end"].append(end)
                else:
                    tracer.dropped += 1

        return span

    def _sum(self, values, group, names=None):
        return sum(v for v, g, n in zip(values, self.groups, self.names)
                   if g == group and (names is None
                                      or n.rsplit(".", 1)[1] in names))

    def metrics(self, passes: int, scale: float) -> dict:
        """Every per-layer metric, as a total per timed pass; times are
        multiplied by ``scale`` (to reference host speed)."""
        out = {}
        for metric, (unit, (how, *spec)) in METRICS.items():
            if how == "calls":
                value = self._sum(self.calls, *spec)
            elif how == "terms":
                value = self.term_products
            elif how == "outer":
                value = self._sum(self.outer_s, *spec) * 1000 * scale
            else:
                value = self._sum(self.self_s, *spec) * 1000 * scale
            out[metric] = {"value": value / passes, "unit": unit}
        return out

    def write(self, path: str, passes: int, extra: dict):
        """The per-span-name aggregates and the span log, as JSON, with
        times as measured."""
        log = self.log
        data = {
            "passes": passes,
            "by_span": {name: {"calls": c / passes,
                               "self_ms": s * 1000 / passes,
                               "outer_ms": o * 1000 / passes}
                        for name, c, s, o in zip(self.names, self.calls,
                                                 self.self_s, self.outer_s)},
            "span_names": self.names,
            "spans_dropped": self.dropped,
            "spans": [[i, n, p, round(s * 1e6, 1), round(e * 1e6, 1)]
                      for i, n, p, s, e in zip(log["id"], log["name"],
                                               log["parent"], log["start"],
                                               log["end"])],
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
