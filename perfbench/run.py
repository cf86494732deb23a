"""Benchmark for genera: one client, one thread, closed loop.

    python3 perfbench/run.py --workload genus_tables --seed 1 --seconds 25 --trace 0

Queries go through ``genera.cli.main`` in-process with stdout captured,
or through the library for functions without a CLI verb.  Each timed
pass runs the whole seeded query list, so every run does the same
multiset of queries; passes repeat until ``--seconds`` have gone by.
Every output is checked against reference values computed apart from
the program (``oracle.py``).  Times are scaled to a reference host speed
by a calibration unit run after every query (``calibrate``).  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 15
# Seconds one calibration unit takes on the reference host.  Times are
# reported at that host's speed: each is scaled by NOMINAL_UNIT_S over
# the mean calibration unit measured next to it.
NOMINAL_UNIT_S = 0.004
UNIT_WINDOW = 2          # units on each side of a query that scale it
MODULES = ("rings", "expr", "graded", "catalog", "projspace", "k0",
           "stringy", "jets", "cli")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def import_genera() -> dict:
    """A fresh import of every genera module, as a process start pays it."""
    for name in [m for m in sys.modules
                 if m == "genera" or m.startswith("genera.")]:
        del sys.modules[name]
    importlib.import_module("genera")
    return {m: importlib.import_module(f"genera.{m}") for m in MODULES}


def run_query(mods: dict, query):
    """(exit code, output, seconds, exception) of one query."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        if query.argv:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = mods["cli"].main(list(query.argv))
            out = buf.getvalue()
        else:
            name, dim, level = query.call
            jets = mods["jets"]
            rc, out = 0, getattr(jets, name)(
                jets.JetSpec(dim, (1,) * dim, level))
    except Exception as exc:  # a crash fails the query; the run goes on
        return None, None, time.perf_counter() - start, exc
    return rc, out, time.perf_counter() - start, None


class Tally:
    """Attempted and failed queries, and whether any output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reported = 0

    def record(self, query, rc, out, exc) -> bool:
        self.attempted += 1
        reason = f"raised {exc!r}" if exc else checks.verify(query, rc, out)
        if reason is None:
            return True
        self.failed += 1
        self.wrong += exc is None
        if self.reported < 10:
            self.reported += 1
            print(f"FAILED {' '.join(query.argv) or query.call}: {reason}",
                  file=sys.stderr)
        return False


def calibrate() -> float:
    """Seconds one calibration unit takes now: exact Fraction sums and a
    dict keyed by small tuples, the kinds of work genera's kernel does.
    On a shared host the speed drifts by a third within seconds, and this
    unit drifts with it."""
    start = time.perf_counter()
    total = Fraction(0)
    counts = {}
    for i in range(1, 1501):
        total += Fraction(i % 7 - 3, i % 97 + 1)
        key = (i % 50, i % 3)
        counts[key] = counts.get(key, 0) + total.numerator % 5
    return time.perf_counter() - start


def setup(workload: str, seed: int, workdir: str, tally: Tally):
    """Import genera, write the seeded inputs and run one warm-up query of
    each kind; returns (modules, pass queries, seconds at reference
    speed, seconds as measured).  Each step is scaled by the calibration
    units just before and after it."""
    gc.collect()
    before = calibrate()
    start = time.perf_counter()
    mods = import_genera()
    queries, warmup = workloads.build(workload, seed, workdir)
    measured = time.perf_counter() - start
    after = calibrate()
    scaled = measured * NOMINAL_UNIT_S * 2 / (before + after)
    for query in warmup:
        before = after
        rc, out, dt, exc = run_query(mods, query)
        after = calibrate()
        tally.record(query, rc, out, exc)
        measured += dt
        scaled += dt * NOMINAL_UNIT_S * 2 / (before + after)
    return mods, queries, scaled, measured


def timed_passes(mods, queries, seconds: float, tally: Tally):
    """Whole passes over the query list until ``seconds`` have gone by,
    with a calibration unit after every query.  Each query's time is
    scaled to reference speed by the units around it.  Returns the
    queries completed per second of each pass and the seconds of each
    query, at reference speed, and the measured queries per second of
    each pass."""
    rates, times, raw_rates = [], [], []
    deadline = time.perf_counter() + seconds
    while not rates or time.perf_counter() < deadline:
        gc.collect()
        results, units = [], []
        for query in queries:
            results.append(run_query(mods, query))
            units.append(calibrate())
        busy = scaled = completed = 0
        for i, (query, (rc, out, dt, exc)) in enumerate(zip(queries, results)):
            completed += tally.record(query, rc, out, exc)
            near = units[max(0, i - UNIT_WINDOW):i + UNIT_WINDOW + 1]
            times.append(dt * NOMINAL_UNIT_S * len(near) / sum(near))
            scaled += times[-1]
            busy += dt
        rates.append(completed / scaled)
        raw_rates.append(completed / busy)
    return rates, times, raw_rates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import_genera()
    except ImportError as exc:
        print(f"error: cannot import genera from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup_tally, tally = Tally(), Tally()
        setup_s, raw_setup_s = [], []
        for _ in range(SETUP_REPEATS):
            mods, queries, scaled, measured = setup(
                args.workload, args.seed, workdir, setup_tally)
            setup_s.append(scaled)
            raw_setup_s.append(measured)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(mods)
        rates, times, raw_rates = timed_passes(mods, queries, args.seconds,
                                               tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = len(rates)
    end_to_end = {
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(times) * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
    }
    print(f"{args.workload} seed {args.seed}: {passes} passes of "
          f"{len(queries)} queries; as measured: queries/s "
          f"{statistics.median(raw_rates):.3f}, setup "
          f"{statistics.median(raw_setup_s):.4f} s; host "
          f"{statistics.median(rates) / statistics.median(raw_rates):.3f}"
          f" times slower than reference", file=sys.stderr)
    if tracer:
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        tracer.write(path, passes, {"workload": args.workload,
                                    "seed": args.seed,
                                    "end_to_end_traced": end_to_end})
        metrics = tracer.metrics(passes, statistics.median(raw_rates)
                                 / statistics.median(rates))
        print(f"traced end-to-end: {json.dumps(end_to_end)}", file=sys.stderr)
    else:
        metrics = end_to_end
    print(json.dumps({
        "correct": tally.wrong == 0 and setup_tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
