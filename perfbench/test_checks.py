"""Positive and negative controls for the benchmark's checks.

    python3 perfbench/test_checks.py        (or: python3 -m pytest perfbench)

Each checker must accept the program's real output and reject it once a
reference value is perturbed; a perturbed reference inside a timed pass
must be counted as a failed query.
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _perturbed(expect):
    """A copy of a reference dict with its first value moved by one."""
    out = copy.deepcopy(expect)
    key = next(iter(out))
    value = out[key]
    if isinstance(value, dict):
        out[key] = _perturbed(value)
    elif isinstance(value, bool):
        out[key] = not value
    else:
        out[key] = value + 1
    return out


def _one_of_each_kind(workload, workdir):
    queries, _ = workloads.build(workload, 3, workdir)
    seen = {}
    for query in queries:
        seen.setdefault(query.kind, query)
    return list(seen.values())


def test_every_checker_accepts_real_output_and_rejects_a_perturbed_value():
    mods = run.import_genera()
    kinds = set()
    with tempfile.TemporaryDirectory() as workdir:
        for workload in workloads.WORKLOADS:
            for query in _one_of_each_kind(workload, workdir):
                rc, out, _, exc = run.run_query(mods, query)
                assert exc is None, (query, exc)
                assert checks.verify(query, rc, out) is None, query
                wrong = copy.copy(query)
                wrong.expect = _perturbed(query.expect)
                assert checks.verify(wrong, rc, out) is not None, query
                assert checks.verify(query, rc + 1, out) is not None, query
                kinds.add(query.kind)
    assert kinds == set(checks._CHECKS)


def test_perturbed_reference_counts_as_failed_in_a_pass():
    mods = run.import_genera()
    with tempfile.TemporaryDirectory() as workdir:
        queries = _one_of_each_kind("genus_tables", workdir)
        queries[0].expect = _perturbed(queries[0].expect)
        tally = run.Tally()
        rates, times, _ = run.timed_passes(mods, queries, 0, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (len(queries), 1, 1)
    assert len(rates) == 1 and len(times) == len(queries)


def test_evaluator_reads_printed_forms():
    assert oracle.evaluate("(L^2) / (1 + L)", {"L": 2}) == Fraction(4, 3)
    assert oracle.evaluate("-L^-2 + 3/4*L - 1", {"L": 2}) == Fraction(1, 4)
    assert oracle.evaluate("1 - y + y^2", {"y": -3}) == 13
    assert oracle.evaluate("(u^2*v^2 - 1) / (-1 + u*v)", {"u": 2, "v": 3}) == 7
    for bad in ("1 +", "L ^ y", "(1", "x", "2 % 3"):
        try:
            oracle.evaluate(bad, {"L": 2})
        except oracle.EvalError:
            continue
        raise AssertionError(f"evaluated {bad!r}")


def test_closed_forms():
    assert oracle.genus_closed_form("ahat", 4, 0) == Fraction(3, 128)
    assert oracle.genus_closed_form("ahat", 2, 0) == Fraction(-1, 8)
    assert oracle.genus_closed_form("lgenus", 5, 0) == 0
    assert oracle.genus_closed_form("hirzebruch", 3, 2) == 1 - 2 + 4 - 8
    assert oracle.hrr_sections(3, 2) == 10
    # partial sums approach the closed form
    full = oracle.jets_closed_form((1, 2), 3)
    gaps = [full - oracle.jets_partial_sum((1, 2), p, 3) for p in (4, 8, 16)]
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_factor_resolutions_resolve_one_variety():
    """Every resolution of a factor has the stringy E-function of that
    factor: L^2 for C^2, L^3 for C^3 and L^2 + L for the A1 cone."""
    want = {"C2": lambda x: x ** 2, "C3": lambda x: x ** 3,
            "A1": lambda x: x ** 2 + x}
    for factor, resolutions in workloads.RESOLUTIONS.items():
        for comps, strata in resolutions:
            comps = [Fraction(a) for a in comps]
            for x in (2, 3, 5):
                assert oracle.stratum_sum(comps, strata, Fraction(x), 1) == \
                    want[factor](x), (factor, comps)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")
