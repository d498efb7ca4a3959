"""Shared helpers for the benchmark suite.

``report`` writes each paper-vs-measured table to stdout and, because
pytest's default fd-level capture swallows stdout for passing tests, to
``benchmarks/results.txt`` — the authoritative copy, regenerated on
every benchmark run.

**Smoke mode** (the ``REPRO_BENCH_SMOKE=1`` environment variable)
shrinks every benchmark to tiny row counts and a fixed seed so the
whole suite runs in seconds: no number it produces is meaningful, but
every script still executes its full code path, which is what
``tests/test_bench_smoke.py`` checks so the perf scripts cannot
silently rot.  Every smoke gate asserts in-process, so a smoke run
writes no file at all.
"""

from __future__ import annotations

import json
import os
import sys

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")
#: Machine-readable benchmark outputs land at the repo root
#: (``BENCH_<figure>.json``) so the perf trajectory is diffable across
#: PRs.
BENCH_JSON_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: True when running in smoke mode (tiny parameters, no files written).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def smoke(value, smoke_value):
    """Pick the tiny smoke-mode parameter when smoke mode is active."""
    return smoke_value if SMOKE else value


def report(table) -> None:
    text = table.render() if hasattr(table, "render") else str(table)
    sys.__stdout__.write(text + "\n")
    sys.__stdout__.flush()
    if SMOKE:
        return
    with open(RESULTS_PATH, "a") as handle:
        handle.write(text + "\n")


def write_bench_json(figure: str, payload: dict) -> None:
    """Write ``BENCH_<figure>.json`` at the repo root, with every
    counter of the schema (core/counters.py) as cumulative process-wide
    totals at write time.  Smoke runs write nothing."""
    if SMOKE:
        return
    from repro.core import counters
    path = os.path.join(BENCH_JSON_ROOT, "BENCH_%s.json" % figure)
    document = dict(payload)
    document["figure"] = figure
    document["smoke"] = False
    document["counters"] = counters.snapshot()
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
