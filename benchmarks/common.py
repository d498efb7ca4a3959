"""Shared helpers for the benchmark suite.

``report`` writes each paper-vs-measured table to stdout and, because
pytest's default fd-level capture swallows stdout for passing tests, to
``benchmarks/results.txt`` — the authoritative copy, regenerated on
every benchmark run.

**Smoke mode** (``--smoke`` on the command line or the
``REPRO_BENCH_SMOKE=1`` environment variable) shrinks every benchmark
to tiny row counts and a fixed seed so the whole suite runs in seconds:
no number it produces is meaningful, but every script still executes
its full code path, which is what ``tests/test_bench_smoke.py`` checks
so the perf scripts cannot silently rot.  Smoke runs never touch
``results.txt``.
"""

from __future__ import annotations

import json
import os
import sys

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")
#: Machine-readable benchmark outputs land at the repo root
#: (``BENCH_<figure>.json``) so the perf trajectory is diffable across
#: PRs and CI can upload them as artifacts.  Smoke runs also write
#: JSON (CI needs the label-check counters even when the timings are
#: meaningless) but to a separate ``BENCH_<figure>.smoke.json`` file —
#: never the measured one — so a local smoke run can never clobber the
#: committed cross-PR perf trail with meaningless numbers.  The
#: ``.smoke.json`` files are gitignored; CI's artifact glob picks up
#: both.
BENCH_JSON_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: One accumulating metrics document (``METRICS.json``, repo root,
#: gitignored): each ``write_bench_json`` call also files its counter
#: snapshot here under the figure name, so a suite run — smoke included
#: — leaves a single artifact CI can upload with every counter family's
#: totals per figure.
METRICS_PATH = os.path.join(BENCH_JSON_ROOT, "METRICS.json")

#: True when running in smoke mode (tiny parameters, no results file).
SMOKE = (os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
         or "--smoke" in sys.argv)


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


def write_bench_json(figure: str, payload: dict) -> str:
    """Write ``BENCH_<figure>.json`` at the repo root; returns the path.

    Smoke runs write ``BENCH_<figure>.smoke.json`` instead: smoke
    timings are meaningless, so they must never overwrite a measured
    (``smoke: false``) result.
    """
    suffix = ".smoke.json" if SMOKE else ".json"
    path = os.path.join(BENCH_JSON_ROOT, "BENCH_%s%s" % (figure, suffix))
    document = dict(payload)
    document["figure"] = figure
    document["smoke"] = SMOKE
    document["counters"] = _counters_snapshot()
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _update_metrics_json(figure, document["counters"])
    return path


def _counters_snapshot() -> dict:
    """Every counter of the schema (core/counters.py): cumulative
    process-wide totals at write time, so each figure's JSON records
    how much label/index/exec/spill work the whole run performed."""
    from repro.core import counters
    return counters.snapshot()


def _update_metrics_json(figure: str, counters: dict) -> None:
    """Read-modify-write ``METRICS.json``, keyed by figure."""
    try:
        with open(METRICS_PATH) as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        document = {}
    if not isinstance(document, dict):
        document = {}
    document[figure] = {"smoke": SMOKE, "counters": counters}
    with open(METRICS_PATH, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
