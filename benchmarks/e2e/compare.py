#!/usr/bin/env python3
"""Compare two result documents of ``run.py``.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base.  One row per workload and end-to-end metric: both
medians, B's as a ratio of A's, the bound from ``BENCHMARK.json``, and

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  either side's spread (interquartile distance as a
                  share of its median) is wider than the bound, so the
                  runs cannot tell;
* ``ok``          otherwise.

Exits with 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    if better == "lower":
        worse = b["median"] > a["median"] * (1 + bound)
    else:
        worse = b["median"] < a["median"] * (1 - bound)
    return "worse" if worse else "ok"


def compare(base: dict, other: dict, spec: dict) -> int:
    print("%-16s %-18s %12s %12s %14s %6s  %s" % (
        "workload", "metric", "A median", "B median", "B/A (base A)",
        "bound", "verdict"))
    failed = 0
    for workload, metrics in base["summary"].items():
        for metric in spec["end_to_end"]:
            a = metrics[metric["name"]]
            b = other["summary"][workload][metric["name"]]
            result = verdict(a, b, metric["better"], metric["bound"])
            failed += result == "worse"
            print("%-16s %-18s %12.4f %12.4f %14.4f %5.0f%%  %s" % (
                workload, metric["name"], a["median"], b["median"],
                b["median"] / a["median"], metric["bound"] * 100, result))
    return 1 if failed else 0


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        base = json.load(handle)
    with open(argv[2]) as handle:
        other = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return compare(base, other, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
