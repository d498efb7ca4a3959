#!/usr/bin/env python3
"""Turn paired runs of the end-to-end benchmark into one entry of the
tracked trajectory, ``BENCH_e2e.json``.

    python tools/bench_entry.py --pr N --parent P1.json P2.json ... \\
        --change C1.json C2.json ... [--commit SHA] [--parent-commit SHA] \\
        [--append BENCH_e2e.json]

Each file is the result document one ``benchmarks/e2e/run.py
--workload W --trace 0`` run writes (``benchmarks/e2e/out/W-trace0.json``
— copy it aside before the next run overwrites it).  The i-th parent
file and the i-th change file are one *pair*: runs of one workload at
one seed, made one after the other.  Pairs are grouped by workload and
seed into rows; per row and end-to-end metric the entry holds both
medians, the parent's interquartile distance, the pairs the change won
(better in the metric's direction, ``BENCHMARK.json``) and the verdict
``benchmarks/e2e/compare.py`` gives the two sets of runs.

The entry goes to standard output, or is appended to the ``entries``
of ``--append``'s file.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _compare_verdict():
    """``verdict(a, b, better, bound)`` of ``benchmarks/e2e/compare.py``,
    so the entry and a comparison of the same runs never disagree."""
    path = os.path.join(ROOT, "benchmarks", "e2e", "compare.py")
    spec = importlib.util.spec_from_file_location("e2e_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.verdict


def _quartiles(values: List[float]):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _summary(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = _quartiles(values)
    return {"median": median, "iqr": q3 - q1,
            "spread": (q3 - q1) / median if median else 0.0}


def build_entry(pr: int, parents: List[dict], changes: List[dict],
                spec: dict, commit: Optional[str] = None,
                parent_commit: Optional[str] = None) -> dict:
    """The entry for the pairs ``zip(parents, changes)`` (result
    documents of ``run.py``)."""
    if len(parents) != len(changes) or not parents:
        raise ValueError("need as many parent runs as change runs, and one")
    verdict = _compare_verdict()
    rows: Dict[tuple, List[tuple]] = {}
    for parent, change in zip(parents, changes):
        key = (parent["workload"], parent["fingerprint"]["seed"])
        if key != (change["workload"], change["fingerprint"]["seed"]):
            raise ValueError("a pair mixes runs: %r and %r" % (
                key, (change["workload"], change["fingerprint"]["seed"])))
        rows.setdefault(key, []).append((parent, change))

    def known(value):
        return None if value in (None, "unknown") else value

    runs = parents + changes
    commit = commit or known(changes[0]["fingerprint"]["commit"])
    parent_commit = (parent_commit
                     or known(parents[0]["fingerprint"]["commit"]))
    if commit and parent_commit and (commit.startswith(parent_commit)
                                     or parent_commit.startswith(commit)):
        commit = None       # runs of the change before it was committed
    entry = {
        "pr": pr,
        "commit": commit,
        "parent_commit": parent_commit,
        "cores": changes[0]["fingerprint"]["cpus"],
        "host_factor": round(statistics.median(
            factor for run in runs
            for factor in run["details"]["host_factors"]), 3),
        "seeds": sorted({seed for _workload, seed in rows}),
        "rows": [],
    }
    for (workload, seed), pairs in rows.items():
        row = {"workload": workload, "seed": seed, "pairs": len(pairs),
               "failed": [sum(run["failed"] for run, _ in pairs),
                          sum(run["failed"] for _, run in pairs)],
               "metrics": {}}
        for metric in spec["end_to_end"]:
            name, better = metric["name"], metric["better"]
            a = [p["metrics"][name]["value"] for p, _c in pairs]
            b = [c["metrics"][name]["value"] for _p, c in pairs]
            wins = sum((y < x) if better == "lower" else (y > x)
                       for x, y in zip(a, b))
            sa, sb = _summary(a), _summary(b)
            row["metrics"][name] = {
                "parent": round(sa["median"], 4),
                "change": round(sb["median"], 4),
                "parent_iqr": round(sa["iqr"], 4),
                "wins": wins,
                "verdict": verdict(sa, sb, better, metric["bound"])}
        entry["rows"].append(row)
    return entry


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--commit")
    parser.add_argument("--parent-commit")
    parser.add_argument("--append", help="BENCH_e2e.json to add it to")
    args = parser.parse_args(argv)

    def load(path):
        with open(path) as handle:
            return json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    entry = build_entry(args.pr, [load(p) for p in args.parent],
                        [load(c) for c in args.change], spec,
                        args.commit, args.parent_commit)
    if args.append is None:
        print(json.dumps(entry, indent=1))
        return 0
    trajectory = load(args.append)
    trajectory["entries"].append(entry)
    with open(args.append, "w") as handle:
        json.dump(trajectory, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
