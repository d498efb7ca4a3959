"""Self-test of the end-to-end benchmark: every workload at 1% scale.

Collected by the tier-1 ``pytest`` run.  It checks the shape of what
``run.py`` prints against ``BENCHMARK.json`` and that the counts repeat;
it measures nothing.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: With two clients the interleaving, and so the group-commit counts,
#: differ from run to run.
SINGLE_CLIENT = [w for w in WORKLOADS if w != "durable_commit"]
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def run(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "10", "--scale", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.fixture(scope="module")
def outputs():
    # The repeated traced runs come last, so that two runs of the same
    # workload and mode never write the same files at once.
    jobs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    jobs += [(w, 1) for w in SINGLE_CLIENT]
    with ThreadPoolExecutor(max_workers=2) as pool:
        lines = list(pool.map(lambda job: run(*job), jobs))
    return dict(zip(jobs, lines[:2 * len(WORKLOADS)])), \
        dict(zip(SINGLE_CLIENT, lines[2 * len(WORKLOADS):]))


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_once(outputs, workload, trace):
    lines = outputs[0][workload, trace]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    printed = [line.split()[1] for line in lines[:-1]
               if line.startswith(workload + " ")]
    assert sorted(printed) == sorted(declared)
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        assert metric["unit"] == declared[name]
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", SINGLE_CLIENT)
def test_counts_repeat_exactly_with_one_client(outputs, workload):
    first = json.loads(outputs[0][workload, 1][-1])["metrics"]
    second = json.loads(outputs[1][workload][-1])["metrics"]
    for name, metric in first.items():
        # The driver.* rows are diagnostics of this process (collector
        # runs), not counts the engine made.
        if metric["unit"] in ("count", "B") and not name.startswith("driver."):
            assert second[name]["value"] == metric["value"], name


def test_fails_without_the_engine(tmp_path):
    """In a tree that holds only the benchmark there is nothing to
    measure: no result line and a non-zero exit."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "tpcc_mem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
