"""The tracked end-to-end trajectory, ``BENCH_e2e.json``, and the tool
that adds an entry to it (``tools/bench_entry.py``)."""

from __future__ import annotations

import importlib.util
import json
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
METRIC_FIELDS = {"parent", "change", "parent_iqr", "wins", "verdict"}


def _load(name):
    with open(os.path.join(ROOT, name)) as handle:
        return json.load(handle)


def _tool():
    spec = importlib.util.spec_from_file_location(
        "bench_entry", os.path.join(ROOT, "tools", "bench_entry.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_and_metric_of_the_trajectory_is_declared():
    spec = _load("BENCHMARK.json")
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    entries = _load("BENCH_e2e.json")["entries"]
    assert entries
    for entry in entries:
        assert isinstance(entry["pr"], int) and entry["rows"]
        for row in entry["rows"]:
            assert row["workload"] in workloads, row["workload"]
            assert row["seed"] in entry["seeds"]
            assert set(row["metrics"]) <= metrics, set(row["metrics"])
            for cells in row["metrics"].values():
                assert set(cells) == METRIC_FIELDS
                assert 0 <= cells["wins"] <= row["pairs"]
                assert cells["verdict"] in (None, "ok", "worse",
                                            "unresolved")


def _run(workload, seed, throughput, factor=1.5, failed=0):
    values = {"throughput_ops_s": throughput, "latency_p50_ms": 1.0,
              "latency_tail_ms": 2.0, "cpu_ms_per_op": 1.0,
              "setup_s": 0.1, "peak_rss_mb": 30.0}
    return {"workload": workload, "failed": failed,
            "fingerprint": {"seed": seed, "cpus": 2, "commit": "unknown"},
            "details": {"host_factors": [factor]},
            "metrics": {name: {"value": value, "unit": ""}
                        for name, value in values.items()}}


def test_an_entry_holds_medians_iqr_wins_and_verdicts():
    spec = _load("BENCHMARK.json")
    parents = [_run("adhoc_sql", 1, value) for value in (100, 110, 90, 105)]
    changes = [_run("adhoc_sql", 1, value) for value in (200, 105, 210, 190)]
    parents.append(_run("cartel_web", 1, 50.0, failed=1))
    changes.append(_run("cartel_web", 1, 60.0))
    entry = _tool().build_entry(36, parents, changes, spec,
                                parent_commit="abc1234")
    assert (entry["pr"], entry["commit"], entry["parent_commit"]) == (
        36, None, "abc1234")
    for run in changes:
        run["fingerprint"]["commit"] = "abc1234567"    # an uncommitted tree
    assert _tool().build_entry(36, parents, changes, spec,
                               parent_commit="abc1234")["commit"] is None
    assert _tool().build_entry(36, parents, changes, spec, commit="def5678",
                               parent_commit="abc1234")["commit"] == "def5678"
    assert entry["cores"] == 2 and entry["seeds"] == [1]
    assert entry["host_factor"] == 1.5
    adhoc, cartel = entry["rows"]
    assert (adhoc["workload"], adhoc["pairs"], adhoc["failed"]) == (
        "adhoc_sql", 4, [0, 0])
    throughput = adhoc["metrics"]["throughput_ops_s"]
    assert (throughput["parent"], throughput["change"]) == (102.5, 195.0)
    assert throughput["wins"] == 3
    assert throughput["parent_iqr"] == 16.25
    assert throughput["verdict"] == "unresolved"     # spreads of 16%, 44%
    assert adhoc["metrics"]["latency_p50_ms"]["wins"] == 0
    assert adhoc["metrics"]["latency_p50_ms"]["verdict"] == "ok"
    assert cartel["failed"] == [1, 0]
    assert cartel["metrics"]["throughput_ops_s"]["wins"] == 1
