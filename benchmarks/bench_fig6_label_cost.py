"""Figure 6: DBT-2 (TPC-C) throughput vs tags per label.

The paper ran an in-memory database (10 warehouses, right axis) and an
on-disk database (150 warehouses, left axis), with every tuple carrying
0-10 tags.  Each tag cost ~0.6% of throughput in memory and ~1% on
disk, because labels add 4 bytes/tag to every tuple, shrinking
tuples-per-page and increasing I/O and cache pressure (section 8.3).

Here the same mechanism is exercised at laptop scale: the in-memory
configuration uses an unbounded buffer cache, the on-disk configuration
a small cache with a per-miss I/O penalty.  NOTPM is computed against
wall time plus simulated I/O time.  Expected shape: NOTPM falls roughly
linearly with tags/label, with a steeper relative slope on disk, and a
flat baseline.
"""

import time

import pytest

from repro.core import counters
from repro.db import Database
from repro.db.physical import DEFAULT_BATCH_SIZE
from repro.bench import ReportTable
from repro.workloads import TPCCConfig, TPCCWorkload

from .common import SMOKE, report, smoke, write_bench_json

TAG_POINTS = (0, 2, 4, 6, 8, 10) if not SMOKE else (0, 10)
TXNS = 400 if not SMOKE else 30
MEM = {"buffer_pages": None, "io_penalty": 0.0}
DISK = {"buffer_pages": 96, "io_penalty": 0.0005, "page_size": 2048}


def _notpm(*, ifc_enabled: bool, tags: int, storage: dict) -> float:
    """Best-of-two NOTPM (minimizes GC/scheduler interference)."""
    import gc
    db = Database(ifc_enabled=ifc_enabled, seed=13, **storage)
    config = TPCCConfig(warehouses=smoke(2, 1),
                        districts_per_warehouse=smoke(3, 2),
                        customers_per_district=smoke(20, 10),
                        items=smoke(100, 50),
                        initial_orders_per_district=smoke(10, 5),
                        tags_per_label=tags, seed=13)
    workload = TPCCWorkload(db, config)
    workload.load()
    workload.run(smoke(50, 5))                    # warm plan/parse caches
    best = 0.0
    for _round in range(smoke(2, 1)):
        db.buffer_cache.reset()
        commits_before = workload.stats.new_order_commits
        gc.collect()
        io_before = counters.snapshot()["simulated_io_time"]
        start = time.perf_counter()
        workload.run(TXNS)
        wall = time.perf_counter() - start
        io_time = counters.snapshot()["simulated_io_time"] - io_before
        effective = wall + io_time
        commits = workload.stats.new_order_commits - commits_before
        best = max(best, commits / (effective / 60.0))
    return best


@pytest.fixture(scope="module")
def sweep():
    results = {"memory": {}, "disk": {}}
    results["memory"]["baseline"] = _notpm(ifc_enabled=False, tags=0,
                                           storage=MEM)
    results["disk"]["baseline"] = _notpm(ifc_enabled=False, tags=0,
                                         storage=DISK)
    for tags in TAG_POINTS:
        results["memory"][tags] = _notpm(ifc_enabled=True, tags=tags,
                                         storage=MEM)
        results["disk"][tags] = _notpm(ifc_enabled=True, tags=tags,
                                       storage=DISK)
    return results


def test_fig6_label_cost(sweep):
    table = ReportTable(
        "Figure 6 — DBT-2 NOTPM vs tags/label "
        "(paper slope: ~-0.6%/tag memory, ~-1%/tag disk)",
        ["tags/label", "in-memory NOTPM", "rel", "on-disk NOTPM", "rel"])
    mem0 = sweep["memory"][0]
    disk0 = sweep["disk"][0]
    table.add("baseline (no IFC)",
              "%.0f" % sweep["memory"]["baseline"],
              "%.3f" % (sweep["memory"]["baseline"] / mem0),
              "%.0f" % sweep["disk"]["baseline"],
              "%.3f" % (sweep["disk"]["baseline"] / disk0))
    for tags in TAG_POINTS:
        table.add(tags, "%.0f" % sweep["memory"][tags],
                  "%.3f" % (sweep["memory"][tags] / mem0),
                  "%.0f" % sweep["disk"][tags],
                  "%.3f" % (sweep["disk"][tags] / disk0))
    mem_slope = _fit_per_tag_cost({t: sweep["memory"][t]
                                   for t in TAG_POINTS})
    disk_slope = _fit_per_tag_cost({t: sweep["disk"][t]
                                    for t in TAG_POINTS})
    table.add("per-tag cost (fit)", "%.2f%%" % (100 * mem_slope), "",
              "%.2f%%" % (100 * disk_slope), "")
    report(table)

    if SMOKE:
        # Smoke mode: the run proves the script executes; 30 tiny
        # transactions say nothing about slopes.
        return
    # Shape assertions.  The disk configuration's per-tag cost is driven
    # by the deterministic page model and must be clearly positive and
    # larger than the in-memory cost; the in-memory per-tag cost is well
    # under 2% per tag (paper: 0.6%) and may sit inside CPU-timing noise,
    # so it is only required not to be a material *improvement*.
    assert sweep["disk"][10] < sweep["disk"][0] * 0.95
    assert disk_slope > 0.01
    assert disk_slope > mem_slope
    assert mem_slope > -0.01


def _tpcc_stack(*, batch_size, naive=False):
    db = Database(ifc_enabled=True, seed=13, batch_size=batch_size,
                  naive_plans=naive)
    config = TPCCConfig(warehouses=smoke(2, 1),
                        districts_per_warehouse=smoke(3, 2),
                        customers_per_district=smoke(20, 10),
                        items=smoke(100, 50),
                        initial_orders_per_district=smoke(10, 5),
                        tags_per_label=4, seed=13)
    workload = TPCCWorkload(db, config)
    workload.load()
    return db, workload


def _measure_label_checks(*, batch_size, naive=False):
    """covers()/strip() invocations over two seeded DBT-2 phases.

    Identical seeds produce identical statement streams, so executors
    are compared on exactly the same work; only the loop shape (and,
    for naive, the plans) differ.  Two phases because they stress
    opposite ends of the batching policy:

    * **transactions** — the TPC-C mix: index probes finding 1-15
      candidate versions each; the scan leaf checks a handful of
      candidates per version and a longer chunk per distinct label,
      so the count can only fall against the size-1 leg;
    * **scan** — labeled full-table aggregations over the same
      database (``order_line``/``stock``), where label-run batching
      collapses one ``covers`` per tuple to one per distinct label per
      batch.
    """
    db, workload = _tpcc_stack(batch_size=batch_size, naive=naive)
    session = workload.session       # carries every tpcc tag: sees all
    workload.run(smoke(50, 5))                    # warm plan caches
    transactions = smoke(200, 20)
    before = _labels_snapshot()
    workload.run(transactions)
    mid = _labels_snapshot()
    scan_queries = smoke(10, 2)
    for _ in range(scan_queries):
        session.execute("SELECT COUNT(*), SUM(ol_amount) FROM OrderLine")
        session.execute("SELECT COUNT(*) FROM Stock WHERE s_quantity >= 0")
    after = _labels_snapshot()
    return {
        "transactions": {
            "covers_calls": mid["covers_calls"] - before["covers_calls"],
            "count": transactions,
        },
        "scan": {
            "covers_calls": after["covers_calls"] - mid["covers_calls"],
            "count": scan_queries * 2,
        },
    }


def _labels_snapshot():
    """The label-rule counters (core/counters.py)."""
    return counters.snapshot()["labels"]


@pytest.fixture(scope="module")
def label_checks():
    # Batch sizes are pinned explicitly (not via REPRO_BATCH_SIZE) so
    # this comparison measures the same thing in every environment —
    # including the degenerate-batch CI job.
    return {
        "batched": _measure_label_checks(batch_size=DEFAULT_BATCH_SIZE),
        "size_1": _measure_label_checks(batch_size=1),
        "naive": _measure_label_checks(batch_size=1, naive=True),
    }


def test_fig6_label_check_amortization(label_checks, sweep):
    """Batching must never regress the Query-by-Label check count
    versus the size-1 reference legs (one check per tuple), and must
    collapse it on scan-shaped work.  These assertions run in
    smoke mode too (the counts are logic-driven, not timing-driven), so
    tier-1's ``tests/test_bench_smoke.py`` is the regression gate.
    """
    table = ReportTable(
        "Figure 6 companion — Query-by-Label checks, same seeded DBT-2 "
        "streams (rules-cache instrumentation)",
        ["executor", "txn-mix covers", "per txn", "scan covers",
         "per scan query"])
    for name in ("batched", "size_1", "naive"):
        entry = label_checks[name]
        table.add(name, entry["transactions"]["covers_calls"],
                  "%.1f" % (entry["transactions"]["covers_calls"]
                            / entry["transactions"]["count"]),
                  entry["scan"]["covers_calls"],
                  "%.1f" % (entry["scan"]["covers_calls"]
                            / entry["scan"]["count"]))
    report(table)
    write_bench_json("fig6", {
        "notpm": {str(k): v for k, v in sweep["memory"].items()},
        "notpm_disk": {str(k): v for k, v in sweep["disk"].items()},
        "label_checks": label_checks,
    })
    batched = label_checks["batched"]
    row = label_checks["size_1"]
    naive = label_checks["naive"]
    # Gate 1: the probe-heavy transaction mix must never regress
    # against either per-tuple baseline — and sits far below the naive
    # full-scan executor.
    assert batched["transactions"]["covers_calls"] \
        <= row["transactions"]["covers_calls"]
    assert batched["transactions"]["covers_calls"] \
        <= naive["transactions"]["covers_calls"]
    # Gate 2: scan-shaped work must show the label-run collapse — one
    # covers per distinct label per batch instead of one per tuple.
    assert batched["scan"]["covers_calls"] \
        <= row["scan"]["covers_calls"]
    if not SMOKE:
        assert batched["scan"]["covers_calls"] \
            < row["scan"]["covers_calls"] * 0.1, \
            (batched["scan"], row["scan"])
        # Gate 3: the seeded streams are deterministic, so the batched
        # counts are exact pins (they match the committed
        # BENCH_fig6.json) — any drift means the executor's label-check
        # behaviour changed, registry refactors included.
        # (8633 on the size-1 leg; probes that find four or more
        # candidate versions check each distinct label once.)
        assert batched["transactions"]["covers_calls"] == 6513, \
            batched["transactions"]
        assert row["transactions"]["covers_calls"] == 8633, \
            row["transactions"]
        assert batched["scan"]["covers_calls"] == 40, batched["scan"]


def _fit_per_tag_cost(points) -> float:
    """Least-squares slope of relative NOTPM per tag (sign-flipped so a
    positive value means 'each tag costs this fraction')."""
    xs = sorted(points)
    base = points[xs[0]]
    ys = [points[x] / base for x in xs]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var = sum((x - mean_x) ** 2 for x in xs)
    return -(cov / var)
