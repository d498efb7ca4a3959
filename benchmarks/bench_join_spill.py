"""Join microbenchmarks: batched probe dedup and grace spilling.

Two logic-driven gates (they assert in smoke mode too, so the CI smoke
step enforces them like the fig6 label-check gate):

* **IndexLoopJoin probe dedup** — a 4k-row outer side with only 10
  distinct join keys must probe the inner index at least 20% fewer
  times at the default batch size than at batch size 1 (it is ~100x
  fewer: one probe per distinct key per batch), with identical results;
* **HashJoin spilling** — a 100k-row build side joined under a 64KB
  ``work_mem`` must actually spill (EXPLAIN shows
  ``spill_partitions >= 1`` with estimated peak memory within the
  budget), complete, and return exactly the unbounded result.

``BENCH_join_spill.json`` records the probe counts, spill statistics,
and timings at the repo root; CI uploads it with the other BENCH_*
artifacts, which is where the per-run spill stats land.
"""

import time

import pytest

from repro.bench import ReportTable, relative
from repro.core import AuthorityState, IFCProcess, SeededIdGenerator, \
    counters
from repro.core.labels import EMPTY_LABEL
from repro.db import Database

from .common import SMOKE, report, smoke, write_bench_json

OUTER_ROWS = smoke(4000, 400)
ITEM_ROWS = smoke(50_000, 2_000)
BIG_ROWS = smoke(100_000, 5_000)
PROBE_ROWS = smoke(100, 30)
WORK_MEM = 64 * 1024

RESULTS = {}


def _connect(*, batch_size, work_mem):
    authority = AuthorityState(idgen=SeededIdGenerator(77))
    db = Database(authority, seed=77, batch_size=batch_size,
                  work_mem=work_mem)
    session = db.connect(IFCProcess(authority,
                                    authority.create_principal("b").id))
    return db, session


def _bulk_load(db, table_name, rows):
    """Load rows through the heap directly (the benchmark measures the
    join, not INSERT statement dispatch); labels stay public."""
    table = db.catalog.get_table(table_name)
    txn = db.txn_manager.begin()
    for values in rows:
        table.append(tuple(values), EMPTY_LABEL, EMPTY_LABEL, txn.xid)
    db.txn_manager.commit(txn)


# ---------------------------------------------------------------------------
# batched IndexLoopJoin: one probe per distinct key per batch
# ---------------------------------------------------------------------------

ORDERS_JOIN = ("SELECT COUNT(*), SUM(o.qty) FROM orders o "
               "JOIN items i ON i.item = o.item")


def _probe_stack(batch_size):
    db, session = _connect(batch_size=batch_size, work_mem=0)
    session.execute("CREATE TABLE items (item INT PRIMARY KEY, "
                    "price FLOAT)")
    session.execute("CREATE TABLE orders (oid INT PRIMARY KEY, "
                    "item INT, qty INT)")
    _bulk_load(db, "items", ((i, i * 0.5) for i in range(ITEM_ROWS)))
    # Duplicate-heavy on purpose: 10 hot items across the whole outer.
    _bulk_load(db, "orders", ((i, i % 10, 1 + i % 7)
                              for i in range(OUTER_ROWS)))
    session.execute("ANALYZE")
    return db, session


def test_index_loop_join_probe_dedup():
    outcomes = {}
    for mode, batch_size in (("row", 1), ("batched", 1024)):
        db, session = _probe_stack(batch_size)
        plan = [r[0] for r in session.execute("EXPLAIN " + ORDERS_JOIN)]
        assert any("IndexLoopJoin" in line for line in plan), plan
        session.execute(ORDERS_JOIN)             # warm plan/parse caches
        before = counters.tally().lookups
        start = time.perf_counter()
        row = session.execute(ORDERS_JOIN).rows[0]
        elapsed = time.perf_counter() - start
        outcomes[mode] = {"probes": counters.tally().lookups - before,
                          "seconds": elapsed,
                          "result": tuple(row)}
    assert outcomes["batched"]["result"] == outcomes["row"]["result"]
    # The acceptance floor: >= 20% fewer index probes from dedup.  In
    # practice it is one probe per distinct key per batch (~100x).
    assert outcomes["batched"]["probes"] \
        <= outcomes["row"]["probes"] * 0.8, outcomes

    table = ReportTable(
        "Batched IndexLoopJoin — %d outer rows, 10 distinct keys, "
        "%d-row inner" % (OUTER_ROWS, ITEM_ROWS),
        ["executor", "index probes", "seconds", "vs row"])
    for mode in ("row", "batched"):
        entry = outcomes[mode]
        table.add(mode, entry["probes"], "%.4f" % entry["seconds"],
                  relative(entry["seconds"], outcomes["row"]["seconds"]))
    report(table)
    RESULTS["probe_dedup"] = {
        mode: {"probes": entry["probes"], "seconds": entry["seconds"]}
        for mode, entry in outcomes.items()}


# ---------------------------------------------------------------------------
# spilling HashJoin: memory-bounded build under work_mem
# ---------------------------------------------------------------------------

SPILL_JOIN = ("SELECT p.id, b.k FROM probes p "
              "JOIN big b ON b.grp = p.grp")


def _spill_stack(work_mem):
    db, session = _connect(batch_size=1024, work_mem=work_mem)
    session.execute("CREATE TABLE big (k INT PRIMARY KEY, grp INT, "
                    "pad TEXT)")
    session.execute("CREATE TABLE probes (id INT PRIMARY KEY, grp INT)")
    _bulk_load(db, "big", ((i, i % 2000, "pad-%04d" % (i % 1000))
                           for i in range(BIG_ROWS)))
    _bulk_load(db, "probes", ((i, i * 13 % 2500)
                              for i in range(PROBE_ROWS)))
    session.execute("ANALYZE")
    return db, session


def test_hash_join_spills_under_budget():
    outcomes = {}
    for mode, work_mem in (("unbounded", 0), ("64KB budget", WORK_MEM)):
        db, session = _spill_stack(work_mem)
        before = counters.snapshot()["spill"]
        start = time.perf_counter()
        rows = sorted(tuple(r) for r in session.execute(SPILL_JOIN).rows)
        elapsed = time.perf_counter() - start
        after = counters.snapshot()["spill"]
        outcomes[mode] = {
            "rows": rows, "seconds": elapsed,
            "spill": {k: after[k] - before[k] for k in after},
        }
        if work_mem:
            plan = [r[0] for r in session.execute("EXPLAIN " + SPILL_JOIN)]
            join_line = next(line for line in plan if "HashJoin" in line)
            assert "spill_partitions=" in join_line, join_line
            partitions = int(join_line.split("spill_partitions=")[1]
                             .split()[0])
            est_mem = int(join_line.split("mem=")[1].split("B")[0])
            assert partitions >= 1
            assert est_mem <= work_mem, join_line
            assert outcomes[mode]["spill"]["spills"] >= 1
            RESULTS["spill_explain"] = {"partitions": partitions,
                                        "est_mem_bytes": est_mem}
    assert outcomes["64KB budget"]["rows"] == outcomes["unbounded"]["rows"]

    table = ReportTable(
        "HashJoin spilling — %d-row build side, %d probes, "
        "work_mem=64KB" % (BIG_ROWS, PROBE_ROWS),
        ["configuration", "out rows", "seconds", "rows spilled",
         "partitions", "vs unbounded"])
    for mode in ("unbounded", "64KB budget"):
        entry = outcomes[mode]
        table.add(mode, len(entry["rows"]), "%.4f" % entry["seconds"],
                  entry["spill"]["rows_spilled"],
                  entry["spill"]["partitions_created"],
                  relative(entry["seconds"],
                           outcomes["unbounded"]["seconds"]))
    report(table)
    RESULTS["spill"] = {
        mode: {"out_rows": len(entry["rows"]),
               "seconds": entry["seconds"], "stats": entry["spill"]}
        for mode, entry in outcomes.items()}
    write_bench_json("join_spill", RESULTS)
