"""Sort/aggregate spill microbenchmarks: memory-bounded ORDER BY,
GROUP BY, and Top-N.

Three logic-driven gates (they assert in smoke mode too, so the CI
smoke step enforces them like the join-spill gates):

* **External merge sort** — a 100k-row ORDER BY under a 64KB
  ``work_mem`` must spool sorted runs (EXPLAIN shows ``runs >= 2``
  with estimated peak memory within the budget), complete, and return
  *exactly* the unbounded ordering;
* **Grace hash aggregation** — a GROUP BY whose group state exceeds
  the budget must grace-partition (EXPLAIN ``spill_partitions >= 1``)
  and produce group rows and aggregates identical to the in-memory
  aggregation;
* **Top-N** — ORDER BY … LIMIT under the same budget must run its
  bounded heap without touching disk and match the full sort's
  prefix.

``BENCH_sort_spill.json`` records timings and spill statistics at the
repo root; CI uploads it with the other BENCH_* artifacts.
"""

import time

from repro.bench import ReportTable, relative
from repro.core import AuthorityState, IFCProcess, SeededIdGenerator, \
    counters
from repro.core.labels import EMPTY_LABEL
from repro.db import Database

from .common import report, smoke, write_bench_json

BIG_ROWS = smoke(100_000, 5_000)
N_GROUPS = smoke(4000, 1000)
WORK_MEM = 64 * 1024

RESULTS = {}

SORT_SQL = "SELECT id, v FROM big ORDER BY v DESC, id"
AGG_SQL = "SELECT grp, COUNT(*), MAX(v), SUM(id) FROM big GROUP BY grp"
TOPN_SQL = "SELECT id, v FROM big ORDER BY v, id LIMIT 100"


def _stack(work_mem):
    authority = AuthorityState(idgen=SeededIdGenerator(88))
    db = Database(authority, seed=88, batch_size=1024, work_mem=work_mem)
    session = db.connect(IFCProcess(authority,
                                    authority.create_principal("b").id))
    session.execute("CREATE TABLE big (id INT PRIMARY KEY, grp INT, "
                    "v FLOAT, pad TEXT)")
    # Load through the heap directly (the benchmark measures the sort
    # and the aggregation, not INSERT statement dispatch).
    table = db.catalog.get_table("big")
    txn = db.txn_manager.begin()
    for i in range(BIG_ROWS):
        values = (i, (i * 7919) % N_GROUPS, (i * 37 % 9973) / 10.0,
                  "pad-%04d" % (i % 1000))
        table.append(values, EMPTY_LABEL, EMPTY_LABEL, txn.xid)
    db.txn_manager.commit(txn)
    session.execute("ANALYZE")
    return db, session


def _timed(session, sql):
    before = counters.snapshot()["spill"]
    start = time.perf_counter()
    rows = [tuple(r) for r in session.execute(sql).rows]
    elapsed = time.perf_counter() - start
    after = counters.snapshot()["spill"]
    return {"rows": rows, "seconds": elapsed,
            "spill": {k: after[k] - before[k] for k in after}}


def test_external_sort_spills_under_budget():
    outcomes = {}
    for mode, work_mem in (("unbounded", 0), ("64KB budget", WORK_MEM)):
        _db, session = _stack(work_mem)
        outcomes[mode] = _timed(session, SORT_SQL)
        if work_mem:
            plan = [r[0] for r in session.execute("EXPLAIN " + SORT_SQL)]
            sort_line = next(line for line in plan if "Sort" in line)
            assert "runs=" in sort_line, sort_line
            runs = int(sort_line.split("runs=")[1].split()[0])
            est_mem = int(sort_line.split("mem=")[1].split("B")[0])
            assert runs >= 2
            assert est_mem <= work_mem, sort_line
            assert outcomes[mode]["spill"]["sort_spills"] >= 1
            assert outcomes[mode]["spill"]["sort_runs"] >= 2
            RESULTS["sort_explain"] = {"runs": runs,
                                       "est_mem_bytes": est_mem}
    # Identical *ordering*, not just the same set: the k-way merge must
    # reproduce the in-memory sort exactly.
    assert outcomes["64KB budget"]["rows"] == outcomes["unbounded"]["rows"]

    table = ReportTable(
        "External merge sort — %d rows, work_mem=64KB" % BIG_ROWS,
        ["configuration", "out rows", "seconds", "runs", "rows spilled",
         "vs unbounded"])
    for mode in ("unbounded", "64KB budget"):
        entry = outcomes[mode]
        table.add(mode, len(entry["rows"]), "%.4f" % entry["seconds"],
                  entry["spill"]["sort_runs"],
                  entry["spill"]["rows_spilled"],
                  relative(entry["seconds"],
                           outcomes["unbounded"]["seconds"]))
    report(table)
    RESULTS["sort"] = {
        mode: {"out_rows": len(entry["rows"]),
               "seconds": entry["seconds"], "stats": entry["spill"]}
        for mode, entry in outcomes.items()}


def test_grace_aggregation_spills_under_budget():
    outcomes = {}
    for mode, work_mem in (("unbounded", 0), ("64KB budget", WORK_MEM)):
        _db, session = _stack(work_mem)
        outcomes[mode] = _timed(session, AGG_SQL)
        if work_mem:
            plan = [r[0] for r in session.execute("EXPLAIN " + AGG_SQL)]
            agg_line = next(line for line in plan if "Aggregate" in line)
            assert "spill_partitions=" in agg_line, agg_line
            partitions = int(agg_line.split("spill_partitions=")[1]
                             .split()[0])
            est_mem = int(agg_line.split("mem=")[1].split("B")[0])
            assert partitions >= 1
            assert est_mem <= work_mem, agg_line
            assert outcomes[mode]["spill"]["agg_spills"] >= 1
            assert outcomes[mode]["spill"]["agg_partitions"] >= 1
            RESULTS["agg_explain"] = {"partitions": partitions,
                                      "est_mem_bytes": est_mem}
    # Grace partitioning may emit groups in a different order; the
    # group *contents* must be identical.
    assert (sorted(outcomes["64KB budget"]["rows"])
            == sorted(outcomes["unbounded"]["rows"]))
    assert len(outcomes["unbounded"]["rows"]) == N_GROUPS

    table = ReportTable(
        "Grace hash aggregation — %d rows, %d groups, work_mem=64KB"
        % (BIG_ROWS, N_GROUPS),
        ["configuration", "groups", "seconds", "partitions",
         "rows spilled", "vs unbounded"])
    for mode in ("unbounded", "64KB budget"):
        entry = outcomes[mode]
        table.add(mode, len(entry["rows"]), "%.4f" % entry["seconds"],
                  entry["spill"]["agg_partitions"],
                  entry["spill"]["rows_spilled"],
                  relative(entry["seconds"],
                           outcomes["unbounded"]["seconds"]))
    report(table)
    RESULTS["agg"] = {
        mode: {"groups": len(entry["rows"]),
               "seconds": entry["seconds"], "stats": entry["spill"]}
        for mode, entry in outcomes.items()}


def test_topn_heap_stays_in_memory():
    outcomes = {}
    for mode, work_mem in (("unbounded", 0), ("64KB budget", WORK_MEM)):
        _db, session = _stack(work_mem)
        outcomes[mode] = _timed(session, TOPN_SQL)
        if work_mem:
            # The 100-row heap fits the budget: no runs, no disk.
            assert outcomes[mode]["spill"]["sort_spills"] == 0, \
                outcomes[mode]["spill"]
            assert outcomes[mode]["spill"]["rows_spilled"] == 0
    assert outcomes["64KB budget"]["rows"] == outcomes["unbounded"]["rows"]
    assert len(outcomes["unbounded"]["rows"]) == 100

    table = ReportTable(
        "Top-N bounded heap — %d rows, LIMIT 100, work_mem=64KB"
        % BIG_ROWS,
        ["configuration", "out rows", "seconds", "rows spilled",
         "vs unbounded"])
    for mode in ("unbounded", "64KB budget"):
        entry = outcomes[mode]
        table.add(mode, len(entry["rows"]), "%.4f" % entry["seconds"],
                  entry["spill"]["rows_spilled"],
                  relative(entry["seconds"],
                           outcomes["unbounded"]["seconds"]))
    report(table)
    RESULTS["topn"] = {
        mode: {"out_rows": len(entry["rows"]),
               "seconds": entry["seconds"], "stats": entry["spill"]}
        for mode, entry in outcomes.items()}
    write_bench_json("sort_spill", RESULTS)
