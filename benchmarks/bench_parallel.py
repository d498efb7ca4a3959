"""Parallel execution: per-partition spilled joins.

Serial (``workers=0``) versus gang execution on the one shape the
worker gang runs: a **grace-spilled hash join** under a tight
``work_mem`` — the key-disjoint spilled partitions are re-joined by the
gang, one partition stream per worker.  (A gang over a filtered
100k-row heap scan was measured here too, on two cores, seven
alternating pairs: serial 48.7 ms, gang 108.7 ms — 0.45x, 0 of 7 —
so scans stay serial and that shape is gone.)

The join must return exactly the serial rows in the serial order, and
the label-check counters merged back from the workers must equal the
serial counts (the zero-slack merge protocol) — those assertions run
at smoke scale too.  The **speedup** is the ratio of the median serial
to the median gang time over ``PAIRS`` alternating pairs; it is
recorded, and with >= 2 cores in measured mode it must not fall below
1.0 (smoke row counts are IPC-dominated by design).

``BENCH_parallel.json`` records timings, the speedup, and the
statement counter deltas at the repo root.
"""

import os
import statistics
import time

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator
from repro.core.labels import EMPTY_LABEL
from repro.db import Database
from repro.db.parallel import FORK_AVAILABLE

from .common import SMOKE, report, smoke, write_bench_json
from repro.bench import ReportTable, relative

FACT_ROWS = smoke(60_000, 3_000)
PROBE_ROWS = smoke(60, 20)
JOIN_WORK_MEM = smoke(256 * 1024, 8 * 1024)
PAIRS = smoke(7, 1)
# At least 2 so the gang genuinely forks even on a single-core box
# (time-sliced — no speedup, but the codec and the counter merge all
# run for real); the speedup gate below only fires with >= 2 actual
# cores.
WORKERS = max(2, min(4, os.cpu_count() or 1))

JOIN_SQL = ("SELECT p.id, f.k FROM probes p "
            "JOIN fact f ON f.grp = p.grp")

RESULTS = {"workers": WORKERS, "cpus": os.cpu_count(),
           "fork_available": FORK_AVAILABLE}


def _connect(*, workers, work_mem=0):
    authority = AuthorityState(idgen=SeededIdGenerator(91))
    db = Database(authority, seed=91, batch_size=1024,
                  work_mem=work_mem, workers=workers)
    session = db.connect(IFCProcess(authority,
                                    authority.create_principal("b").id))
    return db, session


def _bulk_load(db, table_name, rows):
    table = db.catalog.get_table(table_name)
    txn = db.txn_manager.begin()
    for values in rows:
        table.append(tuple(values), EMPTY_LABEL, EMPTY_LABEL, txn.xid)
    db.txn_manager.commit(txn)


def _join_stack(workers):
    db, session = _connect(workers=workers, work_mem=JOIN_WORK_MEM)
    session.execute("CREATE TABLE fact (k INT PRIMARY KEY, grp INT, "
                    "pad TEXT)")
    session.execute("CREATE TABLE probes (id INT PRIMARY KEY, grp INT)")
    _bulk_load(db, "fact", ((i, i % 3000, "pad-%05d" % (i % 1500))
                            for i in range(FACT_ROWS)))
    _bulk_load(db, "probes", ((i, i * 13 % 3500)
                              for i in range(PROBE_ROWS)))
    session.execute("ANALYZE")
    return db, session


def _measure(db, session, sql):
    """Time one execution and capture the per-statement counter deltas
    of the timed run."""
    start = time.perf_counter()
    rows = [tuple(r) for r in session.execute(sql).rows]
    elapsed = time.perf_counter() - start
    return rows, elapsed, db.last_statement_metrics()


def test_parallel_spilled_join():
    stacks = {"serial": _join_stack(0), "parallel": _join_stack(WORKERS)}
    seconds = {"serial": [], "parallel": []}
    for db, session in stacks.values():
        session.execute(JOIN_SQL)                 # warm the plan cache
    for pair in range(PAIRS):
        for side in (("serial", "parallel") if pair % 2 == 0
                     else ("parallel", "serial")):
            rows, elapsed, delta = _measure(*stacks[side], JOIN_SQL)
            seconds[side].append(elapsed)
            RESULTS[side + "_counters"] = delta
            RESULTS[side + "_rows"] = rows

    # Correctness gates run in smoke mode too: identical rows in
    # identical order, and zero-slack label counters after the merge.
    assert RESULTS.pop("parallel_rows") == RESULTS["serial_rows"]
    assert RESULTS["parallel_counters"]["labels"] \
        == RESULTS["serial_counters"]["labels"]
    if FORK_AVAILABLE:
        plan = [r[0] for r in stacks["parallel"][1].execute(
            "EXPLAIN " + JOIN_SQL)]
        line = next(l for l in plan if "HashJoin" in l)
        assert "workers=%d" % WORKERS in line, line

    serial_s = statistics.median(seconds["serial"])
    gang_s = statistics.median(seconds["parallel"])
    RESULTS.update(
        rows_out=len(RESULTS.pop("serial_rows")), pairs=PAIRS,
        serial_seconds=seconds["serial"],
        parallel_seconds=seconds["parallel"],
        speedup=serial_s / gang_s,
        parallel_wins=sum(g < s for s, g in zip(seconds["serial"],
                                                seconds["parallel"])))

    table = ReportTable(
        "Parallel execution — %d workers, %d-row spilled join build, "
        "median of %d alternating pairs" % (WORKERS, FACT_ROWS, PAIRS),
        ["shape", "rows out", "serial s", "parallel s", "speedup"])
    table.add("spilled_join", RESULTS["rows_out"], "%.4f" % serial_s,
              "%.4f" % gang_s, relative(gang_s, serial_s))
    report(table)

    # With >= 2 real cores the gang must at least pay for itself.
    # Smoke scale is IPC-dominated, so the gate is measured-mode only.
    if not SMOKE and FORK_AVAILABLE and (os.cpu_count() or 1) >= 2:
        assert RESULTS["speedup"] >= 1.0, RESULTS
    write_bench_json("parallel", RESULTS)
