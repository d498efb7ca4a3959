"""Projection pushdown: column-at-a-time scans end-to-end.

A seeded 5000-row, 8-column table (4 ints, 4 wide TEXT pads) is scanned
three ways — a 2-column projection, ``SELECT *``, and a narrow
aggregation.  The ``COLUMNS_MATERIALIZED`` counter proves the pushdown
reached the storage layer (a scan projecting 2 of 8 columns copies
exactly ``2 × rows`` cells out of the heap), and the timings show the
win: the narrow scan never pays for the pad columns nobody reads.

The counter assertions are logic-driven, so they run in smoke mode too
— CI's smoke step is the regression gate that keeps pushdown wired all
the way down (the PR-4 covers-count pattern).  The JSON lands at the
repo root for the artifact upload and the cross-PR perf trail.
"""

import time

from repro.core import counters
from repro.db import Database
from repro.bench import ReportTable, relative

from .common import SMOKE, report, smoke, write_bench_json

ROWS = smoke(5000, 200)
N_COLS = 8
NARROW_SQL = "SELECT b, c FROM wide"
STAR_SQL = "SELECT * FROM wide"
AGG_SQL = "SELECT b, COUNT(*), SUM(c) FROM wide GROUP BY b"


def _stack(batch_size=None):
    db = Database(ifc_enabled=False, seed=21, batch_size=batch_size)
    session = db.connect()
    session.execute("CREATE TABLE wide (a INT PRIMARY KEY, b INT, c INT,"
                    " d INT, p1 TEXT, p2 TEXT, p3 TEXT, p4 TEXT)")
    session.begin()
    for i in range(ROWS):
        session.execute(
            "INSERT INTO wide VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (i, i % 97, (i * 13) % 1009, i % 7,
             "pad-one-%04d" % (i % 50), "pad-two-%04d" % (i % 50),
             "pad-three-%04d" % (i % 50), "pad-four-%04d" % (i % 50)))
    session.commit()
    session.execute("ANALYZE")
    return db, session


def _cells(session, sql) -> int:
    counters.reset()
    session.execute(sql)
    return counters.tally().columns_materialized


def _best_time(session, sql, loops=None) -> float:
    loops = loops if loops is not None else smoke(5, 1)
    best = None
    for _round in range(smoke(3, 1)):
        start = time.perf_counter()
        for _ in range(loops):
            session.execute(sql)
        elapsed = (time.perf_counter() - start) / loops
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_projection_pushdown_cells_and_timing():
    _db, session = _stack()
    cells = {
        "narrow": _cells(session, NARROW_SQL),
        "star": _cells(session, STAR_SQL),
        "agg": _cells(session, AGG_SQL),
    }
    # The counter gate (exact, batch-size invariant, smoke-safe): a
    # scan projecting k of 8 columns materializes exactly k cells per
    # visible row — any widening regression breaks the equality.
    assert cells["narrow"] == 2 * ROWS, cells
    assert cells["star"] == N_COLS * ROWS, cells
    assert cells["agg"] == 2 * ROWS, cells

    timings = {
        "narrow": _best_time(session, NARROW_SQL),
        "star": _best_time(session, STAR_SQL),
        "agg": _best_time(session, AGG_SQL),
    }
    # The same narrow query on the size-1 reference leg (one-version
    # chunks, the scan leaf's per-version loop): the set-at-a-time win
    # in one number.
    _db_ref, session_ref = _stack(batch_size=1)
    timings["narrow_size_1"] = _best_time(session_ref, NARROW_SQL)

    table = ReportTable(
        "Projection pushdown — %d-row, %d-column scan" % (ROWS, N_COLS),
        ["query", "cells copied", "ms/query", "vs SELECT *"])
    table.add("SELECT b, c", cells["narrow"],
              "%.2f" % (timings["narrow"] * 1e3),
              relative(timings["narrow"], timings["star"]))
    table.add("SELECT b, c (batch size 1)", cells["narrow"],
              "%.2f" % (timings["narrow_size_1"] * 1e3),
              relative(timings["narrow_size_1"], timings["star"]))
    table.add("SELECT *", cells["star"],
              "%.2f" % (timings["star"] * 1e3), "")
    table.add("GROUP BY b aggregate", cells["agg"],
              "%.2f" % (timings["agg"] * 1e3),
              relative(timings["agg"], timings["star"]))
    report(table)

    write_bench_json("projection", {
        "rows": ROWS,
        "columns": N_COLS,
        "cells_materialized": cells,
        "seconds": timings,
    })

    if SMOKE:
        # 200 rows prove the code path, not the timing claim.
        return
    # The measurable win: never copying 6 unread columns (4 of them
    # wide strings) must beat materializing all 8.
    assert timings["narrow"] < timings["star"] * 0.95, timings
