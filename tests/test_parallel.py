"""Parallel execution (db/parallel.py + the Gather exchange operator).

The contract under test: turning workers on may only change *where*
work runs, never what a statement returns, raises, or counts —

* a gathered scan returns exactly the serial rows **in the serial
  order** (contiguous chunk ranges drained in worker order);
* the label-check counters (``covers``/``strip``/suppressions) merged
  back from the workers equal the serial counts exactly: chunk
  boundaries are plan-determined, not worker-count-determined;
* a spilled hash join / hash aggregate fans its key-disjoint grace
  partitions out to the gang and still produces the serial output
  (and byte-identical spill counters);
* a worker exception re-raises in the coordinator with the same type
  the serial execution would raise;
* the planner only parallelizes what it can prove safe: plain full
  scans with column-only predicates — never index scans,
  declassifying views, or subquery predicates — and EXPLAIN shows the
  fan-out (``workers=N``).
"""

from __future__ import annotations

import pytest

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator
from repro.db import Database
from repro.db.parallel import FORK_AVAILABLE, split_ranges

pytestmark = pytest.mark.skipif(
    not FORK_AVAILABLE, reason="no fork on this platform")

N_ROWS = 5000


@pytest.fixture(autouse=True)
def _low_fanout_floor(monkeypatch):
    """Plan-time cost gate low enough for test-sized tables."""
    monkeypatch.setenv("REPRO_PARALLEL_MIN_ROWS", "64")


def _stack(workers, *, work_mem=0, batch_size=None, rows=N_ROWS,
           secret_every=0):
    authority = AuthorityState(idgen=SeededIdGenerator(41))
    db = Database(authority, seed=41, workers=workers,
                  work_mem=work_mem, batch_size=batch_size)
    owner = authority.create_principal("owner")
    tag = authority.create_tag("secret", owner=owner.id)
    writer_proc = IFCProcess(authority, owner.id)
    writer = db.connect(writer_proc)
    writer.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, g INT, x INT, note TEXT)")
    secret_writer_proc = IFCProcess(authority, owner.id)
    secret_writer_proc.add_secrecy(tag.id)
    secret_writer = db.connect(secret_writer_proc)
    for i in range(rows):
        target = (secret_writer
                  if secret_every and i % secret_every == 0 else writer)
        target.execute("INSERT INTO t VALUES (?, ?, ?, ?)",
                       (i, i % 23, i * 3, "n%d" % i))
    writer.execute("ANALYZE")
    return db, writer, tag


def _rows(session, sql):
    return [tuple(r) for r in session.execute(sql).rows]


def _select_delta(db, session, sql):
    session.execute(sql)
    return db.last_statement_metrics()


# ---------------------------------------------------------------------------
# range splitting
# ---------------------------------------------------------------------------

def test_split_ranges_tile_contiguously():
    for start, stop, workers in ((0, 10, 3), (1, 8, 4), (0, 2, 8),
                                 (3, 3, 2), (0, 100, 7)):
        ranges = split_ranges(start, stop, workers)
        # Tiles [start, stop) exactly: contiguous, ordered, no overlap.
        covered = [i for lo, hi in ranges for i in range(lo, hi)]
        assert covered == list(range(start, stop))
        assert len(ranges) <= max(workers, 0)
        assert all(lo < hi for lo, hi in ranges)


# ---------------------------------------------------------------------------
# gathered scans
# ---------------------------------------------------------------------------

def test_parallel_scan_matches_serial_rows_and_order():
    db0, s0, _ = _stack(0, secret_every=7)
    db2, s2, _ = _stack(2, secret_every=7)
    for sql in ("SELECT id, x FROM t",
                "SELECT id, x FROM t WHERE g = 5",
                "SELECT id FROM t WHERE x > 7000 ORDER BY id DESC"):
        assert _rows(s0, sql) == _rows(s2, sql), sql


def test_parallel_scan_label_counters_equal_serial():
    """Merged worker counters land in the statement bracket with zero
    slack, and the label-check totals are plan-determined: the same
    chunk boundaries produce the same per-batch memo probes no matter
    how many workers split the scan."""
    db0, s0, _ = _stack(0, secret_every=7)
    db2, s2, _ = _stack(2, secret_every=7)
    db3, s3, _ = _stack(3, secret_every=7)
    sql = "SELECT id, x FROM t WHERE g = 5"
    serial = _select_delta(db0, s0, sql)
    for db, session in ((db2, s2), (db3, s3)):
        parallel = _select_delta(db, session, sql)
        assert parallel["labels"] == serial["labels"]
        assert parallel["rows"] == serial["rows"]


def test_parallel_scan_suppression_counts_equal_serial():
    """Query-by-Label suppression happens inside the workers; the
    merged ``rows_suppressed`` must equal the serial count."""
    db0, s0, _ = _stack(0, secret_every=5)
    db2, s2, _ = _stack(2, secret_every=5)
    sql = "SELECT id FROM t"
    serial = _select_delta(db0, s0, sql)
    parallel = _select_delta(db2, s2, sql)
    assert serial["labels"]["rows_suppressed"] == N_ROWS // 5
    assert parallel["labels"] == serial["labels"]
    assert _rows(s0, sql) == _rows(s2, sql)


def test_worker_error_reraises_with_serial_type():
    db0, s0, _ = _stack(0)
    db2, s2, _ = _stack(2)
    for sql in ("SELECT id FROM t WHERE 100 / (x - 150) > 0",
                "SELECT id FROM t WHERE x < note"):
        with pytest.raises(Exception) as serial_exc:
            s0.execute(sql)
        with pytest.raises(Exception) as parallel_exc:
            s2.execute(sql)
        assert type(parallel_exc.value) is type(serial_exc.value), sql


# ---------------------------------------------------------------------------
# planner safety proof + EXPLAIN
# ---------------------------------------------------------------------------

def _plan_lines(session, sql):
    return [r[0] for r in session.execute("EXPLAIN " + sql)]


def test_explain_renders_gather_workers():
    _db, session, _ = _stack(2)
    lines = _plan_lines(session, "SELECT id, x FROM t WHERE g = 5")
    gather = next(line for line in lines if "Gather" in line)
    assert "workers=2" in gather
    # The scan is the Gather's child (indented one level deeper).
    gi = lines.index(gather)
    assert "Scan t" in lines[gi + 1]


def test_explain_analyze_gathered_scan_line_claims_no_label_figures():
    """The scan under a forked Gather ran in the workers: what it
    suppressed is on the Gather line (merged worker counters), and the
    scan line must not print a zero it never measured."""
    _db, session, _ = _stack(2, secret_every=5)
    lines = [r[0] for r in session.execute(
        "EXPLAIN ANALYZE SELECT id, x FROM t WHERE g = 5")]
    gi = next(i for i, line in enumerate(lines) if "Gather" in line)
    assert "suppressed=%d" % (N_ROWS // 5) in lines[gi], lines
    assert "Scan t" in lines[gi + 1]
    assert "suppressed=" not in lines[gi + 1], lines
    assert "labels/batch=" not in lines[gi + 1], lines


def test_index_scans_are_not_gathered():
    _db, session, _ = _stack(2)
    lines = _plan_lines(session, "SELECT x FROM t WHERE id = 17")
    assert any("IndexScan" in line for line in lines)
    assert not any("Gather" in line for line in lines)


def test_subquery_predicates_stay_above_the_gather():
    """A subquery predicate executes nested statements, so it may not
    run inside a worker.  The planner strips it out of the scan into a
    coordinator-side Filter; only the columns-only residue is
    gathered."""
    _db, session, _ = _stack(2)
    lines = _plan_lines(
        session,
        "SELECT id FROM t WHERE x > (SELECT MIN(x) FROM t) AND id < 5")
    filter_at = next(i for i, line in enumerate(lines)
                     if "subquery" in line)
    gather_at = next(i for i, line in enumerate(lines)
                     if "Gather" in line)
    assert filter_at < gather_at
    # Nothing below the Gather mentions the subquery.
    assert all("subquery" not in line for line in lines[gather_at:])


def test_declassifying_views_are_not_gathered():
    """View-authority audit records must be written by the
    coordinator; a worker's audit rows would die with its process."""
    db, session, tag = _stack(2, secret_every=3)
    session.execute(
        "CREATE VIEW leaky AS SELECT id, x FROM t "
        "WITH DECLASSIFYING (secret)")
    lines = _plan_lines(session, "SELECT id FROM leaky")
    assert not any("Gather" in line for line in lines)


def test_small_tables_stay_serial(monkeypatch):
    """The optimizer's fan-out cost gate: under the row floor the
    exchange does not pay for its fork."""
    monkeypatch.setenv("REPRO_PARALLEL_MIN_ROWS", "1000000")
    _db, session, _ = _stack(2)
    lines = _plan_lines(session, "SELECT id, x FROM t")
    assert not any("Gather" in line for line in lines)


def test_naive_plans_stay_serial():
    authority = AuthorityState(idgen=SeededIdGenerator(41))
    db = Database(authority, seed=41, workers=4, naive_plans=True)
    assert db.planner.workers == 0


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    authority = AuthorityState(idgen=SeededIdGenerator(41))
    db = Database(authority, seed=41)
    assert db.workers == 3
    assert db.planner.workers == 3


# ---------------------------------------------------------------------------
# spilled join / aggregate partition gangs
# ---------------------------------------------------------------------------

JOIN_SQL = ("SELECT a.id, b.id FROM t a JOIN t b ON a.g = b.g "
            "WHERE a.id < 40")
AGG_SQL = "SELECT g, COUNT(*), MIN(x), MAX(note) FROM t GROUP BY g"


def test_parallel_spilled_join_matches_serial():
    db0, s0, _ = _stack(0, work_mem=4096, rows=900)
    db2, s2, _ = _stack(2, work_mem=4096, rows=900)
    serial = _rows(s0, JOIN_SQL)
    parallel = _rows(s2, JOIN_SQL)
    assert db0.last_statement_metrics()["spill"]["spills"] >= 1
    assert serial == parallel                     # rows AND order
    # Byte-identical spill work: same partitions, same spooled rows.
    assert db2.last_statement_metrics()["spill"] \
        == db0.last_statement_metrics()["spill"]


def test_parallel_spilled_aggregate_matches_serial():
    db0, s0, _ = _stack(0, work_mem=1024, rows=900)
    db2, s2, _ = _stack(2, work_mem=1024, rows=900)
    serial = _rows(s0, AGG_SQL)
    parallel = _rows(s2, AGG_SQL)
    assert db0.last_statement_metrics()["spill"]["agg_spills"] >= 1
    assert serial == parallel
    assert db2.last_statement_metrics()["spill"] \
        == db0.last_statement_metrics()["spill"]


def test_explain_renders_join_and_aggregate_workers():
    _db, session, _ = _stack(2, work_mem=4096, rows=900)
    join_lines = _plan_lines(session, JOIN_SQL)
    join = next(line for line in join_lines if "HashJoin" in line)
    assert "workers=2" in join
    agg_lines = _plan_lines(session, AGG_SQL)
    agg = next(line for line in agg_lines if "Aggregate" in line)
    assert "workers=2" in agg


def test_gather_passthrough_without_fork(monkeypatch):
    """With the gang unavailable at run time the exchange degrades to
    a transparent pass-through — same rows, same order."""
    from repro.db import parallel
    db2, s2, _ = _stack(2)
    sql = "SELECT id, x FROM t WHERE g = 5"
    expected = _rows(s2, sql)
    monkeypatch.setattr(parallel, "FORK_AVAILABLE", False)
    assert _rows(s2, sql) == expected
