"""Parallel execution (db/parallel.py): the spilled-partition gang.

The contract under test: turning workers on may only change *where*
work runs, never what a statement returns, raises, or counts —

* a spilled hash join / hash aggregate fans its key-disjoint grace
  partitions out to the gang and still produces the serial output in
  the serial order (and byte-identical spill counters);
* a worker exception re-raises in the coordinator with the same type
  the serial execution would raise;
* scans are never parallelized, and EXPLAIN shows the fan-out
  (``workers=N``) on the operators that would use it.
"""

from __future__ import annotations

import pytest

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator
from repro.db import Database
from repro.db.parallel import FORK_AVAILABLE, split_ranges

pytestmark = pytest.mark.skipif(
    not FORK_AVAILABLE, reason="no fork on this platform")

N_ROWS = 900


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
# planner + EXPLAIN
# ---------------------------------------------------------------------------

def _plan_lines(session, sql):
    return [r[0] for r in session.execute("EXPLAIN " + sql)]


def test_scans_are_never_parallelized():
    """A gang over a plain heap scan lost to the serial scan once fork,
    codec and pipe were paid (0.45x on two cores), so no exchange
    operator exists: a scan plans the same with or without workers."""
    _db0, s0, _ = _stack(0)
    _db2, s2, _ = _stack(2)
    for sql in ("SELECT id, x FROM t WHERE g = 5",
                "SELECT x FROM t WHERE id = 17"):
        assert _plan_lines(s2, sql) == _plan_lines(s0, sql)
        assert not any("workers=" in line for line in _plan_lines(s2, sql))


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


def _assert_counts_match(serial_db, gang_db):
    """A gang and a serial run do the same work: the workers' deltas
    merge into the coordinating statement, so every counter group
    about execution reads the same — no field is exempt."""
    serial = serial_db.last_statement_metrics()
    gang = gang_db.last_statement_metrics()
    for group in ("exec", "labels", "index", "spill"):
        assert gang[group] == serial[group], group


def test_parallel_spilled_join_matches_serial():
    db0, s0, _ = _stack(0, work_mem=4096)
    db2, s2, _ = _stack(2, work_mem=4096)
    serial = _rows(s0, JOIN_SQL)
    parallel = _rows(s2, JOIN_SQL)
    assert db0.last_statement_metrics()["spill"]["spills"] >= 1
    assert serial == parallel                     # rows AND order
    # Byte-identical spill work (same partitions, same spooled rows),
    # and the same rows built, labels checked and indexes probed.
    _assert_counts_match(db0, db2)


def test_parallel_spilled_aggregate_matches_serial():
    db0, s0, _ = _stack(0, work_mem=1024)
    db2, s2, _ = _stack(2, work_mem=1024)
    serial = _rows(s0, AGG_SQL)
    parallel = _rows(s2, AGG_SQL)
    assert db0.last_statement_metrics()["spill"]["agg_spills"] >= 1
    assert serial == parallel
    _assert_counts_match(db0, db2)


def test_explain_renders_join_and_aggregate_workers():
    _db, session, _ = _stack(2, work_mem=4096)
    join_lines = _plan_lines(session, JOIN_SQL)
    join = next(line for line in join_lines if "HashJoin" in line)
    assert "workers=2" in join
    agg_lines = _plan_lines(session, AGG_SQL)
    agg = next(line for line in agg_lines if "Aggregate" in line)
    assert "workers=2" in agg


def test_worker_error_reraises_with_serial_type(monkeypatch):
    """A SUM that meets a string in a spilled group fails inside a
    partition worker (group 22 is first seen last, long after the
    1 KB budget filled); the coordinator re-raises the worker's
    exception with the type the serial partition loop raises."""
    from repro.db import parallel
    sql = ("SELECT g, SUM(CASE WHEN id = 712 THEN note ELSE x END) "
           "FROM t GROUP BY g")
    gangs = []
    run_gang = parallel.run_gang

    def recording(tasks):
        gangs.append(len(tasks))
        yield from run_gang(tasks)

    monkeypatch.setattr(parallel, "run_gang", recording)
    errors = []
    for workers in (0, 2):
        _db, session, _ = _stack(workers, work_mem=1024)
        with pytest.raises(Exception) as raised:
            session.execute(sql)
        errors.append(type(raised.value))
    assert errors[0] is errors[1] is TypeError
    assert gangs == [2]                  # only the workers=2 run forked


def test_spilled_join_runs_serially_without_fork(monkeypatch):
    """With the gang unavailable at run time the partition phase runs
    in the coordinator — same rows, same order."""
    from repro.db import parallel
    _db2, s2, _ = _stack(2, work_mem=4096)
    expected = _rows(s2, JOIN_SQL)
    monkeypatch.setattr(parallel, "FORK_AVAILABLE", False)
    monkeypatch.setattr(parallel, "run_gang", None)     # would raise
    assert _rows(s2, JOIN_SQL) == expected


def test_a_worker_never_forks_a_nested_gang(monkeypatch, tmp_path):
    """A LEFT JOIN's residual subquery runs wherever its join pair is
    formed — inside a partition worker for spooled probe rows — and
    here it spills an aggregate of its own.  Only the coordinator may
    fork: inside a worker the spilled groups fold serially."""
    import os
    from repro.db import parallel
    log = tmp_path / "gangs"
    run_gang = parallel.run_gang

    def recording(tasks):
        with open(log, "a") as handle:
            handle.write("%d\n" % os.getpid())
        yield from run_gang(tasks)

    monkeypatch.setattr(parallel, "run_gang", recording)
    sql = ("SELECT a.id, b.id FROM t a LEFT JOIN t b ON a.g = b.g "
           "AND b.x <= (SELECT MAX(c.x) FROM t c WHERE c.id <= a.id + 200 "
           "GROUP BY c.g ORDER BY 1 DESC LIMIT 1) WHERE a.id < 12")
    _db0, s0, _ = _stack(0, work_mem=1024, rows=300)
    _db2, s2, _ = _stack(2, work_mem=1024, rows=300)
    assert _rows(s2, sql) == _rows(s0, sql)
    pids = set(log.read_text().split())
    assert pids == {str(os.getpid())}
