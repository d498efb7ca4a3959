"""WAL commit-path microbenchmark: durability off vs fsync-per-commit
vs group commit, plus recovery replay throughput.

Three configurations run the same seeded insert/update workload:

* **no WAL** — the seed behaviour: commits mutate the heap only;
* **WAL, fsync per commit** — every commit is one record + one fsync
  (``group_commit_ms=0``, single session: nothing to batch);
* **WAL, group commit** — the same number of commits issued from
  concurrent sessions with a commit-delay window, so one fsync covers
  many commits.

Two logic-driven gates (asserted in smoke mode too, so the CI smoke
step enforces them):

* group commit must actually group — fewer commit flushes than
  commits, with at least one flush absorbing ≥ 2 commits;
* recovery must reproduce the workload exactly — the replayed
  database's live row count equals the writer's, and a second replay
  is a no-op.

``BENCH_wal.json`` records commit throughput, per-commit latency,
flush counts, WAL byte volume, and recovery replay rate.
"""

import os
import tempfile
import threading
import time

from repro.bench import ReportTable, relative
from repro.core import AuthorityState, IFCProcess, SeededIdGenerator, \
    counters
from repro.db import Database

from .common import report, smoke, write_bench_json

N_COMMITS = smoke(2_000, 60)
GROUP_SESSIONS = smoke(8, 4)
GROUP_COMMIT_MS = 2.0

RESULTS = {}


def _stack(wal_path, group_commit_ms=0.0):
    authority = AuthorityState(idgen=SeededIdGenerator(99))
    db = Database(authority, seed=99, wal=wal_path,
                  group_commit_ms=group_commit_ms)
    session = db.connect(IFCProcess(authority,
                                    authority.create_principal("b").id))
    session.execute("CREATE TABLE ledger (id INT PRIMARY KEY, "
                    "account INT, amount INT)")
    return db, session


def _wal_delta(before, after):
    return {k: after[k] - before[k] for k in after}


def _serial_commits(session, n):
    """One transaction (insert + update) per commit, single session."""
    start = time.perf_counter()
    for i in range(n):
        with session.atomic():
            session.execute("INSERT INTO ledger VALUES (?, ?, ?)",
                            (i, i % 10, 100))
            if i % 4 == 3:
                session.execute(
                    "UPDATE ledger SET amount = amount + 1 WHERE id = ?",
                    (i - 1,))
    return time.perf_counter() - start


def _grouped_commits(db, n, sessions):
    """The same commit count, issued from concurrent sessions in waves
    so the commit-delay window has stragglers to absorb."""
    pool = []
    for s in range(sessions):
        sess = db.connect()
        pool.append(sess)
    done = 0
    start = time.perf_counter()
    wave_id = 0
    while done < n:
        wave = min(sessions, n - done)
        for k in range(wave):
            sess = pool[k]
            sess.begin()
            i = done + k
            sess.execute("INSERT INTO ledger VALUES (?, ?, ?)",
                         (1_000_000 + i, i % 10, 100))
        barrier = threading.Barrier(wave)

        def commit(sess):
            barrier.wait()
            sess.commit()

        threads = [threading.Thread(target=commit, args=(pool[k],))
                   for k in range(wave)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        done += wave
        wave_id += 1
    return time.perf_counter() - start


def test_wal_commit_throughput_and_recovery():
    tmpdir = tempfile.mkdtemp(prefix="bench-wal-")
    outcomes = {}

    # -- no WAL ------------------------------------------------------------
    _db, session = _stack(None)
    seconds = _serial_commits(session, N_COMMITS)
    outcomes["no WAL"] = {"seconds": seconds, "commits": N_COMMITS,
                          "wal": {}}

    # -- WAL, fsync per commit --------------------------------------------
    fsync_path = os.path.join(tmpdir, "fsync.wal")
    db_fsync, session = _stack(fsync_path)
    before = counters.snapshot()["wal"]
    seconds = _serial_commits(session, N_COMMITS)
    outcomes["WAL fsync/commit"] = {
        "seconds": seconds, "commits": N_COMMITS,
        "wal": _wal_delta(before, counters.snapshot()["wal"])}
    # Single session, no delay window: one flush per commit.
    delta = outcomes["WAL fsync/commit"]["wal"]
    assert delta["commits"] == N_COMMITS
    assert delta["commit_flushes"] == N_COMMITS

    # -- WAL, group commit -------------------------------------------------
    group_path = os.path.join(tmpdir, "group.wal")
    db_group, session = _stack(group_path,
                               group_commit_ms=GROUP_COMMIT_MS)
    before = counters.snapshot()["wal"]
    seconds = _grouped_commits(db_group, N_COMMITS, GROUP_SESSIONS)
    after = counters.snapshot()["wal"]
    outcomes["WAL group commit"] = {
        "seconds": seconds, "commits": N_COMMITS,
        "wal": _wal_delta(before, after)}
    delta = outcomes["WAL group commit"]["wal"]
    assert delta["commits"] == N_COMMITS
    # Gate: grouping actually happened.
    assert delta["commit_flushes"] < N_COMMITS, delta
    assert after["group_commit_size"] >= 2, after

    # -- recovery ----------------------------------------------------------
    writer_rows = len(db_group.connect().query("SELECT id FROM ledger"))
    authority = db_group.authority
    recovered = Database(authority)
    start = time.perf_counter()
    replay = recovered.recover(group_path)
    recover_seconds = time.perf_counter() - start
    recovered_rows = len(recovered.connect().query("SELECT id FROM ledger"))
    # Gate: recovery reproduces the workload and replays idempotently.
    assert recovered_rows == writer_rows, (recovered_rows, writer_rows)
    again = recovered.recover(group_path)
    assert again["applied"] == 0, again
    RESULTS["recovery"] = {
        "seconds": recover_seconds,
        "transactions": replay["transactions"],
        "txn_per_second": (replay["transactions"] / recover_seconds
                           if recover_seconds else None),
        "rows": recovered_rows,
    }

    # -- report ------------------------------------------------------------
    table = ReportTable(
        "WAL commit path — %d commits (group: %d sessions, %.1fms window)"
        % (N_COMMITS, GROUP_SESSIONS, GROUP_COMMIT_MS),
        ["configuration", "commits/s", "ms/commit", "flushes",
         "max batch", "wal KB", "vs no WAL"])
    base = outcomes["no WAL"]["seconds"]
    for mode in ("no WAL", "WAL fsync/commit", "WAL group commit"):
        entry = outcomes[mode]
        wal = entry["wal"]
        table.add(mode,
                  "%.0f" % (entry["commits"] / entry["seconds"]),
                  "%.3f" % (1000.0 * entry["seconds"] / entry["commits"]),
                  wal.get("commit_flushes", "-"),
                  wal.get("group_commit_size", "-") if wal else "-",
                  "%.0f" % (wal.get("bytes", 0) / 1024.0) if wal else "-",
                  relative(entry["seconds"], base))
        RESULTS[mode] = {"seconds": entry["seconds"],
                         "commits": entry["commits"], "wal": wal}
    report(table)
    table2 = ReportTable("WAL recovery replay", ["transactions", "seconds",
                                                 "txn/s"])
    table2.add(replay["transactions"], "%.4f" % recover_seconds,
               "%.0f" % (replay["transactions"] / recover_seconds)
               if recover_seconds else "-")
    report(table2)
    write_bench_json("wal", RESULTS)
