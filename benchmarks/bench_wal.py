"""WAL commit-path microbenchmark: durability off vs fsync-per-commit,
plus recovery replay throughput.

Two configurations run the same seeded insert/update workload from one
session:

* **no WAL** — the seed behaviour: commits mutate the heap only;
* **WAL** — every commit is one record + one fsync (a single session
  has nothing to batch; what concurrent committers share is measured
  by ``benchmarks/e2e``'s ``durable_commit`` and pinned by
  ``tests/test_wal.py::TestGroupCommit``).

One logic-driven gate (asserted in smoke mode too, so the CI smoke
step enforces it): recovery must reproduce the workload exactly — the
replayed database's live row count equals the writer's, and a second
replay is a no-op.

``BENCH_wal.json`` records commit throughput, per-commit latency,
flush counts, WAL byte volume, and recovery replay rate.
"""

import os
import tempfile
import time

from repro.bench import ReportTable, relative
from repro.core import AuthorityState, IFCProcess, SeededIdGenerator, \
    counters
from repro.db import Database

from .common import report, smoke, write_bench_json

N_COMMITS = smoke(2_000, 60)

RESULTS = {}


def _stack(wal_path):
    authority = AuthorityState(idgen=SeededIdGenerator(99))
    db = Database(authority, seed=99, wal=wal_path)
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
    # Single session: one flush per commit.
    delta = outcomes["WAL fsync/commit"]["wal"]
    assert delta["commits"] == N_COMMITS
    assert delta["commit_flushes"] == N_COMMITS

    # -- recovery ----------------------------------------------------------
    writer_rows = len(db_fsync.connect().query("SELECT id FROM ledger"))
    recovered = Database(db_fsync.authority)
    start = time.perf_counter()
    replay = recovered.recover(fsync_path)
    recover_seconds = time.perf_counter() - start
    recovered_rows = len(recovered.connect().query("SELECT id FROM ledger"))
    # Gate: recovery reproduces the workload and replays idempotently.
    assert recovered_rows == writer_rows, (recovered_rows, writer_rows)
    again = recovered.recover(fsync_path)
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
        "WAL commit path — %d commits" % N_COMMITS,
        ["configuration", "commits/s", "ms/commit", "flushes", "wal KB",
         "vs no WAL"])
    base = outcomes["no WAL"]["seconds"]
    for mode in ("no WAL", "WAL fsync/commit"):
        entry = outcomes[mode]
        wal = entry["wal"]
        table.add(mode,
                  "%.0f" % (entry["commits"] / entry["seconds"]),
                  "%.3f" % (1000.0 * entry["seconds"] / entry["commits"]),
                  wal.get("commit_flushes", "-"),
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
