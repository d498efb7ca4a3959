"""The counter schema (core/counters.py) and the statement-level
collectors wired through it (db/metrics.py): per-statement deltas,
pg_stat_statements-style aggregation, the slow-query log, and the IFC
audit trail.

These pin the observability contracts the rest of the suite (and the
benchmarks) rely on:

* one schema spans every counter family; the hot paths count on a
  per-thread tally and ``snapshot()`` sums the threads, exited ones
  included;
* ``Database.stats()`` reports *all* families under the names the
  tracked benchmark resolves;
* ARCHITECTURE.md's counter table, low/high marks included, is a
  rendering of the schema;
* audit events fire for the paper's three observable security actions:
  suppression under the Label Confinement Rule, declassifying-view
  invocation, and write-rule denial.
"""

from __future__ import annotations

import os
import re
import sys
import threading

import pytest

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator, \
    counters
from repro.core.counters import tally
from repro.db import Database
from repro.errors import AuthorityError, IFCViolation
from repro.sql import lexer


def _fresh(**kwargs):
    authority = AuthorityState(idgen=SeededIdGenerator(777))
    db = Database(authority, seed=777, **kwargs)
    owner = authority.create_principal("owner")
    tag = authority.create_tag("secret", owner=owner.id)
    public = db.connect(IFCProcess(authority, owner.id))
    secret_proc = IFCProcess(authority, owner.id)
    secret_proc.add_secrecy(tag.id)
    secret = db.connect(secret_proc)
    return db, public, secret, tag, authority, owner


# ---------------------------------------------------------------------------
# the counter schema and the per-thread tally
# ---------------------------------------------------------------------------

#: ``counters.CELLS``: what ``Database.stats()`` nests by group, and
#: its top-level counters (group ``None``), pinned from the commit
#: before the schema existed: the tracked benchmark resolves its
#: per-layer metrics through these names.  A counter added to the
#: schema is added here (and to ARCHITECTURE.md).
PINNED_CELLS = [
    ("labels", "covers_calls"), ("labels", "strip_calls"),
    ("labels", "rows_suppressed"), ("labels", "cuts_reused"),
    ("index", "lookups"), ("index", "range_scans"),
    ("exec", "columns_materialized"), ("exec", "rows_widened"),
    ("exec", "segments_scanned"), ("exec", "segments_frozen"),
    ("spill", "spills"), ("spill", "partitions_created"),
    ("spill", "repartitions"), ("spill", "rows_spilled"),
    ("spill", "bytes_spilled"), ("spill", "sort_spills"),
    ("spill", "sort_runs"), ("spill", "agg_spills"),
    ("spill", "agg_partitions"),
    ("stats", "tables_collected"), ("stats", "drift_refreshes"),
    ("wal", "records"), ("wal", "bytes"), ("wal", "flushes"),
    ("wal", "fsyncs"), ("wal", "commits"), ("wal", "commit_flushes"),
    ("wal", "group_commit_size"),
    ("parse", "text_hits"), ("parse", "shape_hits"), ("parse", "parses"),
    ("plans", "key_hits"),
    (None, "statements_executed"), (None, "rows_inserted"),
    (None, "rows_updated"), (None, "rows_deleted"),
    (None, "buffer_hits"), (None, "buffer_misses"),
    (None, "buffer_evictions"), (None, "simulated_io_time"),
]

#: What ``Database.stats()`` reports beside the counters: state the
#: database holds, not events it counted.
STATE = {"statements", "statements_dropped", "slow_queries",
         "audit_events", "commits", "aborts", "versions_reclaimed",
         "reclaim_pending", "tables_analyzed", "polyinstantiated"}


def test_stats_and_schema_cells_keep_the_pinned_names():
    db, _public, _secret, _tag, _a, _o = _fresh()
    assert list(counters.CELLS) == PINNED_CELLS
    report = db.stats()
    groups = [group for group in dict.fromkeys(
        group for group, _field in PINNED_CELLS) if group]
    assert list(report)[:len(groups)] == groups
    cells = []
    for key, value in report.items():
        if key in groups:
            cells.extend((key, field) for field in value)
        elif key not in STATE:
            cells.append((None, key))
    assert cells == PINNED_CELLS
    assert set(report) == set(groups) | STATE | {
        field for group, field in PINNED_CELLS if group is None}
    assert "buffer" not in report          # flat buffer_hits/_misses only


def _doc_table(name):
    """Rows (lists of cell texts) of the ARCHITECTURE.md table between
    the ``<!-- name:begin/end -->`` markers, header rows dropped."""
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "ARCHITECTURE.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    body = text.split("<!-- %s:begin -->" % name)[1] \
        .split("<!-- %s:end -->" % name)[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in body.strip().splitlines()]
    return rows[2:]


def test_architecture_documents_exactly_the_schema():
    """The counter table and the EXPLAIN ANALYZE glossary are renderings
    of the schema: a counter, a label or a low/high mark added to one
    and not the other fails here."""
    documented = [(None if group == "—" else group.strip("`"),
                   field.strip("`"), kind,
                   None if label == "hidden" else label.strip("`"),
                   level.strip("*"))
                  for group, field, kind, label, level, _counts
                  in _doc_table("counter-schema")]
    assert documented == [tuple(row) for row in counters.SCHEMA]
    assert counters.LOW == tuple((group, field) for group, field, *_k,
                                 level in documented if level == "low")

    glossary = {name for row in _doc_table("analyze-glossary")
                for name in re.findall(r"`([^`]+)`", row[0])}
    labels = {row[3] for row in counters.SCHEMA if row[3]}
    # What an operator line carries besides schema counters: its own
    # actuals.
    extras = {"rows", "time"}
    assert glossary == labels | extras


def test_snapshot_covers_every_family_field():
    snap = counters.snapshot()
    assert set(snap) >= {"labels", "index", "exec", "spill", "stats"}
    assert set(snap["labels"]) == {"covers_calls", "strip_calls",
                                   "rows_suppressed", "cuts_reused"}
    assert set(snap["index"]) == {"lookups", "range_scans"}
    assert set(snap["exec"]) == {"columns_materialized", "rows_widened",
                                 "segments_scanned", "segments_frozen"}
    assert "bytes_spilled" in snap["spill"]


def test_reset_zeroes_the_live_tally():
    tally().covers_calls += 5
    tally().lookups += 3
    counters.reset()
    assert tally().covers_calls == 0
    assert tally().lookups == 0


def test_counter_delta_captures_named_deltas_and_nothing_else():
    db, public, _secret, _tag, _a, _o = _fresh()
    before = counters.read()
    tally().covers_calls += 2
    tally().rows_widened += 7
    tally().buffer_hits += 3
    delta = counters.delta(before, counters.read())
    assert delta["labels"]["covers_calls"] == 2
    assert delta["exec"]["rows_widened"] == 7
    assert delta["index"]["lookups"] == 0
    assert delta["buffer_hits"] == 3 and delta["buffer_misses"] == 0
    # The per-statement bracket is the same read, taken by the engine:
    # bumps made outside the statement are not in its delta.
    public.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    public.execute("INSERT INTO t VALUES (1), (2)")
    last = db.last_statement_metrics()
    assert last["exec"]["rows_widened"] == 0
    assert last["elapsed_ms"] >= 0.0 and last["rows"] == 2
    assert last["rows_inserted"] == 2
    assert last["statements_executed"] == 0   # counted before the bracket


def test_read_is_the_calling_threads_tally_in_cell_order():
    tally().covers_calls += 3
    tally().fsyncs += 2
    flat = counters.read()
    assert counters.delta((0,) * len(flat), flat) == counters.snapshot()
    seen = []
    thread = threading.Thread(target=lambda: seen.append(counters.read()))
    thread.start()
    thread.join()
    assert seen == [(0,) * len(counters.CELLS)]   # its own, untouched


def _count_on_a_thread(body) -> None:
    thread = threading.Thread(target=body)
    thread.start()
    thread.join()


def test_exited_threads_stay_in_totals_and_leave_the_live_list():
    """A thread that counted and exited is folded into the base at the
    next snapshot: its counts stay, its state does not."""
    def body():
        tally().covers_calls += 7
        tally().bytes += 11

    for _ in range(40):
        _count_on_a_thread(body)
    db, _public, _secret, _tag, _a, _o = _fresh()
    report = db.stats()
    assert report["labels"]["covers_calls"] == 40 * 7
    assert report["wal"]["bytes"] == 40 * 11
    assert len(counters._states) <= threading.active_count()
    assert db.stats()["labels"]["covers_calls"] == 40 * 7   # folded once


def test_snapshots_racing_counting_threads_lose_nothing():
    """More threads than cores count and exit while the main thread
    snapshots as fast as it can: every fold (live list → base) happens
    under the lock, so the final total is exact."""
    threads_n, each = 8, 2000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def body():
            for _ in range(each):
                tally().lookups += 1

        threads = [threading.Thread(target=body) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        seen = 0
        while any(thread.is_alive() for thread in threads):
            now = counters.snapshot()["index"]["lookups"]
            assert now >= seen             # totals never go backwards
            seen = now
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert counters.snapshot()["index"]["lookups"] == threads_n * each
    assert len(counters._states) <= threading.active_count()


def test_gauge_combines_by_max_across_threads_and_merges():
    def flush_of(size):
        def body():
            tally().group_commit_size = size
            tally().commits += size
        return body

    tally().group_commit_size = 3
    for size in (5, 2):
        _count_on_a_thread(flush_of(size))
    wal = counters.snapshot()["wal"]
    assert wal["group_commit_size"] == 5 and wal["commits"] == 7


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_fork_while_another_thread_holds_the_lock_does_not_deadlock():
    """The child inherits the lock held by a thread it does not have;
    its first reset()/snapshot() must not wait on it."""
    held, release = threading.Event(), threading.Event()

    def holder():
        with counters._lock:
            held.set()
            release.wait(30)

    thread = threading.Thread(target=holder)
    thread.start()
    assert held.wait(30)
    try:
        tally().covers_calls += 1
        pid = os.fork()
        if pid == 0:                       # the child: an embedder's fork
            status = 1
            try:
                counters.reset()
                tally().lookups += 2
                if counters.snapshot()["index"]["lookups"] == 2:
                    status = 0
            finally:
                os._exit(status)
        deadline = 10.0
        while deadline > 0:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            threading.Event().wait(0.05)
            deadline -= 0.05
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child deadlocked on the counters lock")
        assert os.waitstatus_to_exitcode(status) == 0
    finally:
        release.set()
        thread.join()


# ---------------------------------------------------------------------------
# normalization + statement stats
# ---------------------------------------------------------------------------

def test_fingerprint_replaces_literals():
    def norm(sql):
        return lexer.fingerprint(lexer.lexemes(sql))

    assert norm("SELECT * FROM t WHERE id = 7") \
        == norm("SELECT * FROM t   WHERE id = 9")
    assert norm("INSERT INTO t VALUES (1, 'a')") \
        == norm("INSERT INTO t VALUES (?, ?)")
    # comments vanish with the lexer
    assert norm("SELECT 1 -- trailing\n") == norm("SELECT 1")
    # identifiers are *not* folded: different shapes stay distinct
    assert norm("SELECT a FROM t") != norm("SELECT b FROM t")
    # a quoted identifier keeps its quotes
    assert norm('SELECT "a b" FROM t') == 'SELECT "a b" FROM t'
    assert norm('SELECT "a b" FROM t') != norm("SELECT a b FROM t")


def test_statement_stats_keep_quoted_identifiers_apart():
    """``"a b"`` (one column) and ``a b`` (column ``a`` as ``b``)
    aggregate under two keys."""
    db, public, _secret, _tag, _a, _o = _fresh()
    public.execute('CREATE TABLE t (a INT, "a b" INT)')
    public.execute('INSERT INTO t VALUES (1, 2)')
    assert public.execute('SELECT "a b" FROM t').rows == [(2,)]
    assert public.execute("SELECT a b FROM t").rows == [(1,)]
    statements = db.stats()["statements"]
    assert statements['SELECT "a b" FROM t']["calls"] == 1
    assert statements["SELECT a b FROM t"]["calls"] == 1


def test_each_new_text_is_lexed_once_and_caches_stay_bounded(monkeypatch):
    """``lexer.lexemes`` is the one lexing entry point of a text: once
    per new text, never for a cached one; only a new shape goes on to
    ``tokenize`` and the parser."""
    from repro.db import engine

    calls, parses = [], []
    real_lexemes, real_parse = engine.lexemes, engine.parse_statement

    def counting(sql):
        calls.append(sql)
        return real_lexemes(sql)

    def parsing(sql, *args):
        parses.append(sql)
        return real_parse(sql, *args)

    monkeypatch.setattr(engine, "lexemes", counting)
    monkeypatch.setattr(engine, "parse_statement", parsing)
    db, public, _secret, _tag, _a, _o = _fresh()
    public.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    del calls[:], parses[:]
    public.execute("INSERT INTO t VALUES (1, 10)")
    public.execute("SELECT v FROM t WHERE id = 1")
    assert len(calls) == 2                 # parse; the stats key rode along
    assert len(parses) == 2
    public.execute("SELECT v FROM t WHERE id = 1")
    assert len(calls) == 2                 # cached text: not lexed at all
    assert db.stats()["statements"]["SELECT v FROM t WHERE id = ?"][
        "calls"] == 2
    public.execute("SELECT v FROM t WHERE id = 2")
    assert len(calls) == 3                 # a known shape: lexed, not parsed
    assert len(parses) == 2
    public.execute("CREATE TABLE u (id INT PRIMARY KEY)")
    assert len(calls) == 4                 # a new shape: lexed once, parsed
    assert len(parses) == 3

    caches = (db._plan_cache, db._shape_cache)
    for i in range(3, 5003):               # 10 000 distinct texts
        public.execute("INSERT INTO t VALUES (%d, 0)" % i)
        public.execute("SELECT v FROM t WHERE id = %d" % i)
        assert all(len(c) <= engine.STATEMENT_CACHE_CAP for c in caches)
    assert len(calls) == 4 + 10000
    assert len(parses) == 3
    # A stream of new shapes is bounded the same way.
    monkeypatch.setattr(engine, "STATEMENT_CACHE_CAP", 8)
    for i in range(20):
        public.execute("SELECT v FROM t WHERE id = 1" + " OR id = 1" * i)
        assert all(len(c) <= 8 for c in caches)
    # UPDATE/DELETE plans go through the same bound.
    monkeypatch.setattr(engine, "STATEMENT_CACHE_CAP", 8)
    for i in range(20):
        public.execute("UPDATE t SET v = %d WHERE id = 1" % i)
        assert len(db._plan_cache) <= 8
    assert public.execute("SELECT v FROM t WHERE id = 1").rows[0][0] == 19


def test_parse_counters_tell_text_hits_shape_hits_and_parses_apart():
    db, public, _secret, _tag, _a, _o = _fresh()
    public.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    counters.reset()
    for sql in ("SELECT v FROM t WHERE id = 1",
                "SELECT v FROM t WHERE id = 2",
                "SELECT  v FROM t\n WHERE id = 3  -- same shape",
                "SELECT v FROM t WHERE id = 1"):
        public.execute(sql)
    assert db.stats()["parse"] == {"text_hits": 1, "shape_hits": 2,
                                   "parses": 1}


def test_statement_stats_aggregate_under_normalized_keys():
    db, public, _secret, _tag, _a, _o = _fresh()
    public.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(6):
        public.execute("INSERT INTO t VALUES (?, ?)", (i, i * 2))
    public.execute("SELECT * FROM t WHERE v > 3")
    public.execute("SELECT * FROM t WHERE v > 777")
    statements = db.stats()["statements"]
    select_key = "SELECT * FROM t WHERE v > ?"
    assert statements[select_key]["calls"] == 2
    assert statements[select_key]["rows"] > 0
    assert statements["INSERT INTO t VALUES ( ? , ? )"]["calls"] == 6
    assert statements[select_key]["total_ms"] \
        >= statements[select_key]["max_ms"]
    # DDL and EXPLAIN are not tracked
    assert not any(key.startswith("CREATE") for key in statements)


def test_statements_past_the_aggregates_capacity_are_reported_dropped():
    db, public, _secret, _tag, _a, _o = _fresh()
    db.statement_stats.capacity = 2
    public.execute("CREATE TABLE t (id INT PRIMARY KEY)")     # untracked
    public.execute("INSERT INTO t VALUES (1)")
    public.execute("SELECT id FROM t")
    for i in range(3):                     # a third key, never admitted
        public.execute("SELECT id FROM t WHERE id = %d" % i)
    report = db.stats()
    assert sorted(report["statements"]) == ["INSERT INTO t VALUES ( ? )",
                                            "SELECT id FROM t"]
    assert report["statements_dropped"] == 3


def test_stats_report_includes_all_counter_families():
    """Satellite fix: the old report omitted rules/index counters."""
    db, public, secret, _tag, _a, _o = _fresh()
    public.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    public.execute("INSERT INTO t VALUES (1, 10)")
    secret.execute("SELECT * FROM t")
    report = db.stats()
    for family in ("labels", "index", "exec", "spill", "stats",
                   "statements", "slow_queries"):
        assert family in report, family
    assert report["labels"]["covers_calls"] > 0
    assert report["statements_executed"] > 0


def test_last_statement_metrics_names_every_cell_group():
    db, public, _secret, _tag, _a, _o = _fresh()
    public.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    public.execute("INSERT INTO t VALUES (1, 10)")
    public.execute("SELECT * FROM t")
    delta = db.last_statement_metrics()
    assert delta["rows"] == 1
    assert delta["elapsed_ms"] >= 0.0
    assert delta["exec"]["columns_materialized"] == 2
    assert delta["exec"]["segments_scanned"] == 1
    assert delta["buffer_hits"] == 1 and delta["buffer_misses"] == 0


# ---------------------------------------------------------------------------
# slow-query log
# ---------------------------------------------------------------------------

def test_slow_query_log_records_threshold_crossers_with_counters():
    db, public, _secret, _tag, _a, _o = _fresh(slow_query_ms=1e-9)
    public.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    public.execute("INSERT INTO t VALUES (1, 10)")
    public.execute("SELECT * FROM t WHERE v = 10")
    entries = db.stats()["slow_queries"]
    assert entries, "every statement crosses a 1e-9ms threshold"
    last = entries[-1]
    assert last["statement"] == "SELECT * FROM t WHERE v = ?"
    assert last["elapsed_ms"] > 0.0
    assert last["counters"]["exec"]["columns_materialized"] == 2


def test_slow_query_log_disabled_by_default():
    db, public, _secret, _tag, _a, _o = _fresh()
    public.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    public.execute("INSERT INTO t VALUES (1)")
    assert db.stats()["slow_queries"] == []


# ---------------------------------------------------------------------------
# IFC audit trail
# ---------------------------------------------------------------------------

def test_audit_rows_suppressed_for_invisible_secret_rows():
    """A public reader scanning past secret rows triggers the Label
    Confinement Rule per suppressed tuple; with the audit log on, the
    engine records one event per statement with the count."""
    db, public, secret, _tag, _a, _o = _fresh(audit_log=64)
    public.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(10):
        session = secret if i % 2 else public
        session.execute("INSERT INTO t VALUES (?, ?)", (i, i))
    assert len(public.execute("SELECT * FROM t").rows) == 5
    events = db.audit.of_kind("rows_suppressed")
    assert events
    assert events[-1]["statement"] == "SELECT * FROM t"
    assert events[-1]["count"] == 5


def test_audit_declassify_view_records_view_and_tags():
    authority = AuthorityState(idgen=SeededIdGenerator(31))
    db = Database(authority, seed=31, audit_log=64)
    clinic = authority.create_principal("clinic")
    tag = authority.create_tag("patient", owner=clinic.id)
    admin = db.connect(IFCProcess(authority, clinic.id))
    admin.execute("CREATE TABLE p (id INT PRIMARY KEY, v INT)")
    proc = IFCProcess(authority, clinic.id)
    proc.add_secrecy(tag.id)
    db.connect(proc).execute("INSERT INTO p VALUES (1, 10)")
    admin.execute(
        "CREATE VIEW pv AS SELECT v FROM p WITH DECLASSIFYING (patient)")
    reader = db.connect(IFCProcess(authority, clinic.id))
    assert len(reader.execute("SELECT * FROM pv").rows) == 1
    events = db.audit.of_kind("declassify_view")
    assert events
    assert events[-1]["view"] == "pv"
    assert tag.id in events[-1]["tags"]


@pytest.mark.parametrize("indexed", [False, True])
def test_audit_declassify_view_is_one_event_whatever_the_join(indexed):
    """A declassifying view whose body joins two tables records one
    ``declassify_view`` event per execution — whether the body runs as
    a hash join (two scans, each re-validating the view's authority)
    or as an index-loop join (one scan plus the probe side) — and a
    revoked authority fails both shapes with the same message."""
    authority = AuthorityState(idgen=SeededIdGenerator(31))
    db = Database(authority, seed=31, audit_log=64)
    clinic = authority.create_principal("clinic")
    tag = authority.create_tag("patient", owner=clinic.id)
    admin = db.connect(IFCProcess(authority, clinic.id))
    admin.execute("CREATE TABLE p (id INT PRIMARY KEY, k INT)")
    admin.execute("CREATE TABLE q (id INT PRIMARY KEY, k INT)")
    if indexed:
        admin.execute("CREATE INDEX q_k ON q (k)")
    proc = IFCProcess(authority, clinic.id)
    proc.add_secrecy(tag.id)
    writer = db.connect(proc)
    for i in range(40):
        writer.execute("INSERT INTO p VALUES (?, ?)", (i, i))
        writer.execute("INSERT INTO q VALUES (?, ?)", (i, i))
    admin.execute("ANALYZE")
    helper = authority.create_principal("helper")
    authority.delegate(tag.id, clinic.id, helper.id)
    db.connect(IFCProcess(authority, helper.id)).execute(
        "CREATE VIEW pq AS SELECT p.id, q.id AS qid FROM p "
        "JOIN q ON q.k = p.k WITH DECLASSIFYING (patient)")
    reader = db.connect(IFCProcess(authority, clinic.id))
    plan = [r[0] for r in reader.execute("EXPLAIN SELECT * FROM pq")]
    assert any(("IndexLoopJoin" if indexed else "HashJoin") in line
               for line in plan), plan
    db.audit.entries.clear()
    assert len(reader.execute("SELECT * FROM pq").rows) == 40
    assert [e["view"] for e in db.audit.of_kind("declassify_view")] == ["pq"]
    # Once per statement, not once per database.
    assert len(reader.execute("SELECT * FROM pq").rows) == 40
    assert len(db.audit.of_kind("declassify_view")) == 2
    authority.revoke(tag.id, clinic.id, helper.id)
    with pytest.raises(AuthorityError, match="lost authority for tag"):
        reader.execute("SELECT * FROM pq")


def test_audit_write_denied_records_the_violation():
    """The section 5.1 covert-channel transaction: write publicly, read
    secretly, try to commit — the commit-label rule denies it, and the
    denial lands in the audit trail."""
    db, public, _secret, tag, authority, _owner = _fresh(audit_log=64)
    public.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    mallory = authority.create_principal("mallory")
    proc = IFCProcess(authority, mallory.id)
    session = db.connect(proc)
    session.execute("BEGIN")
    session.execute("INSERT INTO t VALUES (1, 10)")
    proc.add_secrecy(tag.id)               # raise label above the write
    with pytest.raises(IFCViolation):
        session.execute("COMMIT")
    events = db.audit.of_kind("write_denied")
    assert events
    assert events[-1]["statement"] == "COMMIT"
    assert "error" in events[-1]


def test_audit_off_by_default_and_capacity_bounded():
    db, public, _secret, _tag, _a, _o = _fresh()
    assert db.audit is None
    db2, public2, secret2, _t, _a2, _o2 = _fresh(audit_log=2)
    public2.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    for i in range(5):
        secret2.execute("INSERT INTO t VALUES (?)", (i,))
        public2.execute("SELECT * FROM t")
    assert len(db2.audit.entries) == 2         # ring buffer capacity
    assert db2.audit.total == 5                # but every event counted


# ---------------------------------------------------------------------------
# concurrency: per-statement brackets must not cross-contaminate
# ---------------------------------------------------------------------------

def test_statement_metrics_isolated_across_threads():
    """Regression: the per-statement bracket reads the process-wide
    counter singletons — before counters became thread-aware, two
    sessions executing concurrently attributed each other's work to
    the wrong statement (wrong ``last_statement_metrics``, wrong
    StatementStats rows, wrong slow-query counters).

    Two threads run barrier-synced statements with *different*,
    exactly known per-statement label-cut counts (different batch
    sizes → different chunk counts): the first scan builds every
    chunk's cut — one ``covers`` each — and every later one reuses
    them all.  Every single delta must be exact — any bleed from the
    other thread's concurrent statement shows up as a wrong count.
    """
    import threading

    iterations = 25
    barrier = threading.Barrier(2)
    failures: list = []

    def worker(seed, rows, batch_size, chunks):
        try:
            authority = AuthorityState(idgen=SeededIdGenerator(seed))
            db = Database(authority, seed=seed, batch_size=batch_size,
                          slow_query_ms=1e-9)
            owner = authority.create_principal("o%d" % seed)
            session = db.connect(IFCProcess(authority, owner.id))
            session.execute(
                "CREATE TABLE t (id INT PRIMARY KEY, x INT)")
            for i in range(rows):
                session.execute("INSERT INTO t VALUES (?, ?)", (i, i))
            expected = []
            for iteration in range(iterations):
                barrier.wait()
                session.execute("SELECT x FROM t")
                delta = db.last_statement_metrics()
                assert delta["rows"] == rows
                # All rows are public: a cut build is one covers per
                # chunk, and every chunk is built or reused.
                built = chunks if iteration == 0 else 0
                expected.append({"covers_calls": built, "strip_calls": 0,
                                 "rows_suppressed": 0,
                                 "cuts_reused": chunks - built})
                assert delta["labels"] == expected[-1], delta["labels"]
            # The slow-query log (threshold 1e-9: every statement
            # records) captured the same exact deltas.
            selects = [e for e in db.stats()["slow_queries"]
                       if e["statement"] == "SELECT x FROM t"]
            assert [entry["counters"]["labels"] for entry in selects] \
                == expected
            agg = db.stats()["statements"]["SELECT x FROM t"]
            assert agg["calls"] == iterations
            assert agg["rows"] == rows * iterations
        except BaseException as exc:      # noqa: BLE001 — re-raised
            failures.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(9101, 96, 32, 3)),
        threading.Thread(target=worker, args=(9102, 208, 16, 13)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    if failures:
        raise failures[0]


def test_a_statements_buffer_delta_leaves_out_other_threads_scans():
    """Regression: buffer-cache counts were per-``Database`` state that
    every statement bracket read whole, so a one-row point read whose
    SQL function made another thread scan the table (and waited for
    it) reported that scan's page hits as its own — 201 instead of 1.
    As schema counters they are per-thread like every other cell."""
    db, public, _secret, _tag, authority, owner = _fresh()
    public.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(200):
        public.execute("INSERT INTO t VALUES (?, ?)", (i, i))
    scanner = db.connect(IFCProcess(authority, owner.id))

    def scan_elsewhere(value):
        thread = threading.Thread(target=scanner.execute,
                                  args=("SELECT v FROM t",))
        thread.start()
        thread.join(30)
        assert not thread.is_alive()
        return value

    db.create_function("scan_elsewhere", scan_elsewhere)
    buffer = ("buffer_hits", "buffer_misses", "buffer_evictions",
              "simulated_io_time")
    public.execute("SELECT v FROM t WHERE id = 7")
    alone = db.last_statement_metrics()
    assert alone["buffer_hits"] == 1
    assert public.execute(
        "SELECT scan_elsewhere(v) FROM t WHERE id = 7").rows[0][0] == 7
    together = db.last_statement_metrics()
    assert [together[cell] for cell in buffer] \
        == [alone[cell] for cell in buffer]
    assert db.stats()["buffer_hits"] >= 200 + 2   # the scan still counts
