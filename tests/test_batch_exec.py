"""The one operator protocol: amortizations and batch-boundary safety.

Batch size (``Plan.batches`` / :class:`RowBatch` in
:mod:`repro.db.physical`) must be *invisible* in results — only the loop
shape and the per-tuple bookkeeping change.  The reference is the same
executor at batch size 1, where every candidate chunk is one version
and the scan leaf runs its per-version loop.  These tests pin:

* that every operator speaks ``batches()`` and nothing else;
* result parity with the size-1 reference across the operator zoo, at
  batch sizes that force awkward boundaries;
* the leaf's one fork: chosen by the candidates actually found, and
  its two routines agreeing on everything but how often ``covers`` and
  ``strip`` run;
* the label-run amortization: one ``covers`` per distinct label per
  batch (counted via per-statement metrics deltas,
  ``Database.last_statement_metrics``), declassifying views included,
  and the other scan counters exactly what the per-tuple loop charges
  (mid-heap LIMIT included);
* the one batch layout — :class:`RowBatch` against a list-of-rows
  model — and the one rule of ``rows_widened``: result rows, plus the
  label survivors a kernel-less expression was evaluated over;
* the MVCC whole-batch fast path, and its mandatory fallback when a
  concurrent transaction is in flight or a version was deleted;
* page-run buffer accounting (``touch_run``) producing counters
  identical to per-version ``touch``;
* the batch expression compiler's AND short-circuit contract;
* expression subqueries keeping their early exit;
* the batch-at-a-time aggregation fold against a row-by-row model.
"""

from __future__ import annotations

import random
import tracemalloc
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator, \
    counters
from repro.core.counters import tally
from repro.core.labels import EMPTY_LABEL, Label
from repro.db import Database
from repro.db import expressions as ex
from repro.db import physical
from repro.db.pages import BufferCache
from repro.db.spill import Spools
from repro.errors import ExpressionError


#: The buffer cache's counters: top-level cells of a counter delta.
BUFFER = ("buffer_hits", "buffer_misses", "buffer_evictions",
          "simulated_io_time")


def _buffer(delta):
    return tuple(delta[field] for field in BUFFER)


def _accesses(delta):
    """Pages the buffer cache was asked for, hits and misses."""
    return delta["buffer_hits"] + delta["buffer_misses"]


def _stack(batch_size, **db_kwargs):
    """A database plus a secret-label session over a populated table."""
    authority = AuthorityState(idgen=SeededIdGenerator(4242))
    db = Database(authority, seed=4242, batch_size=batch_size, **db_kwargs)
    owner = authority.create_principal("owner")
    tag = authority.create_tag("batch-secret", owner=owner.id)
    public = db.connect(IFCProcess(authority, owner.id))
    secret_proc = IFCProcess(authority, owner.id)
    secret_proc.add_secrecy(tag.id)
    secret = db.connect(secret_proc)
    public.execute("CREATE TABLE m (id INT PRIMARY KEY, grp INT, v INT)")
    public.execute("CREATE ORDERED INDEX m_grp ON m (grp, v)")
    for i in range(40):
        session = secret if i % 3 == 0 else public
        session.execute("INSERT INTO m VALUES (?, ?, ?)",
                        (i, i % 4, (i * 7) % 23))
    return db, public, secret, tag


QUERIES = [
    ("SELECT * FROM m", ()),
    ("SELECT id, v FROM m WHERE v < 12", ()),
    ("SELECT grp, COUNT(*), SUM(v) FROM m GROUP BY grp", ()),
    ("SELECT DISTINCT grp FROM m WHERE v >= 5", ()),
    ("SELECT id FROM m ORDER BY v DESC, id LIMIT 7 OFFSET 3", ()),
    ("SELECT a.id, b.id FROM m a JOIN m b ON b.grp = a.grp "
     "WHERE a.v < 5 AND b.v < 5", ()),
    ("SELECT id, _label FROM m WHERE LABEL_SIZE(_label) > 0", ()),
    ("SELECT id FROM m WHERE grp = 2 AND v BETWEEN 3 AND 15", ()),
    ("SELECT id FROM m WHERE EXISTS (SELECT 1 FROM m b "
     "WHERE b.grp = m.grp AND b.v > m.v)", ()),
]


def _normalized(session, sql, params=()):
    rows = session.execute(sql, params).rows
    return sorted(((tuple(r), tuple(sorted(r.label))) for r in rows),
                  key=repr)


def test_every_operator_speaks_batches_and_nothing_else():
    """Every ``Plan`` subclass defines ``batches`` and none defines
    ``rows``: there is no second protocol to adapt to."""
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)
    plans = set(subclasses(physical.Plan))
    assert {physical.Scan, physical.IndexLoopJoin, physical.SingleRow,
            physical.DeterministicOrder, physical.TopN} <= plans
    for cls in plans:
        assert cls.batches is not physical.Plan.batches, cls
        assert not hasattr(cls, "rows"), cls
    assert not hasattr(physical.Plan, "rows")
    # ... and one batch layout: the columns and the two label sequences.
    assert sorted(physical.RowBatch.__slots__) \
        == ["_columns", "ilabels", "labels"]


def test_batch_size_is_a_chunk_size_of_at_least_one():
    db, _public, _secret, _ = _stack(0)
    assert db.batch_size == 1
    assert db.planner.plan_select(db.parse("SELECT * FROM m")) \
        .plan.batch_size == 1
    naive_db, _p, _s, _ = _stack(512, naive_plans=True)
    assert naive_db.planner.batch_size == 1


@pytest.mark.parametrize("batch_size", [2, 3, 1024])
def test_batch_boundaries_cannot_change_results(batch_size):
    _db_row, _pub_row, secret_row, _ = _stack(1)
    _db_bat, _pub_bat, secret_bat, _ = _stack(batch_size)
    for sql, params in QUERIES:
        assert _normalized(secret_bat, sql, params) \
            == _normalized(secret_row, sql, params), sql


def test_label_run_batching_counts_one_covers_per_label_per_batch():
    # 40 rows, two distinct interned labels (secret and empty), batch
    # size 20 → 2 batches × ≤2 labels = ≤4 covers calls, against 40 in
    # the per-version loop of one-version chunks.
    _db, _public, secret, _tag = _stack(20)
    assert len(secret.execute("SELECT * FROM m").rows) == 40
    batched_calls = _db.last_statement_metrics()["labels"]["covers_calls"]

    _db2, _public2, secret_row, _ = _stack(1)
    assert len(secret_row.execute("SELECT * FROM m").rows) == 40
    row_calls = _db2.last_statement_metrics()["labels"]["covers_calls"]

    assert row_calls == 40
    assert batched_calls <= 4


def test_label_runs_under_declassifying_view():
    """Declassification goes through the same label routine and must
    agree with the size-1 reference on values *and* (stripped)
    labels."""
    results = {}
    for mode, batch_size in (("batched", 8), ("row", 1)):
        authority = AuthorityState(idgen=SeededIdGenerator(99))
        db = Database(authority, seed=99, batch_size=batch_size)
        clinic = authority.create_principal("clinic")
        compound = authority.create_compound_tag("all_t", owner=clinic.id)
        tags = [authority.create_tag("t%d" % i, owner=clinic.id,
                                     compounds=(compound.id,))
                for i in range(3)]
        admin = db.connect(IFCProcess(authority, clinic.id))
        admin.execute("CREATE TABLE p (id INT PRIMARY KEY, v INT)")
        for i in range(30):
            proc = IFCProcess(authority, clinic.id)
            proc.add_secrecy(tags[i % 3].id)
            db.connect(proc).execute("INSERT INTO p VALUES (?, ?)",
                                     (i, i % 5))
        declass_proc = IFCProcess(authority, clinic.id)
        session = db.connect(declass_proc)
        admin.execute("CREATE VIEW pv AS SELECT id, v FROM p "
                      "WITH DECLASSIFYING (all_t)")
        # The reader's label is empty: rows are visible only because
        # the view strips the patient tags (stripped labels are empty).
        results[mode] = _normalized(session, "SELECT * FROM pv WHERE v < 4")
        assert all(label == () for _row, label in results[mode])
        assert len(results[mode]) == 24
    assert results["batched"] == results["row"]


def _count_visible_calls(db):
    calls = [0]
    original = db.txn_manager.visible

    def wrapper(version, txn):
        calls[0] += 1
        return original(version, txn)

    db.txn_manager.visible = wrapper
    return calls


def test_mvcc_fast_path_skips_visible_on_clean_batches():
    _db, public, secret, _ = _stack(1024)
    calls = _count_visible_calls(_db)
    assert len(secret.execute("SELECT * FROM m").rows) == 40
    assert calls[0] == 0


def test_mvcc_fast_path_falls_back_with_inflight_transaction():
    db, public, secret, _ = _stack(1024)
    # An in-flight concurrent writer: its row must stay invisible, and
    # the batch fast path must not run (its xmin is an active xid).
    writer = db.connect(IFCProcess(db.authority,
                                   db.authority.create_principal("w").id))
    writer.begin()
    writer.execute("INSERT INTO m VALUES (999, 0, 1)")
    calls = _count_visible_calls(db)
    rows = secret.execute("SELECT id FROM m").rows
    assert calls[0] > 0                      # per-row fallback ran
    assert 999 not in [r[0] for r in rows]   # and kept the row hidden
    writer.commit()
    assert 999 in [r[0] for r in secret.execute("SELECT id FROM m").rows]


def test_mvcc_fast_path_resumes_at_the_first_begin_after_a_rollback():
    """An aborted xid stalls the committed horizon only while its dead
    versions are in the heap: the next ``begin()`` unlinks them, so the
    very next scan is back on the fast path (it used to stay on per-row
    ``visible()`` until someone ran a full VACUUM)."""
    db, public, secret, _ = _stack(1024)
    public.begin()
    public.execute("INSERT INTO m VALUES (998, 0, 1)")
    public.rollback()
    tm = db.txn_manager
    assert tm.committed_horizon() < tm.horizon()         # stalled...
    calls = _count_visible_calls(db)
    rows = [r[0] for r in secret.execute("SELECT id FROM m").rows]
    assert calls[0] == 0                     # ...until this begin()
    assert len(rows) == 40 and 998 not in rows
    assert tm.committed_horizon() == tm.horizon()


def test_subquery_plans_run_at_batch_size_one():
    """EXISTS/IN/scalar consumers short-circuit, so expression-embedded
    subquery plans are stamped to one-row batches."""
    db, public, _secret, _ = _stack(1024)
    scope = ex.Scope()
    scope.add_table("m", ["id", "grp", "v", "_label"])
    compiler = db.planner.compiler(scope)
    plan = compiler._plan_subquery(db.parse("SELECT id FROM m"))
    assert plan.batch_size == 1 and plan.child.batch_size == 1
    assert db.planner.plan_select(db.parse("SELECT * FROM m")) \
        .plan.batch_size == 1024


def _big_table(rows=10000):
    authority = AuthorityState(idgen=SeededIdGenerator(5))
    db = Database(authority, seed=5, page_size=256)
    session = db.connect()
    session.execute("CREATE TABLE big (id INT PRIMARY KEY, v INT)")
    with session.atomic():
        for i in range(rows):
            session.insert("big", id=i, v=i % 7)
    return db, session


def test_exists_over_a_big_table_stops_at_the_first_row():
    """EXISTS pulls one one-row batch: O(1) pages touched, however
    many rows the subquery could return."""
    db, session = _big_table()
    assert db.catalog.get_table("big").pages > 100
    rows = session.execute(
        "SELECT 1 WHERE EXISTS (SELECT id FROM big WHERE v >= 0)").rows
    assert len(rows) == 1
    assert _accesses(db.last_statement_metrics()) <= 2
    assert session.execute("SELECT 1 WHERE 3 IN (SELECT id FROM big)").rows
    assert _accesses(db.last_statement_metrics()) <= 8


def test_scalar_subquery_raises_on_its_second_row():
    from repro.errors import DatabaseError
    db, session = _big_table(50)
    assert session.execute(
        "SELECT (SELECT v FROM big WHERE id = 9)").scalar() == 2
    assert session.execute(
        "SELECT (SELECT v FROM big WHERE id = -1)").scalar() is None
    before = counters.read()
    with pytest.raises(DatabaseError, match="more than one row"):
        session.execute("SELECT (SELECT v FROM big)")
    assert _accesses(counters.delta(before, counters.read())) == 2


def test_mvcc_fast_path_falls_back_after_delete():
    db, public, secret, _ = _stack(1024)
    public.begin()                # an open snapshot keeps the version
    secret.execute("DELETE FROM m WHERE id = 0")      # sets an xmax
    calls = _count_visible_calls(db)
    rows = secret.execute("SELECT id FROM m").rows
    assert calls[0] > 0
    assert 0 not in [r[0] for r in rows]
    assert len(rows) == 39


def test_touch_run_counters_identical_to_per_version_touch():
    """The batched buffer accounting charges page runs; counter for
    counter it must equal the per-version sequence."""
    sequence = ([("a", 0)] * 5 + [("a", 1)] * 3 + [("b", 0)] * 4
                + [("a", 0)] * 2 + [("a", 2)] + [("b", 0)] * 6)
    for capacity in (None, 2, 8):
        before = counters.read()
        per_touch = BufferCache(capacity=capacity, io_penalty=0.5)
        for table, page in sequence:
            per_touch.touch_run(table, page, 1)
        middle = counters.read()
        runs = BufferCache(capacity=capacity, io_penalty=0.5)
        run_key, run_len = None, 0
        for key in sequence:
            if key == run_key:
                run_len += 1
            else:
                if run_len:
                    runs.touch_run(run_key[0], run_key[1], run_len)
                run_key, run_len = key, 1
        runs.touch_run(run_key[0], run_key[1], run_len)
        charged = _buffer(counters.delta(middle, counters.read()))
        assert charged == _buffer(counters.delta(before, middle)), capacity
        assert charged[0] + charged[1] == len(sequence)     # hits + misses
        assert len(runs) == len(per_touch)


def test_batched_scan_buffer_stats_match_row_mode():
    db_row, _p1, secret_row, _ = _stack(1, buffer_pages=4, io_penalty=0.25,
                                        page_size=256)
    db_bat, _p2, secret_bat, _ = _stack(16, buffer_pages=4, io_penalty=0.25,
                                        page_size=256)
    charged = []
    for db, session in ((db_row, secret_row), (db_bat, secret_bat)):
        db.buffer_cache.reset()
        session.execute("SELECT * FROM m WHERE v < 10")
        charged.append(_buffer(db.last_statement_metrics()))
    assert charged[0] == charged[1]
    assert charged[0][1] > 0                 # the cold cache missed


def test_scan_predicate_names_the_columns_it_reads():
    """The planner hands a scan the stored-column positions its pushed
    predicate reads — all the scan builds the predicate's batch from.
    ``_label`` always rides along, so it is never listed; a subquery
    (UPDATE/DELETE push theirs into the target scan) can reach any
    column through the outer-row stack, so it asks for every one."""
    db, _public, secret, _ = _stack(1024)

    def scan_of(sql):
        plan = db.prepare_select(db.parse(sql), sql).plan
        while not isinstance(plan, physical.Scan):
            plan = plan.children()[0]
        return plan

    assert scan_of("SELECT id FROM m WHERE v < 12").predicate_columns == (2,)
    assert scan_of("SELECT id FROM m WHERE v < 12 AND grp + id > 3 "
                   "AND LABEL_SIZE(_label) > 0").predicate_columns \
        == (0, 1, 2)
    assert scan_of("SELECT id FROM m WHERE LABEL_SIZE(_label) > 0") \
        .predicate_columns == ()
    assert scan_of("SELECT id FROM m").predicate_columns == ()
    assert scan_of("DELETE FROM m WHERE EXISTS (SELECT 1 FROM m b "
                   "WHERE b.grp = m.grp AND b.v > m.v)") \
        .predicate_columns == (0, 1, 2)
    assert secret.execute(
        "SELECT id FROM m WHERE v < 12 AND LABEL_SIZE(_label) > 0").rows


def test_compile_batch_and_preserves_short_circuit():
    """``x <> 0 AND 100 / x > 2`` must not divide for rows the first
    conjunct already rejected — the row compiler's contract."""
    scope = ex.Scope()
    scope.add_table("t", ["x"])
    compiler = ex.ExprCompiler(scope)
    x = ex.ColumnRef("x")
    node = ex.And([
        ex.Compare("<>", x, ex.Literal(0)),
        ex.Compare(">", ex.BinOp("/", ex.Literal(100), x), ex.Literal(2)),
    ])
    batch_fn = compiler.compile_batch(node)
    batch = physical.RowBatch([[5, 0, 2, None], None], [None] * 4,
                              [None] * 4)
    flags = batch_fn(batch, None)
    assert flags == [True, False, True, None]


def test_a_slot_past_the_batch_is_an_error_not_nulls():
    """A planner slot-numbering bug must fail, not read as a column of
    NULLs — a projected-away slot inside the batch is what reads NULL."""
    compiler = ex.ExprCompiler(ex.Scope())
    batch = physical.RowBatch([[1, 2], None], [None] * 2, [None] * 2)
    assert compiler.compile_batch(ex.SlotRef(1))(batch, None) == [None, None]
    with pytest.raises(IndexError):
        compiler.compile_batch(ex.SlotRef(2))(batch, None)


SELF_JOIN = ("SELECT a.id, b.id FROM m a JOIN m b ON b.grp = a.grp "
             "ORDER BY a.id, b.id")


def _join_counters(batch_size):
    """Run the duplicate-heavy self-join; return (rows, lookups,
    buffer_accesses, covers_calls) deltas for the join statement."""
    db, _public, secret, _ = _stack(batch_size, work_mem=0)
    plan_lines = [r[0] for r in secret.execute("EXPLAIN " + SELF_JOIN)]
    assert any("IndexLoopJoin" in line for line in plan_lines), plan_lines
    rows = secret.execute(SELF_JOIN).rows
    delta = db.last_statement_metrics()
    return (rows,
            delta["index"]["lookups"],
            _accesses(delta),
            delta["labels"]["covers_calls"])


def test_index_loop_join_dedups_probes_per_batch():
    """40 outer rows but only 4 distinct join keys: the batched probe
    must hit the index once per distinct key per batch, and must not
    double-count buffer-cache touches or Query-by-Label checks for the
    duplicate outer keys — one-row batches pay all three per outer
    row."""
    row_rows, row_lookups, row_touches, row_covers = _join_counters(1)
    bat_rows, bat_lookups, bat_touches, bat_covers = _join_counters(1024)
    assert [tuple(r) for r in bat_rows] == [tuple(r) for r in row_rows]
    # Size 1: one probe per outer row; each probe yields the 10
    # same-group candidates, each touched and label-checked.
    assert row_lookups == 40
    assert row_touches == 40 + 40 * 10       # outer scan + per-row probes
    # Batched (one 40-row batch): one probe per *distinct* key, one
    # touch and one visibility pass per candidate per probe — and one
    # covers() per distinct label per batch, never per duplicate row.
    assert bat_lookups == 4
    assert bat_touches == 40 + 4 * 10        # outer scan + deduped probes
    assert bat_covers <= 4                   # ≤2 labels × (scan + probe)
    assert bat_lookups <= row_lookups * 0.8  # the ≥20% acceptance floor
    assert bat_covers < row_covers


PROBE_SQL = "SELECT id FROM t WHERE k = ?"


def _probe_stack(keys, late_keys=()):
    """``t.k`` indexed, holding ``keys`` when the probe is planned and
    its plan cached, and ``late_keys`` only afterwards: the optimizer's
    per-key estimate (the heap's rows × the default equality
    selectivity, as of planning) against what a probe finds."""
    authority = AuthorityState(idgen=SeededIdGenerator(808))
    db = Database(authority, seed=808,
                  batch_size=physical.DEFAULT_BATCH_SIZE)
    session = db.connect()
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT)")
    session.execute("CREATE INDEX t_k ON t (k)")
    with session.atomic():
        for i, k in enumerate(keys):
            session.insert("t", id=i, k=k)
    session.execute(PROBE_SQL, (keys[0],))
    with session.atomic():
        for i, k in enumerate(late_keys, len(keys)):
            session.insert("t", id=i, k=k)
    return db, session


def _estimated_rows(db):
    """The cached probe plan's row estimate for its index scan."""
    plan = db._plan_cache[PROBE_SQL][1].plan
    while not isinstance(plan, physical.IndexScan):
        plan, = plan.children()
    return plan.est_rows


def test_leaf_choice_follows_the_candidates_found_not_the_estimate():
    """One plan, one estimate, two executions: the probe that finds 500
    candidates filters them set-at-a-time (one ``covers`` for their one
    label), the probe that finds a handful checks each (one ``covers``
    per version) — whatever the optimizer expected."""
    few = physical.SET_AT_A_TIME_MIN - 1
    sql = PROBE_SQL
    # Planned on three rows (estimated well under one row per key),
    # finding 500 (and a handful).
    db, session = _probe_stack([1000, 1001, 1002], [7] * 500 + [8] * few)
    assert _estimated_rows(db) <= 2
    assert len(session.execute(sql, (7,)).rows) == 500
    assert db.last_statement_metrics()["labels"]["covers_calls"] == 1
    assert len(session.execute(sql, (8,)).rows) == few
    assert db.last_statement_metrics()["labels"]["covers_calls"] == few
    assert _estimated_rows(db) <= 2              # still the one plan
    # Planned on 3 200 rows (estimated at 16 per key), finding a handful.
    db, session = _probe_stack([i % 50 for i in range(3200)], [999] * few)
    assert _estimated_rows(db) >= 16
    assert len(session.execute(sql, (999,)).rows) == few
    assert db.last_statement_metrics()["labels"]["covers_calls"] == few


LEAF_SIZES = [physical.SET_AT_A_TIME_MIN - 1, physical.SET_AT_A_TIME_MIN,
              physical.SET_AT_A_TIME_MIN + 1]


@pytest.mark.parametrize("n", LEAF_SIZES)
def test_leaf_routines_agree_on_everything_but_label_check_counts(
        n, monkeypatch):
    """The per-version loop and the set-at-a-time routines, forced in
    turn over the same ``n``-version chunks (heap slices and index
    probes alike): same rows, same emitted labels — stripped under a
    declassifying view — same suppression count, buffer traffic and
    index lookups, with a concurrent writer's uncommitted row hidden
    by both.  Only ``covers``/``strip`` may run more often (and only
    the set routine can find a segment frozen)."""
    authority = AuthorityState(idgen=SeededIdGenerator(606))
    db = Database(authority, seed=606, batch_size=n, buffer_pages=3,
                  io_penalty=0.25, page_size=256)
    clinic = authority.create_principal("clinic")
    compound = authority.create_compound_tag("all_t", owner=clinic.id)
    inside = [authority.create_tag("t%d" % i, owner=clinic.id,
                                   compounds=(compound.id,))
              for i in range(2)]
    outside = authority.create_tag("other", owner=clinic.id)
    admin = db.connect(IFCProcess(authority, clinic.id))
    admin.execute("CREATE TABLE p (id INT PRIMARY KEY, k INT, v INT)")
    admin.execute("CREATE INDEX p_k ON p (k)")
    writers = []
    for tag in inside + [outside]:
        process = IFCProcess(authority, clinic.id)
        process.add_secrecy(tag.id)
        writers.append(db.connect(process))
    for i in range(3 * n):
        writers[i % 3].execute("INSERT INTO p VALUES (?, ?, ?)",
                               (i, i // n, i % 5))
    for i in range(100, 300):           # singleton keys: k is selective
        writers[0].execute("INSERT INTO p VALUES (?, ?, 0)", (i, i))
    admin.execute("ANALYZE")
    # Predicates never cross a view boundary, so the index probe and
    # the index join live inside declassifying view bodies.
    admin.execute("CREATE VIEW probe AS SELECT id, v FROM p WHERE k = 1 "
                  "WITH DECLASSIFYING (all_t)")
    admin.execute("CREATE VIEW heap AS SELECT id, v FROM p "
                  "WITH DECLASSIFYING (all_t)")
    admin.execute("CREATE VIEW joined AS SELECT a.id, b.v FROM p a "
                  "JOIN p b ON b.k = a.k WHERE a.id < 100 "
                  "WITH DECLASSIFYING (all_t)")
    pending = writers[0]
    pending.begin()
    pending.execute("INSERT INTO p VALUES (9999, 1, 0)")
    reader = db.connect(IFCProcess(authority, clinic.id))
    queries = ["SELECT * FROM probe", "SELECT * FROM heap",
               "SELECT * FROM joined"]
    for sql, operator in zip(queries, ("IndexScan", "Scan p",
                                       "IndexLoopJoin")):
        assert any(operator in r[0]
                   for r in reader.execute("EXPLAIN " + sql)), sql

    def run(sql):
        db.buffer_cache.reset()
        rows = _normalized(reader, sql)
        delta = db.last_statement_metrics()
        return rows, delta

    for sql in queries:
        monkeypatch.setattr(physical, "SET_AT_A_TIME_MIN", 10 ** 9)
        loop_rows, loop = run(sql)
        monkeypatch.setattr(physical, "SET_AT_A_TIME_MIN", 0)
        set_rows, sets = run(sql)
        assert loop_rows == set_rows, sql
        assert all(label == () for _row, label in loop_rows)
        assert 9999 not in [row[0] for row, _label in loop_rows]
        assert loop["labels"]["rows_suppressed"] \
            == sets["labels"]["rows_suppressed"] > 0
        # The bound check is the set routine's alone: the loop asks
        # visible() of every version, so it never counts a frozen one.
        assert loop["exec"].pop("segments_frozen") == 0
        sets["exec"].pop("segments_frozen")
        for group in ("index", "exec"):
            assert loop[group] == sets[group], (sql, group)
        assert _buffer(loop) == _buffer(sets), sql
        # The singleton keys repeat one label chunk after chunk, which
        # only the per-version loop checks every time.
        assert loop["labels"]["covers_calls"] \
            >= sets["labels"]["covers_calls"]
        if sql.endswith("heap"):
            assert loop["labels"]["covers_calls"] \
                > sets["labels"]["covers_calls"]
        assert loop["labels"]["strip_calls"] \
            == loop["labels"]["covers_calls"]
    pending.rollback()


def test_projection_pushdown_materializes_only_needed_columns():
    """m has 3 stored columns; projecting 2 must copy exactly 2 cells
    per visible row out of the heap — the counter proof that pushdown
    reached the storage layer, at any batch size."""
    for batch_size in (5, 1024):
        _db, _public, secret, _ = _stack(batch_size)
        lines = [r[0] for r in secret.execute("EXPLAIN SELECT id, v FROM m")]
        assert any("cols=id,v" in line for line in lines), lines
        assert len(secret.execute("SELECT id, v FROM m").rows) == 40
        delta = _db.last_statement_metrics()["exec"]
        assert delta["columns_materialized"] == 2 * 40, (batch_size, delta)
        # A fold copies its key and argument columns, nothing more.
        secret.execute("SELECT grp, COUNT(*), SUM(v) FROM m GROUP BY grp")
        delta = _db.last_statement_metrics()["exec"]
        assert delta["columns_materialized"] == 2 * 40, (batch_size, delta)


def test_projection_pushdown_select_star_full_width():
    """``*`` reads everything: no cols= annotation, all cells copied."""
    _db, _public, secret, _ = _stack(1024)
    lines = [r[0] for r in secret.execute("EXPLAIN SELECT * FROM m")]
    assert not any("cols=" in line for line in lines), lines
    assert len(secret.execute("SELECT * FROM m").rows) == 40
    delta = _db.last_statement_metrics()["exec"]
    assert delta["columns_materialized"] == 3 * 40


def test_a_heap_segment_that_survives_whole_is_emitted_uncopied():
    """The secret reader sees all 40 rows: each heap segment is
    emitted as the very column arrays the heap keeps (tuples — an
    operator that mutated one would fail), and ``columns_materialized``
    counts the emitted cells all the same, so it does not tell a kept
    summary from a rebuilt one — nor a hidden row's presence."""
    db, public, secret, _ = _stack(8)
    table = db.catalog.get_table("m")
    sql = "SELECT id, v FROM m"
    prepared = db.prepare_select(db.parse(sql), sql)
    with secret._autocommit():
        batches = list(prepared.plan.batches(secret._context(())))
    kept = list(table.segments(8))
    assert len(batches) == len(kept) == 5
    for batch, segment in zip(batches, kept):
        assert batch.column(0) is segment.column(0)     # through Project
        assert batch.column(1) is segment.column(2)
        assert type(batch.column(1)) is tuple
    assert len(secret.execute(sql).rows) == 40
    delta = db.last_statement_metrics()["exec"]
    assert delta["columns_materialized"] == 2 * 40
    assert delta["segments_scanned"] == delta["segments_frozen"] == 5
    assert len(public.execute(sql).rows) == 26       # every segment cut
    assert db.last_statement_metrics()["exec"]["columns_materialized"] \
        == 2 * 26


def test_projection_pushdown_subquery_disables_pushdown():
    """A correlated subquery may read arbitrary outer columns through
    the outer-row stack, so its presence pins every scan to full
    width (the conservative bail-out)."""
    _db, _public, secret, _ = _stack(1024)
    sql = ("SELECT id FROM m WHERE EXISTS (SELECT 1 FROM m b "
           "WHERE b.grp = m.grp AND b.v > m.v)")
    lines = [r[0] for r in secret.execute("EXPLAIN " + sql)]
    assert not any("cols=" in line for line in lines), lines


def test_projection_pushdown_under_declassifying_view():
    """Pushdown must reach the scan *below* a declassifying view
    without disturbing label stripping: values, stripped labels, and
    the cell counter all agree with the size-1 reference."""
    results = {}
    for mode, batch_size in (("batched", 8), ("row", 1)):
        authority = AuthorityState(idgen=SeededIdGenerator(55))
        db = Database(authority, seed=55, batch_size=batch_size)
        clinic = authority.create_principal("clinic")
        compound = authority.create_compound_tag("all_t", owner=clinic.id)
        tag = authority.create_tag("t0", owner=clinic.id,
                                   compounds=(compound.id,))
        admin = db.connect(IFCProcess(authority, clinic.id))
        admin.execute("CREATE TABLE p (id INT PRIMARY KEY, a INT, b INT,"
                      " c TEXT)")
        for i in range(30):
            proc = IFCProcess(authority, clinic.id)
            proc.add_secrecy(tag.id)
            db.connect(proc).execute(
                "INSERT INTO p VALUES (?, ?, ?, ?)",
                (i, i % 5, i % 7, "pad-%d" % i))
        admin.execute("CREATE VIEW pv AS SELECT id, a FROM p "
                      "WITH DECLASSIFYING (all_t)")
        session = db.connect(IFCProcess(authority, clinic.id))
        results[mode] = _normalized(session, "SELECT a FROM pv")
        if mode == "batched":
            # The view body reads id and a: 2 of 4 stored columns.
            delta = db.last_statement_metrics()["exec"]
            assert delta["columns_materialized"] == 2 * 30
        assert all(label == () for _row, label in results[mode])
        assert len(results[mode]) == 30
    assert results["batched"] == results["row"]


def test_dml_plans_never_project():
    """UPDATE/DELETE rewrite whole tuple versions (xmax stamping plus
    the unchanged columns of the new version), so DML access paths
    always run at full width — no cols= on any EXPLAIN line, and a
    single-column UPDATE must leave its neighbors intact."""
    _db, public, secret, _ = _stack(1024)
    lines = [r[0] for r in secret.execute(
        "EXPLAIN UPDATE m SET v = 0 WHERE grp = 1")]
    assert not any("cols=" in line for line in lines), lines
    before = {r[0]: (r[1], r[2])
              for r in secret.execute("SELECT id, grp, v FROM m")}
    # id=5 is a public row; the public session may rewrite it.
    assert public.execute("UPDATE m SET v = 0 WHERE id = 5").rowcount == 1
    after = {r[0]: (r[1], r[2])
             for r in secret.execute("SELECT id, grp, v FROM m")}
    assert after[5] == (before[5][0], 0)
    assert all(after[i] == before[i] for i in before if i != 5)


def test_aggregation_over_join_matches_row_mode_with_projection():
    """Aggregation above a join above two projected scans: batch
    size 16 must agree with size 1 on groups, aggregates, and
    labels."""
    sql = ("SELECT a.grp, COUNT(*), SUM(b.v) FROM m a "
           "JOIN m b ON b.grp = a.grp GROUP BY a.grp")
    _db_row, _p1, secret_row, _ = _stack(1)
    _db_bat, _p2, secret_bat, _ = _stack(16)
    assert _normalized(secret_bat, sql) == _normalized(secret_row, sql)


def _skewed_join_stack(batch_size, indexed):
    """``a`` (64 rows) and ``b`` (50 rows) share one join key: every
    outer row matches all of ``b`` — fanout 50, well past a 16-row
    batch.  ``indexed`` adds an index on ``b.k`` and 400 unique-key rows
    that make it selective enough for an index-loop join."""
    authority = AuthorityState(idgen=SeededIdGenerator(77))
    db = Database(authority, seed=77, batch_size=batch_size, work_mem=0)
    session = db.connect()
    session.execute("CREATE TABLE a (id INT PRIMARY KEY, k INT, v INT)")
    session.execute("CREATE TABLE b (id INT PRIMARY KEY, k INT, v INT)")
    if indexed:
        session.execute("CREATE INDEX b_k ON b (k)")
        for i in range(100, 500):
            session.execute("INSERT INTO b VALUES (?, ?, 0)", (i, i))
    for i in range(64):
        session.execute("INSERT INTO a VALUES (?, ?, ?)",
                        (i, 1 if i % 8 else None, i % 5))
    for i in range(50):
        session.execute("INSERT INTO b VALUES (?, 1, ?)", (i, i % 7))
    session.execute("ANALYZE")
    return db, session


def _join_actuals(session, sql):
    """(operator, rows, batches) the join emits while the statement's
    plan is drained by hand — batch boundaries are high, so no SQL
    statement shows them."""
    db = session.db
    plan = db.prepare_select(db.parse(sql), sql).plan
    join = plan
    while "Join" not in type(join).__name__:
        (join,) = join.children()
    emitted = []
    own = join.batches
    join.batches = lambda ctx: (emitted.append(len(batch)) or batch
                                for batch in own(ctx))
    try:
        with session._autocommit():
            for _batch in plan.batches(session._context(())):
                pass
    finally:
        del join.batches
    return type(join).__name__, sum(emitted), len(emitted)


@pytest.mark.parametrize("indexed", [False, True])
def test_skewed_join_output_batches_are_bounded(indexed):
    """A join flushes at the first outer-row boundary past batch_size —
    never one batch of batch_size × fanout pairs — so a LIMIT above it
    stops after one outer row's matches and peak memory does not scale
    with the fanout.  Slicing must not change what a LEFT join with a
    residual emits, or in which order."""
    import tracemalloc
    _db, batched = _skewed_join_stack(16, indexed)
    _db, by_row = _skewed_join_stack(1, indexed)
    join = "SELECT a.id, b.id FROM a JOIN b ON a.k = b.k"
    operator, rows, batches = _join_actuals(batched, join)
    assert operator == ("IndexLoopJoin" if indexed else "HashJoin")
    # One batch per outer row, whichever side the planner made outer.
    assert rows == 56 * 50 and batches in (56, 50)
    # LIMIT 1: the first keyed outer row's matches and no more.
    assert _join_actuals(batched, join + " LIMIT 1")[1:] \
        == (rows // batches, 1)
    tracemalloc.start()
    assert len(batched.execute(join + " LIMIT 1").rows) == 1
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 512 * 1024, peak      # 2 800 held pairs cost ~1 MB
    for sql in (join,
                "SELECT a.id, b.id FROM a LEFT JOIN b "
                "ON a.k = b.k AND b.v > a.v + 2",
                "SELECT a.id, b.id FROM a LEFT JOIN b "
                "ON a.k = b.k AND b.v > 99"):
        assert [tuple(r) for r in batched.execute(sql).rows] \
            == [tuple(r) for r in by_row.execute(sql).rows], sql


_CELLS = st.none() | st.integers(-3, 3) | st.sampled_from(["a", "b"])


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_row_batch_agrees_with_a_list_of_rows_model(data):
    """The one layout against the obvious model — a list of rows and
    two lists of labels — under random chains of ``select`` (index
    lists and ranges, empty ones included): the length comes from the
    labels, so a batch of only projected-away columns still has its
    rows and a zero-row batch still has its width; a projected-away
    column reads NULL, is never materialized by ``select``, and both
    label sequences follow the rows."""
    n = data.draw(st.integers(0, 8))
    columns = data.draw(st.lists(
        st.none() | st.lists(_CELLS, min_size=n, max_size=n), max_size=4))
    width = len(columns)
    away = [column is None for column in columns]
    model = [tuple(None if column is None else column[i]
                   for column in columns) for i in range(n)]
    labels = ["L%d" % i for i in range(n)]
    ilabels = ["I%d" % i for i in range(n)]
    batch = physical.RowBatch(columns, list(labels), list(ilabels))
    for _step in range(data.draw(st.integers(0, 3)) + 1):
        assert len(batch) == len(model)
        assert batch.width == width
        assert [column is None for column in batch.columns()] == away
        for i in range(width):
            assert list(batch.column(i)) == [row[i] for row in model]
        assert [list(column) for column in batch.filled()] \
            == [[row[i] for row in model] for i in range(width)]
        before = tally().rows_widened
        assert batch.rows() == model
        assert tally().rows_widened - before == len(model)
        assert list(batch.labels) == labels
        assert list(batch.ilabels) == ilabels
        with pytest.raises(IndexError):
            batch.column(width)
        if data.draw(st.booleans()):
            lo = data.draw(st.integers(0, len(model)))
            keep = range(lo, data.draw(st.integers(lo, len(model))))
        else:
            keep = data.draw(st.lists(
                st.integers(0, len(model) - 1), max_size=6)
                if model else st.just([]))
        batch = batch.select(keep)
        model = [model[i] for i in keep]
        labels = [labels[i] for i in keep]
        ilabels = [ilabels[i] for i in keep]


def test_batches_widen_rows_exactly_once():
    """The no-double-copy pin: a batched pipeline (projected scan →
    projection) only rebuilds row-major lists at the cursor drain, so
    ``rows_widened`` equals the statement's output row count."""
    _db, _public, secret, _ = _stack(1024)
    rows = secret.execute("SELECT id, v FROM m WHERE v < 12").rows
    assert len(rows) > 0
    delta = _db.last_statement_metrics()["exec"]
    assert delta["rows_widened"] == len(rows)
    assert delta["columns_materialized"] == 2 * len(rows)


def test_predicate_free_scan_skips_row_copy_for_dml_targets():
    """versions() yields the physical versions without materializing a
    predicate row when there is no predicate (and with only the bare
    tuple when the predicate is label-free)."""
    db, public, secret, _ = _stack(1024)
    # Label-free predicate UPDATE through the batched path.
    count = secret.execute("UPDATE m SET v = v + 1 "
                           "WHERE grp = 1 AND id % 3 = 0").rowcount
    reference_db, _pub, secret_row, _ = _stack(1)
    expected = secret_row.execute("UPDATE m SET v = v + 1 "
                                  "WHERE grp = 1 AND id % 3 = 0").rowcount
    assert count == expected
    assert _normalized(secret, "SELECT * FROM m") \
        == _normalized(secret_row, "SELECT * FROM m")


# ---------------------------------------------------------------------------
# Counter pins for the set-at-a-time path: the label routine and the
# column-native folds may change how fast work is done, never how much
# ---------------------------------------------------------------------------

PIN_ROWS = 200
PIN_BATCH = 16
#: Row → tag index: runs of 6 over 8 tags, so a 16-row chunk holds 3–4
#: runs and the runs straddle chunk boundaries.
def PIN_TAG(i):
    return (i // 6) % 8


def _pin_stack(batch_size, **db_kwargs):
    """200 rows under 8 tags; the reader holds the even-numbered four.
    A 4-page buffer cache over 256-byte pages makes hits, misses and
    evictions all move."""
    authority = AuthorityState(idgen=SeededIdGenerator(1212))
    db = Database(authority, seed=1212, batch_size=batch_size,
                  buffer_pages=4, io_penalty=0.25, page_size=256,
                  **db_kwargs)
    owner = authority.create_principal("owner")
    tags = [authority.create_tag("pin-%d" % i, owner=owner.id)
            for i in range(8)]
    admin = db.connect(IFCProcess(authority, owner.id))
    admin.execute("CREATE TABLE pin (id INT PRIMARY KEY, grp INT, v INT)")
    writers = []
    for tag in tags:
        process = IFCProcess(authority, owner.id)
        process.add_secrecy(tag.id)
        writers.append(db.connect(process))
    for i in range(PIN_ROWS):
        writers[PIN_TAG(i)].execute("INSERT INTO pin VALUES (?, ?, ?)",
                                    (i, i % 5, (i * 7) % 31))
    admin.execute("ANALYZE")
    reader = IFCProcess(authority, owner.id)
    for tag in tags[::2]:
        reader.add_secrecy(tag.id)
    return db, db.connect(reader)


def _pin_chunks(n_chunks=None):
    """Per 16-row chunk: ``(distinct tags, visible rows, hidden rows)``."""
    out = []
    for start in range(0, PIN_ROWS, PIN_BATCH):
        tags = [PIN_TAG(i) for i in range(start,
                                          min(start + PIN_BATCH, PIN_ROWS))]
        visible = sum(1 for t in tags if t % 2 == 0)
        out.append((len(set(tags)), visible, len(tags) - visible))
    return out[:n_chunks]


def _pin_delta(db, session, sql, params=()):
    db.buffer_cache.reset()
    rows = session.execute(sql, params).rows
    return rows, db.last_statement_metrics()


def test_plain_scan_counts_are_sums_over_chunks():
    """``covers_calls`` is Σ distinct labels per chunk — nothing else —
    and suppression, materialized cells and buffer traffic are what the
    per-version loop charges, tuple for tuple."""
    chunks = _pin_chunks()
    db, reader = _pin_stack(PIN_BATCH)
    rows, delta = _pin_delta(db, reader, "SELECT id, v FROM pin")
    assert len(rows) == sum(c[1] for c in chunks) == 102
    assert delta["labels"] == {
        "covers_calls": sum(c[0] for c in chunks), "strip_calls": 0,
        "rows_suppressed": sum(c[2] for c in chunks), "cuts_reused": 0}
    # Scanned again, every chunk's kept label cut answers: no label
    # check runs, and the reader sees and is charged the same.
    again, warm = _pin_delta(db, reader, "SELECT id, v FROM pin")
    assert again == rows
    assert warm["labels"] == dict(delta["labels"], covers_calls=0,
                                  cuts_reused=len(chunks))
    assert warm["exec"] == delta["exec"] and _buffer(warm) == _buffer(delta)
    assert delta["exec"]["columns_materialized"] == 2 * len(rows)
    # Size 1 touches one version at a time: the reference for the
    # page-run accounting, evictions and simulated I/O included.
    row_db, row_reader = _pin_stack(1)
    _rows, row_delta = _pin_delta(row_db, row_reader, "SELECT id, v FROM pin")
    assert _buffer(delta) == _buffer(row_delta)
    assert row_delta["labels"]["covers_calls"] == PIN_ROWS
    assert row_delta["labels"]["rows_suppressed"] \
        == delta["labels"]["rows_suppressed"]


def test_limit_abandons_the_scan_after_whole_chunks():
    """A LIMIT satisfied mid-heap stops the scan at a chunk boundary:
    every counter covers exactly the chunks consumed."""
    db, reader = _pin_stack(PIN_BATCH)
    rows, delta = _pin_delta(db, reader, "SELECT id FROM pin LIMIT 12")
    assert [r[0] for r in rows] == [i for i in range(PIN_ROWS)
                                    if PIN_TAG(i) % 2 == 0][:12]
    consumed = _pin_chunks(2)            # 10 visible, then 6 more
    assert sum(c[1] for c in consumed[:1]) < 12 <= sum(c[1] for c in consumed)
    assert delta["labels"]["covers_calls"] == sum(c[0] for c in consumed)
    assert delta["labels"]["rows_suppressed"] == sum(c[2] for c in consumed)
    assert delta["exec"]["columns_materialized"] \
        == sum(c[1] for c in consumed)
    assert _accesses(delta) == 2 * PIN_BATCH


@pytest.mark.parametrize("sql, scans, kernel_less", [
    ("SELECT id, v FROM pin", 1, False),
    ("SELECT COUNT(*), SUM(v) FROM pin WHERE v >= 3 AND grp < 4", 1, False),
    ("SELECT grp, COUNT(*), SUM(v), MIN(v) FROM pin GROUP BY grp", 1, False),
    ("SELECT DISTINCT grp FROM pin WHERE v >= 3", 1, False),
    ("SELECT id, v FROM pin ORDER BY v DESC, id", 1, False),
    ("SELECT a.id, b.id FROM pin a JOIN pin b ON b.v = a.v "
     "WHERE a.grp = 1 AND b.grp = 2", 2, False),
    ("SELECT id FROM pin LIMIT 12", None, False),
    # IN over constants has a column kernel: no row per survivor.
    ("SELECT id FROM pin WHERE v IN (3, 5, 8)", 1, False),
    ("SELECT grp, COUNT(*) FROM pin WHERE v IN (3, 5, 8) GROUP BY grp",
     1, False),
    ("SELECT id FROM pin WHERE v BETWEEN 3 AND 8", 1, True),
])
def test_rows_are_built_for_the_result_and_for_kernel_less_expressions(
        sql, scans, kernel_less):
    """The one rule of ``rows_widened``: a statement builds its result
    rows at the cursor, plus — where a scan predicate has no column
    kernel (``BETWEEN``) — one row per *label survivor* the predicate
    was evaluated over.  Scans, folds, sorts, joins and LIMIT build no
    other row, whichever operator produced the batch, spilled or not;
    the folds still read every chunk's labels exactly once — the first
    scan of a chunk builds its label cut (one ``covers`` per distinct
    label), a second scan of it under the same reader reuses it."""
    db, reader = _pin_stack(PIN_BATCH)
    _row_db, row_reader = _pin_stack(1)
    rows, delta = _pin_delta(db, reader, sql)
    assert len(rows) > 0
    expected = list(map(tuple, row_reader.execute(sql).rows))
    if "ORDER BY" in sql or "LIMIT" in sql:
        assert list(map(tuple, rows)) == expected
    else:
        assert sorted(map(tuple, rows)) == sorted(expected)
    chunks = _pin_chunks()
    survivors = sum(c[1] for c in chunks) if kernel_less else 0
    assert delta["exec"]["rows_widened"] == len(rows) + survivors
    if scans is not None:
        assert delta["labels"]["covers_calls"] == sum(c[0] for c in chunks)
        assert delta["labels"]["cuts_reused"] == (scans - 1) * len(chunks)


def test_declassifying_view_strips_once_per_distinct_label_per_chunk():
    """A declassifying view goes through the same label routine: one
    ``strip`` and one ``covers`` per distinct *stored* label per chunk
    (the old per-row path paid both per tuple)."""
    authority = AuthorityState(idgen=SeededIdGenerator(99))
    db = Database(authority, seed=99, batch_size=8)
    clinic = authority.create_principal("clinic")
    compound = authority.create_compound_tag("all_t", owner=clinic.id)
    tags = [authority.create_tag("t%d" % i, owner=clinic.id,
                                 compounds=(compound.id,))
            for i in range(3)]
    admin = db.connect(IFCProcess(authority, clinic.id))
    admin.execute("CREATE TABLE p (id INT PRIMARY KEY, v INT)")
    for i in range(30):
        proc = IFCProcess(authority, clinic.id)
        proc.add_secrecy(tags[(i // 4) % 3].id)          # runs of 4
        db.connect(proc).execute("INSERT INTO p VALUES (?, ?)", (i, i % 5))
    admin.execute("CREATE VIEW pv AS SELECT id, v FROM p "
                  "WITH DECLASSIFYING (all_t)")
    reader = db.connect(IFCProcess(authority, clinic.id))
    assert len(reader.execute("SELECT * FROM pv").rows) == 30
    distinct_per_chunk = sum(
        len({(i // 4) % 3 for i in range(start, min(start + 8, 30))})
        for start in range(0, 30, 8))
    assert db.last_statement_metrics()["labels"] == {
        "covers_calls": distinct_per_chunk,
        "strip_calls": distinct_per_chunk, "rows_suppressed": 0,
        "cuts_reused": 0}


# ---------------------------------------------------------------------------
# Consumers outside the operator tree drain batches too
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch_size", [1, 3, 1024])
def test_consumers_outside_the_tree_drain_batches(batch_size):
    """The cursor under ``deterministic_order``, ``INSERT … SELECT`` and
    the IN / scalar subquery closures have no row protocol to fall back
    on: each drains ``batches()``, whatever the chunk size."""
    db, public, secret, _ = _stack(batch_size, deterministic_order=True)
    ids = [r[0] for r in secret.execute("SELECT id FROM m WHERE grp = 1")]
    assert ids == sorted(range(1, 40, 4), key=str)    # by value text
    assert [tuple(r) for r in secret.execute("SELECT 1 + 1")] == [(2,)]
    assert secret.execute("SELECT 1 WHERE 1 = 0").rows == []
    public.execute("CREATE TABLE copy (id INT PRIMARY KEY, v INT)")
    assert public.execute(
        "INSERT INTO copy SELECT id, v FROM m WHERE grp = 2").rowcount \
        == len(public.execute("SELECT id FROM m WHERE grp = 2").rows) > 0
    # IN: a match, a miss, and the NULL that turns a miss into UNKNOWN.
    public.execute("INSERT INTO copy VALUES (1000, NULL)")
    assert _normalized(public, "SELECT id FROM copy WHERE id IN "
                               "(SELECT id FROM m WHERE grp = 2)") \
        == _normalized(public, "SELECT id FROM copy WHERE id < 1000")
    assert public.execute("SELECT id FROM copy WHERE 999 NOT IN "
                          "(SELECT v FROM copy)").rows == []
    assert public.execute(
        "SELECT (SELECT MAX(v) FROM copy WHERE id = c.id) FROM copy c "
        "WHERE id = 1000").scalar() is None


def test_stamp_reaches_every_node_through_views_and_joins():
    db, public, _secret, _ = _stack(17)
    public.execute("CREATE VIEW mv AS SELECT id, grp FROM m WHERE v > 2")
    prepared = db.prepare_select(db.parse(
        "SELECT a.id FROM mv a JOIN m b ON b.id = a.id "
        "WHERE a.grp IN (SELECT grp FROM m) ORDER BY a.id LIMIT 3"), None)
    seen = []

    def walk(node):
        seen.append(type(node).__name__)
        assert node.batch_size == 17, node
        for child in node.children():
            walk(child)

    walk(prepared.plan)
    assert {"ViewPlan", "IndexLoopJoin", "TopN"} <= set(seen), seen


# ---------------------------------------------------------------------------
# The aggregation fold against a plain-Python model
# ---------------------------------------------------------------------------

class _Rows(physical.Plan):
    """A leaf that emits given columns and labels in batches of its
    ``batch_size``."""

    def __init__(self, columns, labels, ilabels):
        self.data = columns, labels, ilabels

    def batches(self, ctx):
        columns, labels, ilabels = self.data
        for lo in range(0, len(labels), self.batch_size):
            cut = slice(lo, lo + self.batch_size)
            yield physical.RowBatch([column[cut] for column in columns],
                                    labels[cut], ilabels[cut])


#: (function, argument column or None for ``*``, DISTINCT) per aggregate
#: of the property below; columns 0–1 are the group keys.
_FOLD_SPECS = (("COUNT", None, False), ("COUNT", 2, False),
               ("SUM", 2, False), ("AVG", 2, False), ("MIN", 2, False),
               ("MAX", 2, False), ("COUNT", 3, True), ("SUM", 3, True))


def _fold_node(columns, labels, ilabels, keys, batch_size):
    def column(index):
        return lambda batch, ctx: batch.column(index)
    specs = [physical.AggSpec(func, None if arg is None else column(arg),
                              distinct)
             for func, arg, distinct in _FOLD_SPECS]
    node = physical.AggregateNode(
        _Rows(columns, labels, ilabels), [column(i) for i in keys], specs,
        global_agg=not keys)
    return physical.stamp_batch_size(node, batch_size)


def _drain(node, work_mem):
    ctx = SimpleNamespace(work_mem=work_mem,
                          spools=Spools(work_mem, node.batch_size))
    return [(row, label, ilabel) for batch in node.batches(ctx)
            for row, label, ilabel
            in zip(batch.rows(), batch.labels, batch.ilabels)]


def _left_fold(values):
    total = None
    for value in values:
        total = value if total is None else total + value
    return total


def _best(values, beats):
    best = None
    for value in values:
        if best is None or beats(value, best):
            best = value
    return best


def _fold_model(columns, labels, ilabels, keys):
    """What the fold must return, row by row: groups in first-seen
    order (the first-seen spelling of an equal key: ``1`` before
    ``1.0``), each aggregate over its non-NULL arguments in input
    order, and the union of the group's labels and ilabels."""
    groups = {}
    for i, label in enumerate(labels):
        key = tuple(columns[k][i] for k in keys)
        held = groups.setdefault(key, [frozenset(), frozenset(), []])
        held[0] |= label
        held[1] |= ilabels[i]
        held[2].append(i)
    expected = []
    for key, (label, ilabel, rows) in groups.items():
        results = []
        for func, arg, distinct in _FOLD_SPECS:
            values = [True if arg is None else columns[arg][i]
                      for i in rows]
            values = [value for value in values if value is not None]
            if distinct:
                values = list(dict.fromkeys(values))
            n = len(values)
            total = _left_fold(values)
            results.append({"COUNT": n, "SUM": total,
                            "AVG": total / n if n else None,
                            "MIN": _best(values, lambda a, b: a < b),
                            "MAX": _best(values, lambda a, b: a > b)}[func])
        expected.append(((*key, *results), label, ilabel))
    return expected


def _exact(rows):
    """Rows as text, so ``1`` and ``1.0`` (and ``0.0``/``-0.0``) differ."""
    return [(repr(values), label, ilabel) for values, label, ilabel in rows]


_KEY_CELLS = st.none() | st.integers(0, 3) | st.sampled_from([0.0, 1.0, 2.5])
#: Floats whose sums depend on the order they are added in.
_ARG_CELLS = st.none() | st.integers(-5, 5) \
    | st.sampled_from([0.1, 0.7, 1.0, -0.0, 1e16, -1e16])
_LABELS = [Label(tags) for tags in ((), (1,), (2,), (1, 2), (3,))]
_ILABELS = [Label(tags) for tags in ((), (8,), (9,))]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_the_fold_agrees_with_a_row_by_row_model(data):
    """GROUP BY over NULL and mixed int/float keys, every aggregate
    kernel over NULL-holding columns, random labels and ilabels: the
    groups come out in first-seen order with exactly the model's
    values (float sums folded in input order) and label unions at batch
    sizes 1, 7 and the default; under budgets that spill (and
    re-partition) the same rows come out in some order.  With no group
    key it is the global aggregate: one row over the whole input."""
    n = data.draw(st.integers(0, 60))
    cells = [st.lists(_KEY_CELLS, min_size=n, max_size=n)] * 2 \
        + [st.lists(_ARG_CELLS, min_size=n, max_size=n)] * 2
    columns = [data.draw(column) for column in cells]
    labels = data.draw(st.lists(st.sampled_from(_LABELS),
                                min_size=n, max_size=n))
    ilabels = data.draw(st.lists(st.sampled_from(_ILABELS),
                                 min_size=n, max_size=n))
    for keys in ((0,), (0, 1), ()):
        expected = _exact(_fold_model(columns, labels, ilabels, keys))
        if not keys and not n:
            # A global aggregate answers even an empty input.
            expected = _exact([((0, 0, None, None, None, None, 0, None),
                                EMPTY_LABEL, EMPTY_LABEL)])
        for size in (1, 7, physical.DEFAULT_BATCH_SIZE):
            node = _fold_node(columns, labels, ilabels, keys, size)
            assert _exact(_drain(node, 0)) == expected, (keys, size)
            for work_mem in (700, 2500):
                got = _exact(_drain(node, work_mem))
                assert sorted(got, key=repr) == sorted(expected, key=repr), \
                    (keys, size, work_mem)


def _group_label_checks(got, expected):
    """Each emitted row's label and ilabel is the very interned
    ``Label`` of the model's union (``is``, not ``==``)."""
    for (values, label, ilabel), (_, union, iunion) in zip(got, expected):
        assert label is Label(union) and ilabel is Label(iunion), values


@pytest.mark.parametrize("keys", [(0,), (0, 1)])
def test_a_fold_over_many_distinct_labels(keys):
    """A fold that meets the public label and more than 64 distinct
    labels (and ilabels) — one group meets every one of them, one only
    the public label — gives every group the interned label of its
    labels' union, at batch sizes 1, 7 and the default, in memory (in
    first-seen order) and spilled (in some order)."""
    rng = random.Random(0xB175)
    pool = [EMPTY_LABEL] + [Label((100 + i, 300 + i % 5)) for i in range(90)]
    ipool = [EMPTY_LABEL] + [Label((500 + i,)) for i in range(70)]
    rows = [(0, 0, EMPTY_LABEL, EMPTY_LABEL)]
    rows += [(1, 0, label, ipool[i % len(ipool)])
             for i, label in enumerate(pool)]
    rows += [(rng.randrange(2, 12), rng.randrange(3), rng.choice(pool),
              rng.choice(ipool)) for _ in range(400)]
    rows += [(0, 1, EMPTY_LABEL, EMPTY_LABEL)] * 3
    rng.shuffle(rows)
    columns = [[row[0] for row in rows], [row[1] for row in rows],
               [rng.randrange(-5, 5) for _ in rows], [rng.randrange(3)
                                                      for _ in rows]]
    labels = [row[2] for row in rows]
    ilabels = [row[3] for row in rows]
    expected = _fold_model(columns, labels, ilabels, keys)
    # Group (1, 0) met 90 labels, each with a tag of its own below 300.
    assert max(sum(tag < 300 for tag in label)
               for _, label, _ in expected) == 90
    assert any(not label for _, label, _ in expected)
    by_key = sorted(expected, key=lambda row: row[0])
    for size in (1, 7, physical.DEFAULT_BATCH_SIZE):
        node = _fold_node(columns, labels, ilabels, keys, size)
        got = _drain(node, 0)
        assert _exact(got) == _exact(expected), size
        _group_label_checks(got, expected)
        for work_mem in (700, 2500):
            got = sorted(_drain(node, work_mem), key=lambda row: row[0])
            assert _exact(got) == _exact(by_key), (size, work_mem)
            _group_label_checks(got, by_key)


@pytest.mark.parametrize("key", [0, 1], ids=["distinct", "one group"])
def test_a_fold_stays_linear_in_the_distinct_labels_it_meets(key,
                                                             monkeypatch):
    """12 000 rows, each under a label of its own (two of 156 tags),
    folded by DISTINCT (a group per row) and by GROUP BY into one
    group.  Every group's label is the interned union of its rows';
    DISTINCT calls :meth:`Label.union` not once, the one group only
    for a row that adds a tag to it; and the fold's peak allocation
    stays a few MB, the size of its groups — not the square of the
    distinct labels."""
    pool = [Label(pair) for pair in combinations(range(5000, 5156), 2)]
    pool = pool[:12000]
    n = len(pool)
    calls = []
    union = Label.union

    def counted(self, other):
        calls.append(other)
        return union(self, other)

    monkeypatch.setattr(Label, "union", counted)
    node = physical.stamp_batch_size(physical.AggregateNode(
        _Rows([list(range(n)), [0] * n], pool, pool),
        [lambda batch, ctx: batch.column(key)],
        [physical.AggSpec("COUNT", None, False)], global_agg=False),
        physical.DEFAULT_BATCH_SIZE)
    ctx = SimpleNamespace(work_mem=0, spools=Spools(0, node.batch_size))
    tracemalloc.start()
    try:
        labels, ilabels = [], []
        for batch in node.batches(ctx):
            labels.extend(batch.labels)
            ilabels.extend(batch.ilabels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if key == 0:
        assert len(labels) == len(ilabels) == n
        assert all(got is label for got, label in zip(labels, pool))
        assert all(got is label for got, label in zip(ilabels, pool))
        assert not calls
    else:
        everything = Label(range(5000, 5156))
        assert labels == [everything] and labels[0] is everything
        assert ilabels[0] is everything
        assert 0 < len(calls) <= 2 * 154        # labels and ilabels
    assert peak < 4 << 20, peak


#: One-column key values whose equality a key tuple and a bare value
#: must agree on: NULL, one NaN object met twice and another NaN, the
#: equal ``1``/``1.0``/``True`` (and ``0``/``0.0``/``False``), and text
#: beside the numbers it spells.
_NAN, _OTHER_NAN = float("nan"), float("nan")
ONE_COLUMN_KEYS = (None, _NAN, _NAN, _OTHER_NAN, 1, 1.0, True, "1", "a",
                   0, False, 0.0, 2, "a", None, _OTHER_NAN)


def _is_nan(value) -> bool:
    return isinstance(value, float) and value != value


def test_one_column_group_keys():
    """GROUP BY (and DISTINCT, the fold with no aggregates) over one
    column whose values are NULL, NaN (the same object, and distinct
    objects), ``1``/``1.0``/``True`` and text beside numbers: the
    groups are the model's, in first-seen order and first-seen
    spelling, at batch sizes 1, 7 and the default.  Spilled, every
    group but a NaN's is the model's in some order; a NaN read back
    from a spill file is a new object, so a NaN group may come back
    split, but never loses or gains a row."""
    rng = random.Random(0x1C01)
    keys = [rng.choice(ONE_COLUMN_KEYS) for _ in range(150)]
    n = len(keys)
    columns = [keys, [0] * n, [rng.randrange(-5, 5) for _ in range(n)],
               [rng.randrange(3) for _ in range(n)]]
    labels = [rng.choice(_LABELS) for _ in range(n)]
    ilabels = [rng.choice(_ILABELS) for _ in range(n)]
    expected = _fold_model(columns, labels, ilabels, (0,))
    assert len(expected) == 8          # NULL, two NaNs, 1, "1", "a", 0, 2
    distinct = [((values[0],), label, ilabel)
                for values, label, ilabel in expected]
    for size in (1, 7, physical.DEFAULT_BATCH_SIZE):
        node = _fold_node(columns, labels, ilabels, (0,), size)
        got = _drain(node, 0)
        assert _exact(got) == _exact(expected), size
        _group_label_checks(got, expected)
        distinct_node = physical.stamp_batch_size(physical.AggregateNode(
            _Rows(columns, labels, ilabels),
            [lambda batch, ctx: batch.column(0)], [], global_agg=False),
            size)
        got = _drain(distinct_node, 0)
        assert _exact(got) == _exact(distinct), size
        _group_label_checks(got, distinct)
        for work_mem in (700, 2500):
            got = _drain(node, work_mem)
            assert sorted(_exact(row for row in got
                                 if not _is_nan(row[0][0])), key=repr) \
                == sorted(_exact(row for row in expected
                                 if not _is_nan(row[0][0])), key=repr)
            nan_count = sum(row[0][1] for row in got if _is_nan(row[0][0]))
            assert nan_count == keys.count(_NAN) + keys.count(_OTHER_NAN)


@pytest.mark.parametrize("keys", [(0,), ()])
def test_sum_over_text_and_numbers_raises_type_error(keys):
    """SUM folds with ``+``: a text value meeting a number fails the
    statement with a typed ``ExpressionError`` naming the aggregate and
    the types it met, grouped or global, in memory or spilled — and
    through SQL."""
    columns = [[1, 1, 2], [1, 1, 1], ["a", 5, 1], [None] * 3]
    node = _fold_node(columns, [EMPTY_LABEL] * 3, [EMPTY_LABEL] * 3, keys,
                      physical.DEFAULT_BATCH_SIZE)
    for work_mem in (0, 700):
        with pytest.raises(ExpressionError, match=r"^cannot evaluate SUM\("):
            _drain(node, work_mem)
    _db, public, _secret, _ = _stack(1024)
    public.execute("CREATE TABLE mixed (k INT, v TEXT)")
    for k, v in ((1, "a"), (1, "b"), (2, "c")):
        public.execute("INSERT INTO mixed VALUES (?, ?)", (k, v))
    text_or_int = "CASE WHEN v = 'a' THEN v ELSE k END"
    for sql in ("SELECT k, SUM(%s) FROM mixed GROUP BY k" % text_or_int,
                "SELECT SUM(%s) FROM mixed" % text_or_int):
        with pytest.raises(ExpressionError, match=r"^cannot evaluate SUM\("):
            public.execute(sql)
