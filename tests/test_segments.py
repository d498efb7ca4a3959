"""Segment summaries and kept label cuts are invisible.

The heap memoizes, per slice, what every scan of that slice would
otherwise re-derive (:class:`repro.db.storage.Segment`: labels,
distinct labels, newest ``xmin``, any ``xmax``, page runs, column
arrays) and, for a slice a scan found frozen, the label cut of the last
reader key (:class:`repro.db.storage.LabelCut`).  Both are caches of
the heap and nothing else, so nothing a reader can observe may depend
on whether one was kept, rebuilt or never built:

* one seeded stream of INSERT / UPDATE / DELETE / ROLLBACK / VACUUM —
  a second reader holding an older snapshot open across some of it —
  runs against a database at the default segment length and against
  the batch-size-1 reference executor; after every step a heap scan,
  an index scan, an index-range scan and an index-loop join are
  answered four ways — from the summaries and cuts the writes left
  behind, from both rebuilt from nothing (cold), again from those
  (warm), and by the reference — and must agree on rows, labels,
  integrity labels, ``rows_suppressed`` and every low counter; the
  first three also, under a four-page buffer, on buffer hits and
  misses, and differ only in how many cuts were built or reused;
* the cut's key one part at a time: two readers alternating, a new
  member of a compound tag, a declassifying view beside a plain scan,
  a snapshot the slice is not frozen for, the audit trail;
* the invalidation points one by one: an append past the slice a scan
  is reading is still reached, a rolled-back deleter leaves its
  segment on the per-row path without changing a result, the last
  version of a slice unlinked makes the slice an empty skip;
* the reference executor cannot reach a memoized summary at all.
"""

from __future__ import annotations

import random

import pytest

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator, \
    counters
from repro.db import Database
from repro.db import physical
from repro.db.storage import SET_AT_A_TIME_MIN, Segment

SEED = 1913
LOADED = 200                # rows before the first check
STEPS = 120

QUERIES = (
    ("SELECT id, k, v FROM t", "Scan t"),
    ("SELECT id, v FROM t WHERE v >= 4", "Scan t"),
    ("SELECT id, v FROM t WHERE k = 2", "IndexScan"),
    ("SELECT id, k FROM t WHERE v >= 2 AND v < 5 AND k <> 1",
     "IndexRangeScan"),
    ("SELECT u.id, t.id, t.v FROM u JOIN t ON t.k = u.k", "IndexLoopJoin"),
    # Two incomparable labels reach the reader: ordering by them must
    # not depend on where in the heap the stream left the rows.
    ("SELECT id FROM t ORDER BY _label, id", "Scan t"),
)


class World:
    """One database under the stream: four writers (tags 0–3, the even
    ones endorsed), a public admin, a reader holding tags 0 and 1, and
    a second such reader whose snapshot the stream opens and closes."""

    def __init__(self, **db_kwargs):
        authority = AuthorityState(idgen=SeededIdGenerator(SEED))
        self.db = db = Database(authority, seed=SEED, buffer_pages=4,
                                page_size=256, **db_kwargs)
        owner = authority.create_principal("owner")
        tags = [authority.create_tag("tag-%d" % i, owner=owner.id)
                for i in range(4)]
        vetted = authority.create_tag("vetted", owner=owner.id,
                                      kind="integrity")
        self.admin = db.connect(IFCProcess(authority, owner.id))
        self.admin.execute_script(
            "CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT);"
            "CREATE INDEX t_k ON t (k);"
            "CREATE ORDERED INDEX t_v ON t (v);"
            "CREATE TABLE u (id INT PRIMARY KEY, k INT);")
        for i in range(8):          # distinct keys: one probe per row
            self.admin.execute("INSERT INTO u VALUES (?, ?)", (i, i))
        self.writers = []
        for i, tag in enumerate(tags):
            process = IFCProcess(authority, owner.id)
            process.add_secrecy(tag.id)
            if i % 2 == 0:
                process.endorse(vetted.id)
            self.writers.append(db.connect(process))
        self.readers = []
        for _ in range(2):
            process = IFCProcess(authority, owner.id)
            for tag in tags[:2]:
                process.add_secrecy(tag.id)
            self.readers.append(db.connect(process))

    def tables(self):
        return [self.db.catalog.get_table(name) for name in ("t", "u")]

    def drop_summaries(self):
        for table in self.tables():
            table._segments.clear()

    def apply(self, op):
        kind, who, args = op
        if kind == "vacuum":
            self.admin.execute("VACUUM")
        elif kind == "snapshot":
            held = self.readers[1]
            if held.transaction is None:
                held.begin()
            else:
                held.commit()
        else:
            writer = self.writers[who]
            sql = {"insert": "INSERT INTO t VALUES (?, ?, ?)",
                   "update": "UPDATE t SET v = v + 1 WHERE id = ?",
                   "delete": "DELETE FROM t WHERE id = ?"}[kind.split("!")[0]]
            if kind.endswith("!"):          # …and take it back
                writer.begin()
                writer.execute(sql, args)
                writer.rollback()
            else:
                assert writer.execute(sql, args).rowcount == 1, op

    def observe(self, reader, sql):
        """Rows with labels and integrity labels (sorted, unless the
        statement orders them), and the statement's counters, with the
        buffer cache emptied first."""
        db = self.db
        session = self.readers[reader]
        prepared = db.prepare_select(db.parse(sql), sql)
        db.buffer_cache.reset()
        before = counters.read()
        with session._autocommit():
            ctx = session._context((), prepared.slot_values)
            rows = [
                (tuple(values), tuple(sorted(label)), tuple(sorted(ilabel)))
                for batch in prepared.plan.batches(ctx)
                for values, label, ilabel
                in zip(batch.rows(), batch.labels, batch.ilabels)]
        if "ORDER BY" not in sql:
            rows.sort()
        delta = counters.delta(before, counters.read())
        return rows, delta


def _cell(delta, cell):
    group, field = cell
    return (delta[group] if group else delta)[field]


def _stream(steps):
    """The op list, drawn once so every world applies the same one:
    ``(kind, writer, params)``; a trailing ``!`` rolls the write back."""
    rng = random.Random(SEED)
    owner = {}                      # live id -> writer
    ops, next_id = [], 0
    for _ in range(LOADED):         # something to scan from step one
        writer = rng.randrange(4)
        ops.append(("insert", writer,
                    (next_id, rng.randrange(5), rng.randrange(8))))
        owner[next_id] = writer
        next_id += 1
    for _ in range(steps):
        kind = rng.choice(("insert", "insert", "update", "update", "update",
                           "delete", "delete", "insert!", "update!",
                           "delete!", "vacuum", "snapshot", "snapshot"))
        if kind in ("vacuum", "snapshot"):
            ops.append((kind, None, ()))
        elif kind.startswith("insert"):
            writer = rng.randrange(4)
            ops.append((kind, writer,
                        (next_id, rng.randrange(5), rng.randrange(8))))
            if kind == "insert":
                owner[next_id] = writer
            next_id += 1            # a rolled-back id is not reused
        else:
            ident = rng.choice(sorted(owner))
            ops.append((kind, owner[ident], (ident,)))
            if kind == "delete":
                del owner[ident]
    return ops


@pytest.mark.parametrize("batch_size", [None, 16])
def test_kept_rebuilt_and_reference_agree_after_every_write(batch_size):
    """``batch_size=None`` takes the engine default, so the
    ``REPRO_BATCH_SIZE=7`` CI leg re-runs this over seven-row segments
    with a partial tail in every table."""
    main = World(batch_size=batch_size)
    reference = World(batch_size=1)
    table = main.db.catalog.get_table("t")
    frozen = thawed = suppressed = thaws_pinned = 0
    for step, op in enumerate(_stream(STEPS)):
        if op[0] in ("update", "delete") and main.readers[1].transaction:
            # The case a stale summary would get wrong: a kept summary
            # says "nothing deleted here", the write is about to stamp
            # a version in it, and the open snapshot keeps that version
            # from being unlinked (which would drop the summary anyway).
            slot = max(v.tid for v in table.all_versions()
                       if v.values[0] == op[2][0])
            kept = table._segments.get(slot // main.db.batch_size)
            thaws_pinned += kept is not None and kept.stamped is False
        main.apply(op)
        reference.apply(op)
        if step == LOADED - 1:      # loaded: the plans under test
            for world in (main, reference):
                world.admin.execute("ANALYZE")
            for sql, operator in QUERIES:
                assert any(operator in row[0] for row in
                           main.readers[0].execute("EXPLAIN " + sql)), sql
        if step < LOADED - 1:
            continue
        checks = [(reader, sql) for reader in (0, 1)
                  for sql, _operator in QUERIES]
        kept = [main.observe(*check) for check in checks]
        for check, (kept_rows, kept_delta) in zip(checks, kept):
            main.drop_summaries()
            rebuilt_rows, rebuilt = main.observe(*check)    # cold cuts
            warm_rows, warm = main.observe(*check)
            want_rows, want = reference.observe(*check)
            where = (step, op) + check
            assert kept_rows == rebuilt_rows == warm_rows == want_rows, where
            if "ORDER BY _label" in check[1]:   # a total order: grouped
                labels = [label for _values, label, _ilabel in kept_rows]
                assert sum(a != b for a, b in zip(labels, labels[1:])) \
                    == len(set(labels)) - 1, where
            for cell in ("exec", "buffer_hits", "buffer_misses",
                         "buffer_evictions", "simulated_io_time"):
                assert kept_delta[cell] == rebuilt[cell] == warm[cell], \
                    (where, cell)
            for delta in (kept_delta, rebuilt, warm):
                assert delta["labels"]["rows_suppressed"] \
                    == want["labels"]["rows_suppressed"], where
                assert [_cell(delta, c) for c in counters.LOW] \
                    == [_cell(want, c) for c in counters.LOW], where
            # Only the label checks move: the rebuilt scan builds every
            # cut it takes, the warm one reuses every frozen heap slice's.
            checked = [d["labels"] for d in (rebuilt, kept_delta, warm)]
            assert [d["cuts_reused"] for d in checked] \
                == sorted(d["cuts_reused"] for d in checked), where
            assert [d["covers_calls"] for d in checked] \
                == sorted((d["covers_calls"] for d in checked),
                          reverse=True), where
            assert checked[0]["cuts_reused"] == 0, where
            if " WHERE " not in check[1] and " JOIN " not in check[1]:
                # A heap scan and nothing else: every frozen segment is
                # a heap slice.
                assert warm["labels"]["cuts_reused"] \
                    == warm["exec"]["segments_frozen"], where
            frozen += kept_delta["exec"]["segments_frozen"]
            thawed += kept_delta["exec"]["segments_scanned"] \
                - kept_delta["exec"]["segments_frozen"]
            suppressed += kept_delta["labels"]["rows_suppressed"]
    # The stream reached both sides of the bound check, and hid rows.
    assert thawed and suppressed
    if main.db.batch_size >= SET_AT_A_TIME_MIN:
        assert frozen
    if batch_size == 16:
        assert thaws_pinned >= 5, thaws_pinned


def _table(batch_size, rows):
    authority = AuthorityState(idgen=SeededIdGenerator(SEED))
    db = Database(authority, seed=SEED, batch_size=batch_size)
    session = db.connect(IFCProcess(authority,
                                    authority.create_principal("p").id))
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(rows):
        session.execute("INSERT INTO t VALUES (?, ?)", (i, i % 3))
    return db, session, db.catalog.get_table("t")


def _scan(db, session, sql="SELECT id FROM t"):
    rows = sorted(row[0] for row in session.execute(sql).rows)
    return rows, db.last_statement_metrics()["exec"]


def test_a_version_appended_mid_scan_is_still_reached():
    """The scan re-reads the heap's length: a version appended to a
    later slice while an earlier one is being read is scanned, and the
    slice it landed in is summarized afresh for the next scan."""
    db, session, table = _table(4, 8)
    assert _scan(db, session)[0] == list(range(8))      # both memoized
    assert sorted(table._segments) == [0, 1]
    seen = []
    for segment in table.segments(4):
        seen += [version.values[0] for version in segment.versions]
        if len(seen) == 4:
            session.execute("INSERT INTO t VALUES (8, 0)")
            assert sorted(table._segments) == [0, 1]    # slice 2 is new
    assert seen == list(range(9))
    assert _scan(db, session)[0] == list(range(9))
    session.execute("INSERT INTO t VALUES (9, 0)")      # drops the tail
    assert sorted(table._segments) == [0, 1]
    assert _scan(db, session)[0] == list(range(10))


def _roll_back(db, session, table, sql):
    """Run ``sql`` on row 3 and roll it back: the abort clears the
    writer's ``xmax`` through ``Table.stamp``, so the slice's rebuilt
    summary is unstamped and both slices pass the bound check whole
    again; the answer is what it was, and another transaction can then
    delete the row."""
    rows, before = _scan(db, session)
    assert before["segments_frozen"] == before["segments_scanned"] == 2
    writer = db.connect(session.process)
    writer.begin()
    assert writer.execute(sql).rowcount == 1
    assert 0 not in table._segments and 1 in table._segments
    assert table.version(3).xmax == writer.transaction.xid
    writer.rollback()
    assert table.version(3).xmax is None
    again, after = _scan(db, session)
    assert again == rows
    assert (after["segments_frozen"], after["segments_scanned"]) == (2, 2)
    assert not table._segments[0].stamped and not table._segments[1].stamped
    assert session.execute("DELETE FROM t WHERE id = 3").rowcount == 1
    assert _scan(db, session)[0] == [i for i in range(16) if i != 3]


def test_a_rolled_back_deleter_leaves_the_segment_frozen():
    db, session, table = _table(8, 16)
    _roll_back(db, session, table, "DELETE FROM t WHERE id = 3")


def test_a_rolled_back_updater_leaves_the_segment_frozen():
    db, session, table = _table(8, 16)
    _roll_back(db, session, table, "UPDATE t SET v = 9 WHERE id = 3")


def test_unlinking_a_slices_last_version_makes_it_an_empty_skip():
    db, session, table = _table(4, 12)
    assert session.execute("DELETE FROM t WHERE id >= 4 AND id < 8") \
        .rowcount == 4
    session.execute("VACUUM")
    assert [table.version(tid) for tid in range(4, 8)] == [None] * 4
    rows, delta = _scan(db, session)
    assert rows == [0, 1, 2, 3, 8, 9, 10, 11]
    assert delta["segments_scanned"] == 2
    assert table._segments[1].versions == ()            # kept: O(1) skip
    assert [len(segment.versions) for segment in table.segments(4)] \
        == [4, 4]


class _Untouchable(dict):
    """A memo no scan may read or fill; writes still ``pop`` from it."""

    def _refuse(self, *_args):
        raise AssertionError("the reference executor reached the memo")

    get = __getitem__ = __setitem__ = __contains__ = setdefault = _refuse


@pytest.mark.parametrize("reference", [{"batch_size": 1},
                                       {"naive_plans": True}])
def test_the_reference_executor_cannot_reach_a_memoized_summary(
        reference, monkeypatch):
    """One-version segments always take the per-version loop, which
    reads the versions themselves: nothing is summarized, nothing is
    memoized, at ``batch_size=1`` and under the naive planner alike."""
    world = World(**reference)
    for op in _stream(20):
        world.apply(op)
    for table in world.tables():
        table._segments = _Untouchable()
    monkeypatch.setattr(Segment, "summarize", _Untouchable._refuse)
    for sql, _operator in QUERIES:
        rows, delta = world.observe(0, sql)
        assert rows and delta["exec"]["segments_frozen"] == 0, sql
    world.writers[0].execute("INSERT INTO t VALUES (900, 1, 1)")
    assert world.writers[0].execute(
        "DELETE FROM t WHERE id = 900").rowcount == 1
    assert physical.SET_AT_A_TIME_MIN == SET_AT_A_TIME_MIN > 1


# ---------------------------------------------------------------------------
# the kept label cut, one part of its key at a time
# ---------------------------------------------------------------------------

class Cuts:
    """40 rows in five eight-row slices, row ``i`` under tag ``i % 4``
    (every slice holds all four labels); the tags are members of the
    compound ``all``, which the view ``cv`` declassifies."""

    PREDICATED = "SELECT id, v FROM c WHERE v >= 2"

    def __init__(self, **db_kwargs):
        self.authority = authority = AuthorityState(
            idgen=SeededIdGenerator(SEED))
        self.db = Database(authority, seed=SEED, batch_size=8, **db_kwargs)
        self.owner = authority.create_principal("owner")
        self.compound = authority.create_compound_tag("all",
                                                      owner=self.owner.id)
        self.tags = [authority.create_tag("c%d" % i, owner=self.owner.id,
                                          compounds=(self.compound.id,))
                     for i in range(4)]
        self.session().execute_script(
            "CREATE TABLE c (id INT PRIMARY KEY, v INT);"
            "CREATE VIEW cv AS SELECT id, v FROM c WITH DECLASSIFYING (all);")
        self.writers = [self.session(tag) for tag in self.tags]
        for i in range(40):
            self.writers[i % 4].execute("INSERT INTO c VALUES (?, ?)",
                                        (i, i % 7))
        self.table = self.db.catalog.get_table("c")

    def session(self, *tags):
        process = IFCProcess(self.authority, self.owner.id)
        for tag in tags:
            process.add_secrecy(tag.id)
        return self.db.connect(process)

    def scan(self, session, sql=PREDICATED, cold=False):
        """Rows with their labels, sorted, and the statement's label
        counters; ``cold`` drops every summary and cut first."""
        if cold:
            self.table._segments.clear()
        rows = sorted((tuple(row), tuple(sorted(row.label)))
                      for row in session.execute(sql).rows)
        return rows, self.db.last_statement_metrics()["labels"]


def test_two_readers_alternating_replace_each_others_cut():
    """One slot per segment: each reader's scan replaces the other's
    cut, so two readers alternating reuse nothing and see what a cold
    scan shows them; a reader repeating itself reuses every slice."""
    world = Cuts()
    a, b = world.session(*world.tags[:2]), world.session(world.tags[2])
    want = {a: world.scan(a, cold=True), b: world.scan(b, cold=True)}
    assert want[a][1]["covers_calls"] == 5 * 4
    for session in (a, b, a, b):
        assert world.scan(session) == want[session]
    rows, labels = world.scan(b)
    assert rows == want[b][0]
    assert labels == dict(want[b][1], covers_calls=0, cuts_reused=5)


def test_a_new_compound_member_rebuilds_the_cut_without_a_heap_write():
    """Registering a tag into a compound bumps the registry's version,
    part of the key: the next scan rebuilds the cut of every slice —
    the same slices, nothing written — and answers as before."""
    world = Cuts()
    reader = world.session(world.compound)
    rows, cold = world.scan(reader, cold=True)
    assert rows and cold["rows_suppressed"] == 0 and cold["cuts_reused"] == 0
    assert world.scan(reader)[1]["cuts_reused"] == 5
    kept = dict(world.table._segments)
    world.authority.create_tag("c-late", owner=world.owner.id,
                               compounds=(world.compound.id,))
    assert world.scan(reader) == (rows, cold)
    assert world.table._segments.keys() == kept.keys()
    assert all(world.table._segments[k] is kept[k] for k in kept)
    assert world.scan(reader)[1]["cuts_reused"] == 5


def test_a_declassifying_view_and_a_plain_scan_keep_apart():
    """The declassified tags are part of the key: one reader
    alternating between the table and the view over it rebuilds every
    time, and only the view's rows lose their labels; repeating either
    reuses every slice."""
    world = Cuts()
    reader = world.session(world.tags[0])
    plain, view = Cuts.PREDICATED, "SELECT id, v FROM cv WHERE v >= 2"
    want = {sql: world.scan(reader, sql, cold=True) for sql in (plain, view)}
    assert all(label == () for _row, label in want[view][0])
    assert all(label != () for _row, label in want[plain][0])
    assert len(want[view][0]) > len(want[plain][0])
    for sql in (plain, view, plain, view):
        assert world.scan(reader, sql) == want[sql], sql
    rows, labels = world.scan(reader, view)
    assert rows == want[view][0]
    assert labels == dict(want[view][1], covers_calls=0, strip_calls=0,
                          cuts_reused=5)


def test_a_slice_not_frozen_for_the_snapshot_skips_its_cut():
    """The cut is read only where the statement's snapshot finds the
    slice frozen.  With the same key warm in every slot, a snapshot
    older than a slice's rows and a writer's uncommitted update both
    send the slices they touch through per-row MVCC, and each reader
    sees exactly its snapshot."""
    world = Cuts()
    reader, old = world.session(*world.tags), world.session(*world.tags)
    old.begin()                     # before rows 40–47 (slice 5) exist
    for i in range(40, 48):
        world.writers[i % 4].execute("INSERT INTO c VALUES (?, ?)",
                                     (i, i % 7))
    sql = "SELECT id, v FROM c"
    rows, _labels = world.scan(reader, sql, cold=True)
    assert [row[0] for row, _label in rows] == list(range(48))
    # ``old`` is still in flight, so slice 5 is frozen for nobody yet.
    assert world.scan(reader, sql)[1]["cuts_reused"] == 5
    old_rows, labels = world.scan(old, sql)
    assert old_rows == rows[:40] and labels["cuts_reused"] == 5
    old.commit()
    assert world.scan(reader, sql) == (rows, dict(labels, covers_calls=4))
    assert world.scan(reader, sql)[1]["cuts_reused"] == 6
    writer = world.writers[3]       # row 3 is under its label
    writer.begin()
    assert writer.execute("UPDATE c SET v = 99 WHERE id = 3").rowcount == 1
    # Slice 0 holds the stamped version (four labels checked per row's
    # MVCC survivors), slice 6 the uncommitted one.
    assert world.scan(reader, sql) == (rows, dict(labels, covers_calls=4))
    writer.rollback()
    assert world.scan(reader, sql) == (rows, dict(labels, covers_calls=4))


def test_rows_suppressed_audit_events_are_equal_warm_and_cold():
    world = Cuts(audit_log=8)
    reader = world.session(world.tags[1])
    cold = world.scan(reader, cold=True)
    warm = world.scan(reader)
    assert warm[0] == cold[0] and warm[1]["cuts_reused"] == 5
    first, second = world.db.audit.of_kind("rows_suppressed")[-2:]
    assert first == second and first["count"] == 30
