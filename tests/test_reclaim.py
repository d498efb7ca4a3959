"""Incremental version reclamation (``TransactionManager.begin`` drains
the doomed queue through ``Table.unlink``).

Reclamation depends only on transaction history, never on labels, so it
must change no row, label, rowcount or error type.  These tests pin:

* chains stay short — in the heap, a ``HashIndex`` and an
  ``OrderedIndex`` — without anyone typing ``VACUUM``;
* an open snapshot pins exactly what it needs (rows *and* labels), and
  first-committer-wins survives the superseded version being the one
  the loser looks at;
* rollback leaves no index entry behind, and polyinstantiated twins
  survive the reclamation of each other's history;
* ``VACUUM`` and the drain share one horizon (the open-snapshot
  regression);
* recovery replays into chains of length 1, and a restore that fails
  part-way leaves nothing behind;
* rollbacks are reclaimed at once even while a reader pins the commits
  queued ahead of them;
* a hypothesis sweep of two-session interleavings against a
  snapshot-copy model that knows nothing of versions.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator
from repro.db import Database
from repro.errors import IFCViolation, SerializationError, UniqueViolation


def _world(**db_kwargs):
    """A table with a unique hash index (the primary key), a plain hash
    index and an ordered index, and a public and a secret session."""
    authority = AuthorityState(idgen=SeededIdGenerator(77))
    db = Database(authority, seed=77, **db_kwargs)
    owner = authority.create_principal("owner")
    tag = authority.create_tag("reclaim-secret", owner=owner.id)

    def connect(secret=False, db=db):
        process = IFCProcess(authority, owner.id)
        if secret:
            process.add_secrecy(tag.id)
        return db.connect(process)

    admin = connect()
    admin.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    admin.execute("CREATE INDEX t_v_hash ON t (v)")
    admin.execute("CREATE ORDERED INDEX t_v ON t (v, k)")
    return db, connect, tag


def _sizes(db):
    """Live versions in the heap and entries in each index."""
    table = db.catalog.get_table("t")
    return [table.version_count] + [len(index)
                                    for index in table.indexes.values()]


def _labeled(session, sql="SELECT k, v FROM t", params=()):
    return sorted((row[0], row[1], tuple(sorted(row.label.tags)))
                  for row in session.execute(sql, params).rows)


def test_single_session_updates_leave_no_chain():
    db, connect, _tag = _world()
    session = connect()
    for k in range(5):
        session.execute("INSERT INTO t VALUES (?, 0)", (k,))
    for i in range(200):
        session.execute("UPDATE t SET v = ? WHERE k = 2", (i + 1,))
    # Live rows plus what the last transaction superseded: nobody has
    # begun since, so its one doomed version is still queued.
    assert _sizes(db) == [6, 6, 6, 6]
    stats = db.stats()
    assert stats["versions_reclaimed"] == 199
    assert stats["reclaim_pending"] == 1
    assert session.execute("SELECT v FROM t WHERE k = 2").scalar() == 200
    assert _sizes(db) == [5, 5, 5, 5]
    assert db.stats()["reclaim_pending"] == 0
    _unique, primary = db.catalog.get_table("t").unique_indexes[0]
    assert len(primary.lookup((2,))) == 1
    assert session.execute(
        "SELECT k FROM t WHERE v >= 1 AND v <= 1000").rows == [(2,)]


def test_long_running_reader_pins_what_it_needs():
    db, connect, tag = _world()
    public, secret = connect(), connect(secret=True)
    public.execute("INSERT INTO t VALUES (1, 10)")
    secret.execute("INSERT INTO t VALUES (2, 20)")
    secret.execute("INSERT INTO t VALUES (3, 30)")

    reader = connect(secret=True)
    reader.begin()
    snapshot = _labeled(reader)
    assert snapshot == [(1, 10, ()), (2, 20, (tag.id,)), (3, 30, (tag.id,))]
    stale = connect()
    stale.begin()                          # predates every winner below

    for i in range(100):
        public.execute("UPDATE t SET v = ? WHERE k = 1", (100 + i,))
    secret.execute("DELETE FROM t WHERE k = 2")
    # Every version the reader might need is still there...
    assert db.catalog.get_table("t").version_count == 103
    assert db.stats()["reclaim_pending"] == 101
    assert db.stats()["versions_reclaimed"] == 0
    assert _labeled(reader) == snapshot
    assert _labeled(reader, "SELECT k, v FROM t WHERE k = 1") == snapshot[:1]
    assert _labeled(reader, "SELECT k, v FROM t WHERE v >= 15 AND v <= 25"
                    ) == snapshot[1:2]
    # ...and so is the superseded version a stale writer trips over.
    with pytest.raises(SerializationError):
        stale.execute("UPDATE t SET v = 0 WHERE k = 1")
    stale.rollback()
    reader.commit()

    # The first begin() after the last old snapshot ends reclaims.
    assert _labeled(connect(secret=True)) == [(1, 199, ()),
                                              (3, 30, (tag.id,))]
    assert _sizes(db) == [2, 2, 2, 2]
    assert db.stats()["reclaim_pending"] == 0
    assert db.stats()["versions_reclaimed"] == 101


def test_rollback_unlinks_from_every_index():
    db, connect, _tag = _world()
    session = connect()
    session.execute("INSERT INTO t VALUES (1, 10)")
    session.begin()
    session.execute("INSERT INTO t VALUES (7, 70)")
    session.execute("UPDATE t SET v = 71 WHERE k = 7")
    session.execute("UPDATE t SET v = 11 WHERE k = 1")
    session.rollback()
    assert _sizes(db) == [4, 4, 4, 4]      # nobody has begun since
    assert _labeled(session) == [(1, 10, ())]
    assert _sizes(db) == [1, 1, 1, 1]
    table = db.catalog.get_table("t")
    for index in table.indexes.values():
        assert list(index.lookup(index.key_of((7, 70)))) == []
        assert list(index.lookup(index.key_of((7, 71)))) == []
    # The rolled-back stamp on k=1 does not doom the live version.
    session.execute("UPDATE t SET v = 12 WHERE k = 1")
    assert _labeled(session) == [(1, 12, ())]


def test_polyinstantiated_twins_survive_each_others_history():
    db, connect, tag = _world()
    public, secret = connect(), connect(secret=True)
    secret.execute("INSERT INTO t VALUES (1, -1)")
    public.execute("INSERT INTO t VALUES (1, 0)")      # polyinstantiates
    table = db.catalog.get_table("t")
    assert table.polyinstantiation_count == 1
    for i in range(20):
        public.execute("UPDATE t SET v = ? WHERE k = 1", (i + 1,))
    assert _labeled(secret) == [(1, -1, (tag.id,)), (1, 20, ())]
    assert _labeled(public) == [(1, 20, ())]
    assert _sizes(db) == [2, 2, 2, 2]
    # Now the other twin's history, with the public one out of the way
    # (a visible lower twin would make the secret UPDATE a write-rule
    # violation) and back again afterwards.
    public.execute("DELETE FROM t WHERE k = 1")
    for i in range(20):
        secret.execute("UPDATE t SET v = ? WHERE k = 1", (-2 - i,))
    public.execute("INSERT INTO t VALUES (1, 5)")
    assert _labeled(secret) == [(1, -21, (tag.id,)), (1, 5, ())]
    assert _labeled(public) == [(1, 5, ())]
    with pytest.raises(UniqueViolation):
        public.execute("INSERT INTO t VALUES (1, 6)")
    assert _labeled(public) == [(1, 5, ())]
    assert _sizes(db) == [2, 2, 2, 2]


def test_vacuum_keeps_what_a_snapshot_taken_mid_write_still_needs():
    """Regression: VACUUM used ``min(active xids)`` as its horizon, but
    a transaction begun while the deleter was in flight has a larger
    xid and still must not see the delete — its next SELECT came back
    empty."""
    db, connect, _tag = _world()
    a, b = connect(), connect()
    a.execute("INSERT INTO t VALUES (1, 10)")
    a.begin()
    a.execute("UPDATE t SET v = 11 WHERE k = 1")
    b.begin()
    assert _labeled(b) == [(1, 10, ())]
    a.commit()
    assert db.vacuum() == 0
    assert _labeled(b) == [(1, 10, ())]
    b.commit()
    assert db.vacuum() == 1
    assert _labeled(b) == [(1, 11, ())]


def test_recovery_replays_into_chains_of_length_one(tmp_path):
    path = str(tmp_path / "reclaim.wal")
    db, connect, tag = _world(wal=path)
    public, secret = connect(), connect(secret=True)
    public.execute("INSERT INTO t VALUES (1, 0)")
    secret.execute("INSERT INTO t VALUES (2, 0)")
    public.execute("INSERT INTO t VALUES (3, 0)")
    for i in range(60):
        public.execute("UPDATE t SET v = ? WHERE k = 1", (i + 1,))
        if i % 3 == 0:
            secret.execute("UPDATE t SET v = ? WHERE k = 2", (-i,))
    public.execute("DELETE FROM t WHERE k = 3")
    live = _labeled(secret)
    assert live == [(1, 60, ()), (2, -57, (tag.id,))]
    db.close()

    recovered = Database(db.authority, seed=77)
    recovered.recover(path)
    assert _labeled(connect(secret=True, db=recovered)) == live
    assert _sizes(recovered) == [2, 2, 2, 2]
    assert recovered.stats()["reclaim_pending"] == 0


def test_failed_restore_leaves_no_visible_or_lingering_version(monkeypatch):
    """Regression: restore appends to the heap directly; when it failed
    part-way its abort named no versions, the horizon ran past the
    aborted xid and the fast path showed the half-restored rows."""
    from repro.db import dump, wal

    source, connect, _tag = _world()
    session = connect()
    for k in range(10):
        session.execute("INSERT INTO t VALUES (?, ?)", (k, k))
    data = dump.dump_database(source)

    decode, seen = wal.decode_labeled_row, []

    def failing(record):
        seen.append(record)
        if len(seen) == 8:
            raise RuntimeError("disk on fire")
        return decode(record)

    monkeypatch.setattr(wal, "decode_labeled_row", failing)
    target = Database(source.authority, seed=78)
    with pytest.raises(RuntimeError):
        dump.restore_database(data, target)
    assert target.catalog.get_table("t").version_count == 7
    assert _labeled(connect(db=target)) == []
    assert _sizes(target) == [0, 0, 0, 0]
    tm = target.txn_manager
    assert tm.committed_horizon() == tm.horizon()
    assert tm.write_commits == 0           # restore is not "own writes"


def test_rollback_is_reclaimed_while_a_reader_pins_the_queue_head():
    """An abort's versions are dead at once: they must not wait behind
    a commit whose superseded version an open reader still needs, or
    every scan meanwhile pays per-row ``visible()`` for them."""
    db, connect, _tag = _world(batch_size=64)    # whole-chunk MVCC path
    session = connect()
    session.execute("CREATE TABLE other (k INT PRIMARY KEY, v INT)")
    session.execute("INSERT INTO other VALUES (1, 0)")
    for k in range(8):
        session.execute("INSERT INTO t VALUES (?, 0)", (k,))
    reader = connect()
    reader.begin()
    session.execute("UPDATE other SET v = 1 WHERE k = 1")   # pinned
    session.begin()
    session.execute("INSERT INTO t VALUES (99, 0)")
    session.rollback()
    assert db.stats()["reclaim_pending"] == 2

    calls = []
    visible = db.txn_manager.visible
    db.txn_manager.visible = lambda *a: calls.append(a) or visible(*a)
    assert len(_labeled(session)) == 8
    assert calls == []
    assert _sizes(db) == [8, 8, 8, 8]
    assert db.stats()["reclaim_pending"] == 1      # the pinned commit
    assert _labeled(reader, "SELECT k, v FROM other") == [(1, 0, ())]
    reader.commit()
    assert _labeled(session, "SELECT k, v FROM other") == [(1, 1, ())]
    assert db.stats()["reclaim_pending"] == 0


# ---------------------------------------------------------------------------
# interleavings against a snapshot-copy model
# ---------------------------------------------------------------------------

class _Model:
    """Snapshot isolation with no versions: ``begin`` copies the
    committed rows, a transaction edits its copy, ``commit`` replays
    its edits onto the committed rows.  A row is ``id -> (k, v,
    label)``; an update retires the id and mints a new one, so a claim
    on an id is a claim on what one snapshot saw.  Ids are minted in
    heap order, which is the order the engine meets its targets in."""

    def __init__(self):
        self.committed = {}
        self.claims = {}              # id -> claiming transaction
        self.next_id = 0

    def begin(self):
        return {"view": dict(self.committed), "gone": [], "new": []}

    def commit(self, txn):
        for rid in txn["gone"]:
            self.committed.pop(rid, None)
        for rid in txn["new"]:
            if rid in txn["view"]:
                self.committed[rid] = txn["view"][rid]

    def rollback(self, txn):
        self.claims = {rid: owner for rid, owner in self.claims.items()
                       if owner is not txn}

    def select(self, txn, label, low=None, high=None):
        return sorted((k, v, tuple(sorted(row_label)))
                      for k, v, row_label in txn["view"].values()
                      if row_label <= label
                      and (low is None or low <= v <= high))

    def _conflict(self, txn, label, k, skip=None):
        return any(rid != skip and row[0] == k and row[2] <= label
                   for rid, row in txn["view"].items())

    def _add(self, txn, row):
        txn["view"][self.next_id] = row
        txn["new"].append(self.next_id)
        self.next_id += 1

    def insert(self, txn, label, k, v):
        if self._conflict(txn, label, k):
            raise UniqueViolation("model")
        self._add(txn, (k, v, label))
        return 1

    def write(self, txn, label, k, v=None):
        """UPDATE (``v`` given) or DELETE of the visible rows with key
        ``k``, target by target like the engine: an error part-way
        leaves the earlier targets written."""
        targets = [rid for rid in sorted(txn["view"])
                   if txn["view"][rid][0] == k
                   and txn["view"][rid][2] <= label]
        for rid in targets:
            row = txn["view"][rid]
            if row[2] != label:
                raise IFCViolation("model")
            if self.claims.get(rid, txn) is not txn:
                raise SerializationError("model")
            if v is not None and self._conflict(txn, label, k, skip=rid):
                raise UniqueViolation("model")
            self.claims[rid] = txn
            del txn["view"][rid]
            txn["gone"].append(rid)
            if v is not None:
                self._add(txn, (k, v, row[2]))
        return len(targets)


_ERRORS = (UniqueViolation, SerializationError, IFCViolation)

#: (session, op, key, value).  Two keys and few values keep the two
#: sessions on the same rows, which is where snapshots disagree.
_steps = st.lists(
    st.tuples(st.integers(0, 1),
              st.sampled_from(["begin"] * 3 + ["commit"] * 3 + ["rollback"]
                              + ["insert"] * 2 + ["update"] * 4 + ["delete"]
                              + ["select"] * 4 + ["range"]),
              st.integers(0, 1),
              st.integers(0, 4)),
    min_size=20, max_size=50)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([(False, False), (False, True), (True, True)]),
       _steps)
def test_interleavings_match_the_snapshot_model(secrecy, steps):
    db, connect, tag = _world()
    sessions = [connect(secret) for secret in secrecy]
    labels = [frozenset([tag.id]) if secret else frozenset()
              for secret in secrecy]
    model = _Model()
    open_txns = [None, None]
    for who in (0, 1):                 # something to fight over
        sessions[who].execute("INSERT INTO t VALUES (?, 0)", (who,))
        txn = model.begin()
        model.insert(txn, labels[who], who, 0)
        model.commit(txn)

    def both(who, engine_call, model_call):
        """Run one statement on both sides (autocommitted on the model
        when the session has no transaction open) and compare."""
        txn = open_txns[who] or model.begin()
        try:
            expected = model_call(txn)
        except _ERRORS as error:
            expected = type(error)
            if open_txns[who] is None:
                model.rollback(txn)
        else:
            if open_txns[who] is None:
                model.commit(txn)
        try:
            got = engine_call()
        except _ERRORS as error:
            got = type(error)
        assert got == expected

    for who, op, k, v in steps:
        session, label = sessions[who], labels[who]
        if op == "begin":
            if open_txns[who] is None:
                session.begin()
                open_txns[who] = model.begin()
        elif op in ("commit", "rollback"):
            if open_txns[who] is not None:
                getattr(session, op)()
                getattr(model, op)(open_txns[who])
                open_txns[who] = None
        elif op == "insert":
            both(who,
                 lambda: session.execute("INSERT INTO t VALUES (?, ?)",
                                         (k, v)).rowcount,
                 lambda txn: model.insert(txn, label, k, v))
        elif op == "update":
            both(who,
                 lambda: session.execute("UPDATE t SET v = ? WHERE k = ?",
                                         (v, k)).rowcount,
                 lambda txn: model.write(txn, label, k, v))
        elif op == "delete":
            both(who,
                 lambda: session.execute("DELETE FROM t WHERE k = ?",
                                         (k,)).rowcount,
                 lambda txn: model.write(txn, label, k))
        elif op == "select":
            both(who, lambda: _labeled(session),
                 lambda txn: model.select(txn, label))
        else:
            both(who,
                 lambda: _labeled(
                     session, "SELECT k, v FROM t WHERE v >= ? AND v <= ?",
                     (v, v + 3)),
                 lambda txn: model.select(txn, label, v, v + 3))

    for who, session in enumerate(sessions):
        if open_txns[who] is not None:
            session.commit()
            model.commit(open_txns[who])
    # With every snapshot gone, one more begin() leaves exactly the
    # committed rows: nothing leaked, nothing live reclaimed.
    everything = frozenset([tag.id])
    assert _labeled(connect(secret=True)) == model.select(
        model.begin(), everything)
    assert _sizes(db) == [len(model.committed)] * 4
    assert db.stats()["reclaim_pending"] == 0
