"""Durability: WAL logging, group commit, fault injection, recovery.

The centrepiece is the crash matrix: a seeded workload (DML with
labels, DDL, sequences, an abort) runs against a WAL-backed database
while ``db/faultinject.py`` kills the "process" at *every* write
boundary, inside every record (torn and short writes), and at every
fsync.  After each simulated crash a fresh database recovers from the
log and must be dump-identical — rows, labels, ilabels, sequences,
schema — to a reference database that applied exactly the acknowledged
prefix of the workload.  Recovery must also be idempotent (recovering
twice changes nothing).
"""

from __future__ import annotations

import os
import shutil
import threading
import time

import pytest

from repro.core import IFCProcess
from repro.core.labels import EMPTY_LABEL
from repro.db import Database
from repro.db.dump import dump_database
from repro.db.faultinject import CRASH_MODES, CrashError, FaultSpec
from repro.db.spill import encode_labeled_row
from repro.db.wal import MAGIC, WalError, WriteAheadLog, encode_record, \
    scan_wal
from repro.sql import parse_statement


# ---------------------------------------------------------------------------
# the seeded workload
# ---------------------------------------------------------------------------
# Each unit performs EXACTLY one WAL write's worth of work (one
# transaction, one DDL statement, the checkpoint's image, or — for the
# abort — none), so "the acknowledged prefix" is well-defined at every
# crash coordinate.

def _secret_session(db, owner_id, tag_id):
    process = IFCProcess(db.authority, owner_id)
    process.add_secrecy(tag_id)
    return db.connect(process)


def u_create_table(db, o, t):
    db.connect().execute(
        "CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT)")


def u_create_index(db, o, t):
    db.connect().execute("CREATE INDEX items_name ON items (name)")


def u_insert_batch(db, o, t):
    s = db.connect()
    with s.atomic():
        s.execute("INSERT INTO items VALUES (1, 'anvil', 3)")
        s.execute("INSERT INTO items VALUES (2, 'rope', 10)")
        s.execute("INSERT INTO items VALUES (3, 'dynamite', 2)")


def u_secret_insert(db, o, t):
    _secret_session(db, o, t).execute(
        "INSERT INTO items VALUES (4, 'classified', 1)")


def u_update(db, o, t):
    db.connect().execute("UPDATE items SET qty = qty + 5 WHERE id <= 2")


def u_secret_update(db, o, t):
    _secret_session(db, o, t).execute(
        "UPDATE items SET qty = 99 WHERE id = 4")


def u_delete(db, o, t):
    db.connect().execute("DELETE FROM items WHERE id = 3")


def u_checkpoint(db, o, t):
    # The log becomes the image of everything acknowledged so far; the
    # reference database has no log, so nothing changes there.
    if db.wal is not None:
        db.checkpoint()


def u_seq_insert(db, o, t):
    s = db.connect()
    with s.atomic():
        nid = 100 + db.next_sequence("item_id")
        s.execute("INSERT INTO items VALUES (?, 'serial', 0)", (nid,))


def u_abort(db, o, t):
    # Never logged: recovery must not resurrect it, and its xid must
    # not stall the recovered committed horizon (see the vacuum test).
    s = db.connect()
    s.begin()
    s.execute("INSERT INTO items VALUES (50, 'ghost', 0)")
    s.rollback()


def u_create_view(db, o, t):
    db.connect().execute(
        "CREATE VIEW cheap AS SELECT name FROM items WHERE qty < 5")


def u_drop_index(db, o, t):
    db.connect().execute("DROP INDEX items_name")


def u_final_insert(db, o, t):
    s = db.connect()
    with s.atomic():
        nid = 100 + db.next_sequence("item_id")
        s.execute("INSERT INTO items VALUES (?, 'post-ddl', 7)", (nid,))


UNITS = [u_create_table, u_create_index, u_insert_batch, u_secret_insert,
         u_update, u_secret_update, u_delete, u_checkpoint, u_seq_insert,
         u_abort, u_create_view, u_drop_index, u_final_insert]


@pytest.fixture
def wal_ids(authority):
    """The principal/tag the labeled units write under (created once so
    every database in a test shares identical tag ids)."""
    owner = authority.create_principal("wal_owner")
    tag = authority.create_tag("wal_secret", owner=owner.id)
    return owner.id, tag.id


# ---------------------------------------------------------------------------
# the crash-matrix driver
# ---------------------------------------------------------------------------

def _run_workload(authority, ids, path, spec):
    """Drive UNITS against a WAL-backed database with fault ``spec``,
    mirroring each unit onto a reference database only *after* the
    WAL database acknowledged it.  Returns ``(ref, db, crashed,
    acked)``; ``db`` is None when the crash hit WAL creation itself."""
    ref = Database(authority)
    try:
        log = WriteAheadLog(path, fault=spec)
    except (CrashError, OSError):
        return ref, None, True, 0
    db = Database(authority, wal=log)
    crashed = False
    acked = 0
    for unit in UNITS:
        try:
            unit(db, *ids)
        except (CrashError, WalError):
            crashed = True
            break
        unit(ref, *ids)
        acked += 1
    return ref, db, crashed, acked


def _check_recovery(authority, path, ref, coordinate):
    """Recover ``path`` into a fresh database and require it to be
    dump-identical to the acknowledged prefix, twice (idempotency)."""
    recovered = Database(authority)
    recovered.recover(path)
    want = dump_database(ref)
    assert dump_database(recovered) == want, (
        "recovered state diverges from acknowledged prefix at %s"
        % coordinate)
    assert recovered.recover(path)["applied"] == 0, coordinate
    assert dump_database(recovered) == want, (
        "second recovery is not a no-op at %s" % coordinate)
    assert recovered._sequences == ref._sequences, coordinate


class TestCrashMatrix:
    def test_clean_run_recovers_identically(self, authority, wal_ids,
                                            tmp_path):
        path = str(tmp_path / "clean.wal")
        ref, db, crashed, acked = _run_workload(authority, wal_ids, path,
                                                None)
        assert not crashed and acked == len(UNITS)
        _check_recovery(authority, path, ref, "clean")

    def test_every_injection_point(self, authority, wal_ids, tmp_path):
        # Clean run first, to enumerate the write/fsync coordinates
        # (thirteen of each: n = 0…12 in every mode; n = 8 is the
        # checkpoint's image, before its rename).  A coordinate past
        # the last one never fires: that is the clean run above.
        probe = str(tmp_path / "probe.wal")
        _ref, db, crashed, _acked = _run_workload(authority, wal_ids,
                                                  probe, None)
        assert not crashed
        writes, fsyncs = db.wal.fault.writes, db.wal.fault.fsyncs
        assert writes > len(UNITS) // 2 and fsyncs == writes
        coords = [(mode, n) for mode in CRASH_MODES
                  for n in range(writes)]
        coords += [("fsync", n) for n in range(fsyncs)]
        for mode, n in coords:
            coordinate = "%s:%d" % (mode, n)
            path = str(tmp_path / ("%s-%d.wal" % (mode, n)))
            ref, _db, crashed, acked = _run_workload(
                authority, wal_ids, path, FaultSpec(mode, n))
            assert crashed, "fault %s never fired" % coordinate
            assert acked < len(UNITS)
            _check_recovery(authority, path, ref, coordinate)


# ---------------------------------------------------------------------------
# recovery semantics
# ---------------------------------------------------------------------------

class TestRecovery:
    def _recovered(self, authority, wal_ids, tmp_path):
        path = str(tmp_path / "w.wal")
        ref, db, crashed, _ = _run_workload(authority, wal_ids, path, None)
        assert not crashed
        recovered = Database(authority)
        recovered.recover(path)
        return ref, db, recovered, path

    def test_labels_reintern_on_replay(self, authority, wal_ids, tmp_path):
        _ref, _db, recovered, _path = self._recovered(authority, wal_ids,
                                                      tmp_path)
        owner_id, tag_id = wal_ids
        # Query by Label still holds on the recovered heap: the public
        # session cannot see the classified row, the tagged one can.
        public = recovered.connect().query("SELECT id FROM items")
        assert (4,) not in public
        secret = _secret_session(recovered, owner_id, tag_id).query(
            "SELECT id, qty FROM items WHERE id = 4")
        assert secret == [(4, 99)]
        # And the replayed label IS the interned instance, not a copy.
        table = recovered.catalog.get_table("items")
        labels = {v.label for v in table.all_versions() if v.label}
        from repro.core.labels import Label
        assert all(lbl is Label(lbl.tags) for lbl in labels)

    def test_recovered_horizon_unstalled_by_aborts(self, authority,
                                                   wal_ids, tmp_path):
        """Recovery × vacuum: a rollback stalls the live database's
        committed horizon until the next ``begin()`` reclaims what it
        created, but it is never logged, so the recovered database's
        horizon is fully advanced — the batched-MVCC fast path works
        immediately."""
        _ref, db, recovered, _path = self._recovered(authority, wal_ids,
                                                     tmp_path)
        tm = db.txn_manager
        u_abort(db, *wal_ids)
        assert tm.committed_horizon() < tm.horizon()
        rtm = recovered.txn_manager
        assert rtm.committed_horizon() == rtm.horizon()
        # Vacuuming the recovered database reclaims update chaff (kept
        # alive here by a second session's snapshot) without changing
        # what queries see.
        reader = recovered.connect()
        reader.begin()
        before = reader.query("SELECT id, name, qty FROM items ORDER BY id")
        recovered.connect().execute("UPDATE items SET qty = 0 WHERE id = 1")
        assert recovered.vacuum() == 0
        assert reader.query(
            "SELECT id, name, qty FROM items ORDER BY id") == before
        reader.commit()
        assert recovered.vacuum() > 0
        after = recovered.connect().query(
            "SELECT id, name, qty FROM items ORDER BY id")
        assert after == [row if row[0] != 1 else (1, row[1], 0)
                         for row in before]

    def test_recover_refuses_after_local_writes(self, authority, wal_ids,
                                                tmp_path):
        _ref, _db, recovered, path = self._recovered(authority, wal_ids,
                                                     tmp_path)
        recovered.connect().execute(
            "INSERT INTO items VALUES (300, 'local', 1)")
        with pytest.raises(WalError):
            recovered.recover(path)

    def test_restart_reopens_and_continues_log(self, authority, wal_ids,
                                               tmp_path):
        """The real restart flow: reopen the same log (tail repair),
        recover from it, keep committing into it — a later recovery
        sees the old and new transactions as one history.  Rows 102 and
        200 sit past ``u_abort``'s empty slot, so the restarted
        database's update and delete name tids the log named before the
        restart; a second recovery must address the same rows."""
        path = str(tmp_path / "w.wal")
        _ref, db, crashed, _ = _run_workload(authority, wal_ids, path, None)
        assert not crashed
        db.connect().execute("INSERT INTO items VALUES (200, 'late', 4)")
        db.close()
        with open(path, "ab") as handle:
            handle.write(b"\x03garbage-torn-tail")
        restarted = Database(authority, wal=WriteAheadLog(path))
        restarted.recover()
        session = restarted.connect()
        session.execute("UPDATE items SET qty = qty + 1 WHERE id = 102")
        session.execute("DELETE FROM items WHERE id = 200")
        session.execute("INSERT INTO items VALUES (300, 'after-restart', 1)")
        restarted.close()
        records, _bytes, tail = scan_wal(path)
        assert tail is None          # reopen truncated the garbage
        audit = Database(authority)
        audit.recover(path)
        assert dump_database(audit) == dump_database(restarted)
        assert audit.connect().query(
            "SELECT id, qty FROM items WHERE id >= 100 ORDER BY id") == \
            [(101, 0), (102, 8), (300, 1)]

    def test_recovered_heap_has_the_logged_tids(self, authority, wal_ids,
                                                tmp_path):
        """Heap equality, not just dump equality.  The history has
        aborted inserts, a slot VACUUM reclaimed, two transactions that
        commit in the opposite order to their appends, an update and a
        delete; the recovered heap holds a version at exactly the
        original's tids, with the same values, labels, integrity labels
        and ``xmax`` state, and every index the same ``(key, tid)``
        entries."""
        owner_id, tag_id = wal_ids
        vetted = authority.create_tag("wal_vetted", owner=owner_id,
                                      kind="integrity")
        path = str(tmp_path / "w.wal")
        db = Database(authority, wal=path)
        u_create_table(db, *wal_ids)
        u_create_index(db, *wal_ids)
        db.connect().execute("CREATE ORDERED INDEX items_qty ON items (qty)")
        u_insert_batch(db, *wal_ids)
        u_abort(db, *wal_ids)
        u_secret_insert(db, *wal_ids)
        u_abort(db, *wal_ids)
        endorser = IFCProcess(authority, owner_id)
        endorser.endorse(vetted.id)
        early = db.connect(endorser)
        late = _secret_session(db, owner_id, tag_id)
        early.begin()
        early.execute("INSERT INTO items VALUES (5, 'early', 5)")
        late.begin()
        late.execute("INSERT INTO items VALUES (6, 'late', 6)")
        late.commit()
        early.commit()
        reader = db.connect()
        reader.begin()
        reader.query("SELECT id FROM items")
        u_delete(db, *wal_ids)              # row 3's version, pinned…
        reader.commit()
        assert db.vacuum() == 1             # …until VACUUM reclaims it
        u_update(db, *wal_ids)
        db.connect().execute("DELETE FROM items WHERE id = 5")

        recovered = Database(authority)
        recovered.recover(path)
        original = db.catalog.get_table("items")
        replayed = recovered.catalog.get_table("items")

        def heap(table):
            return {v.tid: (v.values, v.label, v.ilabel, v.xmax is None)
                    for v in table.all_versions()}

        def entries(index):
            if hasattr(index, "_entries"):
                return sorted(index._entries)
            return sorted((key, tid) for key, tids in index._map.items()
                          for tid in tids)

        want = heap(original)
        assert heap(replayed) == want
        # VACUUM emptied slot 2 and aborted inserts held 3 and 5; the
        # early transaction's row (tid 6: endorsed, deleted since) was
        # logged after the late one's (tid 7: secret).
        assert sorted(want) == [4, 6, 7, 8, 9]
        assert want[6][0][0] == 5 and want[6][2] and not want[6][3]
        assert want[7][0][0] == 6 and want[7][1]
        assert sorted(original.indexes) == sorted(replayed.indexes)
        for name, index in original.indexes.items():
            assert entries(replayed.indexes[name]) == entries(index), name

    @pytest.mark.parametrize("bad_ops, complaint", [
        (lambda row: [("i", "t", 1, row(2)), ("d", "t", 5)],
         "stamps t tid 5, an empty slot"),
        (lambda row: [("i", "t", 1, row(2)), ("i", "t", 0, row(3))],
         "writes t tid 0, not an empty slot"),
        (lambda row: [("i", "t", 1, row(2)), ("u", "t", 0, 1, row(3))],
         "writes t tid 1, not an empty slot"),
    ], ids=["stamp-empty", "insert-occupied", "update-occupied"])
    def test_malformed_op_is_a_typed_error(self, authority, tmp_path,
                                           bad_ops, complaint):
        """A log built the way a dump is — the magic, then encoded
        records — whose third record names a slot replay cannot use:
        ``WalError`` naming record, table and tid; the transaction
        aborts, so its first op's row stays invisible; the watermark
        stays at the record."""
        scratch = Database(authority)
        scratch.connect().execute("CREATE TABLE t (id INT PRIMARY KEY)")

        def row(ident):
            return encode_labeled_row((ident,), EMPTY_LABEL, EMPTY_LABEL)

        records = [("ddl", "create_table", scratch.catalog.get_table("t")
                    .schema),
                   ("commit", 1, [("i", "t", 0, row(1))], {}),
                   ("commit", 2, bad_ops(row), {})]
        path = tmp_path / "hand.wal"
        path.write_bytes(MAGIC + b"".join(map(encode_record, records)))
        recovered = Database(authority)
        with pytest.raises(WalError, match="WAL record 2 " + complaint):
            recovered.recover(str(path))
        assert recovered._wal_applied == 2
        assert recovered.connect().query("SELECT id FROM t") == [(1,)]
        with pytest.raises(WalError, match="WAL record 2 " + complaint):
            recovered.recover(str(path))


# ---------------------------------------------------------------------------
# the DDL record format
# ---------------------------------------------------------------------------

def _schema_of(schema):
    """A ``TableSchema`` by what a log must keep: columns with their
    NOT NULL, the key, and every constraint by name."""
    return (schema.name, [(c.name, c.not_null) for c in schema.columns],
            schema.primary_key, [(u.name, u.columns) for u in schema.uniques],
            [(f.name, f.columns, f.ref_table, f.ref_columns, f.match_label)
             for f in schema.foreign_keys],
            [c.name for c in schema.checks],
            [c.name for c in schema.label_checks])


def _catalog_of(db):
    return ({name: (_schema_of(table.schema),
                    {index: (tuple(table.indexes[index].columns),
                             type(table.indexes[index]).__name__)
                     for index in table.indexes})
             for name, table in db.catalog.tables.items()},
            {name: (view.select, view.columns, view.declassify,
                    view.principal)
             for name, view in db.catalog.views.items()})


def test_every_catalog_change_is_one_record(authority, tmp_path):
    """Each DDL statement logs exactly the ``("ddl", …)`` tuple replay
    applies — the format a log or dump written earlier is read in — and
    a recovered database holds the same catalog."""
    owner = authority.create_principal("creator")
    secret = authority.create_tag("secret", owner=owner.id)
    path = str(tmp_path / "ddl.wal")
    db = Database(authority, wal=path)
    session = db.connect(IFCProcess(authority, owner.id))
    view_sql = "SELECT id, code FROM parent WHERE id > 2"
    session.execute_script(
        "CREATE TABLE parent (id INT PRIMARY KEY, code TEXT UNIQUE, "
        "tag TEXT NOT NULL);"
        "CREATE TABLE child (a INT NOT NULL, b INT NOT NULL, "
        "pid INT REFERENCES parent(id) MATCH LABEL, note TEXT UNIQUE, "
        "PRIMARY KEY (a, b), UNIQUE (a, note), "
        "FOREIGN KEY (pid) REFERENCES parent(id), CHECK (a > 0), "
        "LABEL CHECK (LABEL_CONTAINS(_label, 'secret')));"
        "CREATE INDEX child_note ON child (note);"
        "CREATE ORDERED INDEX child_b ON child (b);"
        "CREATE VIEW pub AS " + view_sql + " WITH DECLASSIFYING (secret);"
        "CREATE VIEW plain AS SELECT a FROM child;"
        "CREATE TABLE scratch (x INT);"
        "DROP INDEX child_note;"
        "DROP VIEW plain;"
        "DROP TABLE scratch;")
    db.close()
    records, _valid, tail = scan_wal(path)
    assert tail is None
    shown = [(verb, _schema_of(args[0])) if verb == "create_table"
             else (verb, *args) for _ddl, verb, *args in records]
    assert {record[0] for record in records} == {"ddl"}
    assert shown == [
        ("create_table", ("parent", [("id", True), ("code", False),
                                     ("tag", True)], ("id",),
                          [("parent_pkey", ("id",)),
                           ("parent_code_key", ("code",))], [], [], [])),
        ("create_table", ("child", [("a", True), ("b", True),
                                    ("pid", False), ("note", False)],
                          ("a", "b"),
                          [("child_pkey", ("a", "b")),
                           ("child_note_key", ("note",)),
                           ("child_unique2", ("a", "note"))],
                          [("child_fk1", ("pid",), "parent", ("id",), True),
                           ("child_fk2", ("pid",), "parent", ("id",),
                            False)],
                          ["child_check1"], ["child_label_check1"])),
        ("create_index", "child", "child_note", ("note",), False),
        ("create_index", "child", "child_b", ("b",), True),
        ("create_view", "pub", parse_statement(view_sql), ("id", "code"),
         (secret.id,), owner.id),
        ("create_view", "plain", parse_statement("SELECT a FROM child"),
         ("a",), (), None),
        ("create_table", ("scratch", [("x", False)], None, [], [], [], [])),
        ("drop_index", "child_note"),
        ("drop_view", "plain"),
        ("drop_table", "scratch"),
    ]
    recovered = Database(authority)
    recovered.recover(path)
    assert _catalog_of(recovered) == _catalog_of(db)
    indexes = _catalog_of(recovered)[0]["child"][1]
    assert "child_b" in indexes and "child_note" not in indexes
    assert sorted(_catalog_of(recovered)[1]) == ["pub"]


# ---------------------------------------------------------------------------
# the fsync gate
# ---------------------------------------------------------------------------

class TestFsyncGate:
    def test_failed_fsync_refuses_commit_and_truncates(self, authority,
                                                       tmp_path):
        path = str(tmp_path / "w.wal")
        # fsync #0 is the file magic; #2 hits the second commit.
        log = WriteAheadLog(path, fault=FaultSpec("fsync", 2))
        db = Database(authority, wal=log)
        s = db.connect()
        s.execute("CREATE TABLE t (id INT PRIMARY KEY)")   # fsync #1 (DDL)
        with pytest.raises(WalError):
            s.execute("INSERT INTO t VALUES (1)")
        # Not acknowledged → not visible, and the log is failed sticky.
        assert db.connect().query("SELECT * FROM t") == []
        assert log.failed
        with pytest.raises(WalError):
            db.connect().execute("INSERT INTO t VALUES (2)")
        # The unsynced record was truncated away: recovery sees only
        # the DDL, never a commit the client was told failed.
        recovered = Database(authority)
        report = recovered.recover(path)
        assert report["transactions"] == 0 and report["ddl"] == 1
        assert recovered.connect().query("SELECT * FROM t") == []


# ---------------------------------------------------------------------------
# the checkpoint: the log replaced by the database's image
# ---------------------------------------------------------------------------

class TestCheckpoint:
    def test_recovery_is_the_image_plus_later_records(self, authority,
                                                      wal_ids, tmp_path):
        path = str(tmp_path / "w.wal")
        _ref, db, crashed, _ = _run_workload(authority, wal_ids, path, None)
        assert not crashed
        db.checkpoint()
        session = db.connect()
        session.execute("UPDATE items SET qty = qty * 2 WHERE id <= 2")
        session.execute("DELETE FROM items WHERE id = 101")
        session.execute("CREATE ORDERED INDEX items_qty ON items (qty)")
        u_final_insert(db, *wal_ids)            # a sequence bump
        records, _valid, tail = scan_wal(path)
        assert tail is None and records[0][1] == "create_table"
        assert [r[0] for r in records].count("dump") == 1
        want = dump_database(db)
        recovered = Database(authority)
        recovered.recover(path)
        assert dump_database(recovered) == want
        assert recovered._sequences == db._sequences == {"item_id": 3}
        assert recovered.recover(path)["applied"] == 0
        assert dump_database(recovered) == want

    def test_log_size_does_not_grow_with_history(self, authority, tmp_path):
        sizes = []
        for updates in (10, 1000):
            path = str(tmp_path / ("u%d.wal" % updates))
            db = Database(authority, wal=path)
            session = db.connect()
            session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            session.execute("INSERT INTO t VALUES (1, 0)")
            for _ in range(updates):
                session.execute("UPDATE t SET v = v + 1 WHERE id = 1")
            history = os.path.getsize(path)
            db.checkpoint()
            sizes.append(os.path.getsize(path))
            assert sizes[-1] < history
            db.close()
        assert abs(sizes[0] - sizes[1]) <= 64, sizes

    def test_refused_with_an_open_transaction_or_no_wal(self, authority,
                                                        tmp_path):
        path = str(tmp_path / "w.wal")
        db = Database(authority, wal=path)
        db.connect().execute("CREATE TABLE t (id INT PRIMARY KEY)")
        session = db.connect()
        session.begin()
        session.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(WalError, match="a transaction is open"):
            db.checkpoint()
        session.commit()
        db.checkpoint()
        db.connect().execute("INSERT INTO t VALUES (2)")
        recovered = Database(authority)
        recovered.recover(path)
        assert recovered.connect().query("SELECT id FROM t ORDER BY id") \
            == [(1,), (2,)]
        with pytest.raises(WalError, match="no WAL"):
            Database(authority).checkpoint()

    def test_refused_over_a_log_not_yet_recovered(self, authority, tmp_path):
        """A database opened on a log holds none of its records until
        it recovers them; its image would replace them with nothing."""
        path = str(tmp_path / "w.wal")
        db = Database(authority, wal=path)
        db.connect().execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.connect().execute("INSERT INTO t VALUES (1)")
        db.close()
        reopened = Database(authority, wal=WriteAheadLog(path))
        with pytest.raises(WalError, match="not yet recovered"):
            reopened.checkpoint()
        reopened.recover()
        reopened.checkpoint()
        assert reopened.recover()["applied"] == 0
        reopened.connect().execute("INSERT INTO t VALUES (2)")
        reopened.checkpoint()
        recovered = Database(authority)
        recovered.recover(path)
        assert recovered.connect().query("SELECT id FROM t ORDER BY id") \
            == [(1,), (2,)]

    def test_an_unrecovered_log_refuses_ddl_and_commits(self, authority,
                                                        tmp_path):
        """A database opened on a log refuses DDL and write commits
        until it has recovered every record: either would be logged
        after records it never applied, and the next recovery would
        replay it against the wrong state.  Each refusal leaves the log
        as it was; after recover() both are accepted."""
        path = str(tmp_path / "w.wal")
        early = str(tmp_path / "early.wal")
        db = Database(authority, wal=path)
        db.connect().execute("CREATE TABLE t (id INT PRIMARY KEY)")
        shutil.copy(path, early)             # the log's first record only
        db.connect().execute("INSERT INTO t VALUES (1)")
        db.close()
        old = open(path, "rb").read()
        reopened = Database(authority, wal=WriteAheadLog(path))
        session = reopened.connect()
        with pytest.raises(WalError, match="DDL refused"):
            session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        reopened.recover(early)              # table t, but not its row
        with pytest.raises(WalError, match="commit refused"):
            session.execute("INSERT INTO t VALUES (2)")
        with pytest.raises(WalError, match="DDL refused"):
            session.execute("CREATE TABLE u (id INT PRIMARY KEY)")
        assert session.transaction is None
        assert open(path, "rb").read() == old
        assert reopened.recover()["applied"] == 1
        session.execute("INSERT INTO t VALUES (2)")
        session.execute("CREATE TABLE u (id INT PRIMARY KEY)")
        recovered = Database(authority)
        recovered.recover(path)
        assert recovered.connect().query("SELECT id FROM t ORDER BY id") \
            == [(1,), (2,)]
        assert "u" in recovered.catalog.tables

    def test_refused_fsync_keeps_the_old_log(self, authority, tmp_path):
        """fsync #0 is the magic, #1 the DDL, #2 the commit, #3 the
        image.  A stale temp file a crash left is overwritten, never
        read; after the refusal it is gone, the old log recovers and
        the next commit succeeds."""
        path = str(tmp_path / "w.wal")
        with open(path + ".checkpoint", "wb") as stale:
            stale.write(b"stale bytes of an earlier crash")
        db = Database(authority,
                      wal=WriteAheadLog(path, fault=FaultSpec("fsync", 3)))
        session = db.connect()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        session.execute("INSERT INTO t VALUES (1)")
        old = open(path, "rb").read()
        with pytest.raises(WalError, match="checkpoint fsync refused"):
            db.checkpoint()
        assert open(path, "rb").read() == old
        assert not os.path.exists(path + ".checkpoint")
        assert not db.wal.failed
        before = Database(authority)
        before.recover(path)
        assert before.connect().query("SELECT id FROM t") == [(1,)]
        session.execute("INSERT INTO t VALUES (2)")
        with open(path + ".checkpoint", "wb") as stale:
            stale.write(MAGIC + b"\x05stale frame")
        db.checkpoint()
        assert not os.path.exists(path + ".checkpoint")
        session.execute("INSERT INTO t VALUES (3)")
        recovered = Database(authority)
        recovered.recover(path)
        assert recovered.connect().query("SELECT id FROM t ORDER BY id") \
            == [(1,), (2,), (3,)]

    def test_racing_commits_all_recover(self, authority, tmp_path):
        """One thread commits while another checkpoints.  Like the
        durable_commit benchmark's clients, both take one latch for
        ``begin`` and statements (the engine has none) and the commit
        runs outside it, so a checkpoint can meet a commit at any point
        of its flush; it is refused while that transaction is open."""
        path = str(tmp_path / "race.wal")
        db = Database(authority, wal=path)
        db.connect().execute("CREATE TABLE t (id INT PRIMARY KEY)")
        latch, acked, errors = threading.Lock(), [], []

        def committer():
            session = db.connect()
            try:
                for i in range(150):
                    with latch:
                        session.begin()
                        session.execute("INSERT INTO t VALUES (?)", (i,))
                    session.commit()
                    acked.append(i)
            except BaseException as exc:           # pragma: no cover
                errors.append(exc)

        thread = threading.Thread(target=committer)
        thread.start()
        done = refused = 0
        while thread.is_alive():
            with latch:
                try:
                    db.checkpoint()
                    done += 1
                except WalError:
                    refused += 1
            time.sleep(0.0005)
        thread.join()
        assert not errors and len(acked) == 150
        assert done + refused > 0
        recovered = Database(authority)
        recovered.recover(path)
        assert recovered.connect().query("SELECT id FROM t ORDER BY id") \
            == [(i,) for i in acked]

    def test_commit_during_the_image_lands_in_the_new_log(
            self, authority, tmp_path, monkeypatch):
        """A transaction that begins once the image is built cannot
        become durable in the old log: its commit waits at the flush
        gate until the rename, then lands in the new log.  (Built
        before the gate, the image would miss a commit the old log
        acknowledged and the rename then dropped.)"""
        from repro.db import dump
        path = str(tmp_path / "w.wal")
        db = Database(authority, wal=path)
        db.connect().execute("CREATE TABLE t (id INT PRIMARY KEY)")
        acked, errors = threading.Event(), []

        def commit():
            try:
                db.connect().execute("INSERT INTO t VALUES (1)")
                acked.set()
            except BaseException as exc:           # pragma: no cover
                errors.append(exc)

        build = dump.image_records

        def slow_image(database):
            records = build(database)
            threading.Thread(target=commit).start()
            assert not acked.wait(0.5), "a commit passed the gate"
            return records

        monkeypatch.setattr(dump, "image_records", slow_image)
        db.checkpoint()
        assert acked.wait(10.0) and not errors
        recovered = Database(authority)
        recovered.recover(path)
        assert recovered.connect().query("SELECT id FROM t") == [(1,)]


# ---------------------------------------------------------------------------
# group commit
# ---------------------------------------------------------------------------

class _HeldFsync:
    """The log's file, except that the first ``fsync`` does not return
    until ``queued()`` — or ten seconds, leaving ``held`` false for the
    test to fail on."""

    def __init__(self, inner, queued):
        self._inner = inner
        self._queued = queued
        self.held = None

    def fsync(self):
        if self.held is None:
            deadline = time.monotonic() + 10.0
            while not self._queued() and time.monotonic() < deadline:
                time.sleep(0.001)
            self.held = self._queued()
        self._inner.fsync()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestGroupCommit:
    def test_concurrent_commits_share_flushes(self, authority, tmp_path):
        db = Database(authority, wal=str(tmp_path / "g.wal"))
        setup = db.connect()
        setup.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        sessions = []
        for i in range(6):
            s = db.connect()
            s.begin()
            s.execute("INSERT INTO t VALUES (?)", (i,))
            sessions.append(s)
        # The first committer leads a flush of its own record; hold it
        # inside fsync until the other five have queued behind it, so
        # the next leader's batch is theirs — no timing window.
        wal = db.wal
        wal._file = _HeldFsync(
            wal._file, lambda: len(wal._pending) == len(sessions) - 1)
        errors = []

        def commit(sess):
            try:
                sess.commit()
            except BaseException as exc:           # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=commit, args=(s,))
                   for s in sessions]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not errors and not any(t.is_alive() for t in threads)
        assert wal._file.held, "followers never queued behind the leader"
        stats = db.stats()["wal"]
        assert stats["commits"] == len(sessions)
        # The whole point: fewer fsyncs than commits — the leader's own
        # flush, then one absorbing everyone who queued meanwhile.
        assert stats["commit_flushes"] == 2
        assert stats["group_commit_size"] == len(sessions) - 1
        recovered = Database(authority)
        recovered.recover(str(tmp_path / "g.wal"))
        assert len(recovered.connect().query("SELECT * FROM t")) == \
            len(sessions)


# ---------------------------------------------------------------------------
# configuration and metrics surfacing
# ---------------------------------------------------------------------------

class TestConfig:
    def test_wal_counters_in_stats(self, authority, tmp_path):
        db = Database(authority, wal=str(tmp_path / "w.wal"))
        db.connect().execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.connect().execute("INSERT INTO t VALUES (1)")
        wal = db.stats()["wal"]
        assert wal["records"] == 2           # one DDL + one commit
        assert wal["commits"] == 1
        assert wal["commit_flushes"] == 1    # one session: a flush a commit
        assert wal["bytes"] > 0
        assert wal["flushes"] == 2
        assert wal["group_commit_size"] == 1

    def test_no_wal_means_no_logging(self, authority):
        db = Database(authority)
        db.connect().execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.connect().execute("INSERT INTO t VALUES (1)")
        assert db.wal is None
        assert db.stats()["wal"]["records"] == 0
