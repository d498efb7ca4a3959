"""Label-preserving dump/restore and psql-style describe (section 7.2)."""

import pytest

from repro.core import IFCProcess, Label
from repro.db import Database
from repro.db.dump import (
    describe,
    dump_database,
    restore_database,
)
from repro.db.wal import encode_record, scan_records
from repro.errors import DatabaseError


@pytest.fixture
def populated(medical):
    """The medical scenario plus a referencing table and a view."""
    admin = medical.db.connect(
        IFCProcess(medical.authority, medical.clinic.id))
    admin.execute(
        "CREATE TABLE Visits (vid INT PRIMARY KEY, patient_name TEXT)")
    admin.execute("CREATE INDEX visits_by_name ON Visits (patient_name)")
    admin.execute("INSERT INTO Visits VALUES (1, 'Alice')")
    admin.execute(
        "CREATE VIEW PatientCount AS SELECT COUNT(*) AS n "
        "FROM HIVPatients WITH DECLASSIFYING (all_medical)")
    medical.db.next_sequence("vid")
    return medical


class TestDumpRestore:
    def test_roundtrip_preserves_tuples_and_labels(self, populated):
        data = dump_database(populated.db)
        fresh = Database(populated.authority, seed=1)
        restore_database(data, fresh)
        # Labels intact: Bob's row only visible with Bob's tag.
        empty = fresh.connect(
            IFCProcess(populated.authority, populated.clinic.id))
        assert empty.query("SELECT * FROM HIVPatients") == []
        bob = fresh.connect(populated.process_for(populated.bob,
                                                  populated.bob_medical))
        rows = bob.query("SELECT patient_name, _label FROM HIVPatients")
        assert len(rows) == 1
        assert rows[0][1] == Label([populated.bob_medical.id])

    def test_roundtrip_preserves_constraints(self, populated):
        fresh = Database(populated.authority, seed=2)
        restore_database(dump_database(populated.db), fresh)
        session = fresh.connect(
            IFCProcess(populated.authority, populated.clinic.id))
        from repro.errors import UniqueViolation
        session.execute("INSERT INTO Visits VALUES (2, 'Bob')")
        with pytest.raises(UniqueViolation):
            session.execute("INSERT INTO Visits VALUES (2, 'Dup')")

    def test_roundtrip_preserves_views(self, populated):
        fresh = Database(populated.authority, seed=3)
        restore_database(dump_database(populated.db), fresh)
        session = fresh.connect(
            IFCProcess(populated.authority, populated.clinic.id))
        assert session.execute(
            "SELECT n FROM PatientCount").scalar() == 3

    def test_roundtrip_preserves_secondary_indexes(self, populated):
        fresh = Database(populated.authority, seed=4)
        restore_database(dump_database(populated.db), fresh)
        table = fresh.catalog.get_table("Visits")
        assert table.find_index(("patient_name",)) is not None

    def test_dead_versions_not_dumped(self, medical):
        session = medical.db.connect(
            medical.process_for(medical.alice, medical.alice_medical))
        session.execute(
            "UPDATE HIVPatients SET condition = 'x' "
            "WHERE patient_name = 'Alice'")
        fresh = Database(medical.authority, seed=5)
        restore_database(dump_database(medical.db), fresh)
        table = fresh.catalog.get_table("HIVPatients")
        assert table.version_count == 3       # one live version per row

    def test_restore_requires_empty_database(self, populated):
        data = dump_database(populated.db)
        occupied = Database(populated.authority, seed=6)
        occupied.connect().execute("CREATE TABLE t (x INT)")
        with pytest.raises(DatabaseError):
            restore_database(data, occupied)

    def test_file_roundtrip(self, populated, tmp_path):
        path = tmp_path / "backup.ifdb"
        path.write_bytes(dump_database(populated.db))
        fresh = Database(populated.authority, seed=7)
        restore_database(path.read_bytes(), fresh)
        assert "HIVPatients" in fresh.catalog.tables

    def test_garbage_rejected(self, populated):
        with pytest.raises(Exception):
            restore_database(b"not a dump", Database(populated.authority))

    def test_recover_reads_a_dump_like_restore(self, populated, tmp_path):
        """A dump is a WAL image: recovering it is restoring it."""
        path = tmp_path / "backup.ifdb"
        path.write_bytes(dump_database(populated.db))
        restored = Database(populated.authority, seed=12)
        restore_database(path.read_bytes(), restored)
        recovered = Database(populated.authority, seed=12)
        report = recovered.recover(str(path))
        assert report["tail"] is None and report["transactions"] == 1
        assert dump_database(recovered) == dump_database(restored)

    def test_restore_caches_no_plan(self, populated):
        """Replay plans nothing, so a restored table's first query is
        costed from its loaded row count: restore needs no ANALYZE."""
        fresh = Database(populated.authority, seed=8)
        restore_database(dump_database(populated.db), fresh)
        assert all(prepared is None
                   for _statement, prepared, _tables
                   in fresh._plan_cache.values())
        assert fresh.catalog.get_table("HIVPatients").approx_rows == 3


class TestDumpIntegrity:
    """The CRC/format-version container (corruption must fail clearly)."""

    def test_truncated_dump_rejected(self, populated):
        data = dump_database(populated.db)
        with pytest.raises(DatabaseError, match="truncated"):
            restore_database(data[:-20], Database(populated.authority))

    def test_cut_at_a_record_boundary_rejected(self, populated):
        """A cut that leaves only whole records is still incomplete: the
        closing record is missing."""
        data = dump_database(populated.db)
        cut = data[:-len(encode_record(("dump", [])))]
        _records, valid, tail = scan_records(cut)
        assert tail is None and valid == len(cut)
        with pytest.raises(DatabaseError, match="truncated"):
            restore_database(cut, Database(populated.authority))

    def test_bit_flip_rejected(self, populated):
        data = bytearray(dump_database(populated.db))
        data[-10] ^= 0x40
        with pytest.raises(DatabaseError, match="checksum"):
            restore_database(bytes(data), Database(populated.authority))

    def test_old_format_rejected_with_clear_error(self, populated):
        import pickle
        legacy = pickle.dumps({"format": "ifdb-dump-v1", "tables": {}})
        with pytest.raises(DatabaseError, match="magic"):
            restore_database(legacy, Database(populated.authority))

    def test_header_shorter_than_magic_rejected(self, populated):
        with pytest.raises(DatabaseError, match="magic"):
            restore_database(b"IF", Database(populated.authority))


class TestRestoreIsLogged:
    """A restore into a WAL-backed database is acknowledged work: a
    crash after it must not undo it."""

    def test_restore_into_logged_database_survives_recovery(
            self, populated, tmp_path):
        data = dump_database(populated.db)
        path = str(tmp_path / "restored.wal")
        logged = Database(populated.authority, wal=path)
        restore_database(data, logged)
        logged.close()
        recovered = Database(populated.authority)
        recovered.recover(path)
        assert dump_database(recovered) == data
        assert recovered.catalog.get_table("Visits").find_index(
            ("patient_name",)) is not None
        assert "PatientCount" in recovered.catalog.views
        assert recovered._sequences == {"vid": 1}
        clinic = recovered.connect(
            IFCProcess(populated.authority, populated.clinic.id))
        assert clinic.query("SELECT vid FROM Visits") == [(1,)]

    def test_restored_log_keeps_logging(self, populated, tmp_path):
        """Commits after a restore name the restored heap's tids, which
        are the source heap's, so the log replays as one history."""
        path = str(tmp_path / "restored.wal")
        logged = Database(populated.authority, wal=path)
        restore_database(dump_database(populated.db), logged)
        admin = logged.connect(
            IFCProcess(populated.authority, populated.clinic.id))
        admin.execute("INSERT INTO Visits VALUES (2, 'Bob')")
        admin.execute("UPDATE Visits SET patient_name = 'Al' WHERE vid = 1")
        want = dump_database(logged)
        logged.close()
        recovered = Database(populated.authority)
        recovered.recover(path)
        assert dump_database(recovered) == want

    def test_failed_restore_logs_nothing(self, populated, tmp_path,
                                         monkeypatch):
        from repro.db import wal

        def failing(record):
            raise RuntimeError("disk on fire")

        data = dump_database(populated.db)
        monkeypatch.setattr(wal, "decode_labeled_row", failing)
        logged = Database(populated.authority,
                          wal=str(tmp_path / "restored.wal"))
        with pytest.raises(RuntimeError):
            restore_database(data, logged)
        assert "Visits" in logged.catalog.tables     # the apply began
        assert logged.wal.empty

    def test_restore_refuses_a_nonempty_log(self, populated, tmp_path):
        path = str(tmp_path / "restored.wal")
        logged = Database(populated.authority, wal=path)
        session = logged.connect()
        session.execute("CREATE TABLE scratch (x INT)")
        session.execute("DROP TABLE scratch")
        with pytest.raises(DatabaseError, match="empty database"):
            restore_database(dump_database(populated.db), logged)


class TestDumpCompleteness:
    """Unserializable catalog objects must never vanish silently."""

    def test_dump_warns_about_functions_and_triggers(self, populated):
        from repro.db.dump import DumpIncompleteWarning
        db = populated.db
        db.create_function("shout", lambda s: str(s).upper())
        db.create_procedure("audit_proc", lambda session: None)
        with pytest.warns(DumpIncompleteWarning, match="SHOUT") as caught:
            data = dump_database(db)
        assert any("audit_proc" in str(w.message) for w in caught)
        fresh = Database(populated.authority, seed=9)
        with pytest.warns(DumpIncompleteWarning, match="function SHOUT|"
                                                       "procedure"):
            restore_database(data, fresh)
        assert "Visits" in fresh.catalog.tables
        assert not fresh.catalog.functions and not fresh.catalog.procedures

    def test_complete_dump_does_not_warn(self, populated, recwarn):
        data = dump_database(populated.db)
        fresh = Database(populated.authority, seed=10)
        restore_database(data, fresh)
        from repro.db.dump import DumpIncompleteWarning
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DumpIncompleteWarning)]


class TestDescribe:
    def test_describe_shows_label_histogram(self, medical):
        text = describe(medical.db, "HIVPatients")
        assert "HIVPatients" in text
        assert "alice_medical" in text
        assert "live tuples: 3" in text

    def test_describe_notes_polyinstantiation(self, medical):
        session = medical.db.connect(
            IFCProcess(medical.authority, medical.clinic.id))
        session.execute(
            "INSERT INTO HIVPatients VALUES ('Alice', '2/1/60', 'x')")
        text = describe(medical.db, "HIVPatients")
        assert "polyinstantiated inserts: 1" in text

    def test_describe_counts_what_a_snapshot_sees(self, medical):
        """Neither a rolled-back insert nor another session's
        uncommitted one is a live tuple; the dump would skip both."""
        clinic = IFCProcess(medical.authority, medical.clinic.id)
        session = medical.db.connect(clinic)
        session.execute("CREATE TABLE notes (id INT PRIMARY KEY)")
        session.execute("INSERT INTO notes VALUES (1)")
        session.begin()
        session.execute("INSERT INTO notes VALUES (2)")
        session.rollback()
        pending = medical.db.connect(clinic)
        pending.begin()
        pending.execute("INSERT INTO notes VALUES (3)")
        assert "live tuples: 1" in describe(medical.db, "notes")
        pending.rollback()
