"""Constraints under IFC (section 5.2): polyinstantiation, the Foreign
Key Rule, label constraints, and plain CHECKs."""

import pytest

from repro.core import IFCProcess, Label
from repro.db import Database
from repro.db.catalog import BEFORE
from repro.errors import (
    AuthorityError,
    CheckViolation,
    ForeignKeyViolation,
    IFCViolation,
    LabelConstraintViolation,
    TypeError_,
    UniqueViolation,
)


class TestUniquenessAndPolyinstantiation:
    """The three inserts of section 5.2.1, exactly."""

    def test_insert_new_key_succeeds_any_label(self, medical):
        dan = medical.authority.create_principal("dan")
        dan_tag = medical.authority.create_tag("dan_medical", owner=dan.id)
        session = medical.db.connect(medical.process_for(dan, dan_tag))
        session.execute(
            "INSERT INTO HIVPatients VALUES ('Dan', '8/12/69', 'hiv')")

    def test_visible_conflict_fails(self, medical):
        process = medical.process_for(medical.alice, medical.alice_medical)
        session = medical.db.connect(process)
        with pytest.raises(UniqueViolation):
            session.execute(
                "INSERT INTO HIVPatients VALUES ('Alice', '2/1/60', 'dup')")

    def test_invisible_conflict_polyinstantiates(self, medical):
        """Insert 3: empty label, conflicting with Alice's hidden row —
        must NOT fail (failing would leak her presence)."""
        table = medical.db.catalog.get_table("HIVPatients")
        before = table.polyinstantiation_count
        session = medical.db.connect(
            IFCProcess(medical.authority, medical.clinic.id))
        session.execute(
            "INSERT INTO HIVPatients VALUES ('Alice', '2/1/60', 'none')")
        assert table.polyinstantiation_count == before + 1
        # The empty-label writer still sees a consistent single row.
        assert len(session.query(
            "SELECT * FROM HIVPatients WHERE patient_name = 'Alice'")) == 1
        # A high-labelled reader sees the mistake: two rows, differing
        # only in label.
        high = medical.db.connect(
            medical.process_for(medical.alice, medical.alice_medical))
        assert len(high.query(
            "SELECT * FROM HIVPatients WHERE patient_name = 'Alice'")) == 2

    def test_same_label_duplicate_still_fails(self, medical):
        session = medical.db.connect(
            IFCProcess(medical.authority, medical.clinic.id))
        session.execute(
            "INSERT INTO HIVPatients VALUES ('Eve', '3/3/93', 'x')")
        with pytest.raises(UniqueViolation):
            session.execute(
                "INSERT INTO HIVPatients VALUES ('Eve', '3/3/93', 'y')")

    def test_nulls_never_conflict(self, db):
        session = db.connect()
        session.execute("CREATE TABLE u (a INT, b INT, UNIQUE (a, b))")
        session.execute("INSERT INTO u VALUES (1, NULL)")
        session.execute("INSERT INTO u VALUES (1, NULL)")   # ok: SQL nulls

    @pytest.mark.parametrize("ddl", (
        "CREATE TABLE t (a INT PRIMARY KEY, b INT)",
        "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))"))
    def test_every_key_column_is_not_null(self, db, ddl):
        """A key declared with the table is NOT NULL as the column-level
        form is: no NULL key, and so no two ``(NULL, 1)`` rows."""
        session = db.connect()
        session.execute(ddl)
        for _attempt in range(2):
            with pytest.raises(TypeError_, match="null value in column 'a' "
                               "of table 't' violates NOT NULL"):
                session.execute("INSERT INTO t VALUES (NULL, 1)")
        assert session.query("SELECT a, b FROM t") == []


@pytest.fixture
def fk_world(authority, db):
    """Cars/Drives with per-label FKs, as in section 5.2.2's example."""
    alice = authority.create_principal("alice")
    t_cars = authority.create_tag("alice_cars", owner=alice.id)
    t_drives = authority.create_tag("alice_drives", owner=alice.id)
    admin = db.connect(IFCProcess(authority, alice.id))
    admin.execute("CREATE TABLE Cars (carid INT PRIMARY KEY, o TEXT)")
    admin.execute("CREATE TABLE Drives (driveid INT PRIMARY KEY, "
                  "carid INT REFERENCES Cars(carid))")
    process = IFCProcess(authority, alice.id)
    session = db.connect(process)
    process.add_secrecy(t_cars.id)
    session.execute("INSERT INTO Cars VALUES (1, 'alice')")
    process.declassify(t_cars.id)
    return authority, db, alice, t_cars, t_drives, process, session


class TestForeignKeyRule:
    def test_missing_parent_fails(self, fk_world):
        *_, session = fk_world
        with pytest.raises(ForeignKeyViolation):
            session.execute("INSERT INTO Drives VALUES (1, 99)")

    def test_cross_label_insert_requires_declassifying_clause(self, fk_world):
        authority, db, alice, t_cars, t_drives, process, session = fk_world
        process.add_secrecy(t_drives.id)
        with pytest.raises(IFCViolation):
            session.execute("INSERT INTO Drives VALUES (1, 1)")

    def test_declassifying_clause_with_authority_succeeds(self, fk_world):
        """The exact clause from section 5.2.2."""
        authority, db, alice, t_cars, t_drives, process, session = fk_world
        process.add_secrecy(t_drives.id)
        session.execute(
            "INSERT INTO Drives VALUES (1, 1) "
            "DECLASSIFYING (alice_drives, alice_cars)")
        assert session.execute("SELECT COUNT(*) FROM Drives").scalar() == 1

    def test_declassifying_without_authority_fails(self, fk_world):
        authority, db, alice, t_cars, t_drives, _p, _s = fk_world
        mallory = authority.create_principal("mallory")
        process = IFCProcess(authority, mallory.id)
        process.add_secrecy(t_drives.id)
        session = db.connect(process)
        with pytest.raises(AuthorityError):
            session.execute(
                "INSERT INTO Drives VALUES (2, 1) "
                "DECLASSIFYING (alice_drives, alice_cars)")

    def test_clause_must_cover_symmetric_difference(self, fk_world):
        authority, db, alice, t_cars, t_drives, process, session = fk_world
        process.add_secrecy(t_drives.id)
        with pytest.raises(IFCViolation):
            session.execute(
                "INSERT INTO Drives VALUES (1, 1) "
                "DECLASSIFYING (alice_drives)")   # missing alice_cars

    def test_same_label_needs_no_clause(self, fk_world):
        authority, db, alice, t_cars, t_drives, process, session = fk_world
        process.add_secrecy(t_cars.id)
        session.execute("INSERT INTO Cars VALUES (2, 'alice')")
        session.execute("INSERT INTO Drives VALUES (5, 2)")   # same label

    def test_delete_restricted_even_across_labels(self, fk_world):
        """The deleter learns about the referencing tuple; the Foreign
        Key Rule made that acceptable at insert time (section 5.2.2)."""
        authority, db, alice, t_cars, t_drives, process, session = fk_world
        process.add_secrecy(t_drives.id)
        session.execute(
            "INSERT INTO Drives VALUES (1, 1) "
            "DECLASSIFYING (alice_drives, alice_cars)")
        process.declassify(t_drives.id)
        process.add_secrecy(t_cars.id)
        with pytest.raises(ForeignKeyViolation):
            session.execute("DELETE FROM Cars WHERE carid = 1")

    def test_delete_unreferenced_parent_ok(self, fk_world):
        authority, db, alice, t_cars, t_drives, process, session = fk_world
        process.add_secrecy(t_cars.id)
        session.execute("INSERT INTO Cars VALUES (3, 'alice')")
        session.execute("DELETE FROM Cars WHERE carid = 3")

    def test_update_of_referenced_key_restricted(self, fk_world):
        authority, db, alice, t_cars, t_drives, process, session = fk_world
        process.add_secrecy(t_drives.id)
        session.execute(
            "INSERT INTO Drives VALUES (1, 1) "
            "DECLASSIFYING (alice_drives, alice_cars)")
        process.declassify(t_drives.id)
        process.add_secrecy(t_cars.id)
        with pytest.raises(ForeignKeyViolation):
            session.execute("UPDATE Cars SET carid = 9 WHERE carid = 1")

    @pytest.mark.parametrize("clause", ["", " DECLASSIFYING (alice_cars)"])
    def test_a_parent_the_writer_may_not_learn_of_is_no_parent(
            self, fk_world, clause):
        """Car 1 is under alice_cars, which bob can neither see nor
        declassify: referencing it fails exactly as referencing a car
        that does not exist — the same error type and message, key
        aside — so the failure tells bob nothing about car 1 or its
        label.  A clause naming a tag he cannot declassify is refused
        before any parent is looked up."""
        authority, db, *_ = fk_world
        bob = db.connect(IFCProcess(authority,
                                    authority.create_principal("bob").id))

        def attempt(carid):
            with pytest.raises(Exception) as info:
                bob.execute("INSERT INTO Drives VALUES (7, ?)" + clause,
                            (carid,))
            return (type(info.value),
                    str(info.value).replace("(%d,)" % carid, "(K,)"))

        assert attempt(1) == attempt(99)
        assert attempt(1)[0] is (AuthorityError if clause
                                 else ForeignKeyViolation)


@pytest.mark.parametrize("statement, event, verb", [
    ("DELETE FROM p WHERE id = 1", "delete", "delete from"),
    ("UPDATE p SET id = 2 WHERE id = 1", "update", "update of"),
])
class TestRestrict:
    """UPDATE and DELETE run one pipeline: RESTRICT is checked after the
    BEFORE triggers for both, and names the statement that failed."""

    @pytest.fixture
    def family(self, db):
        session = db.connect()
        session.execute_script(
            "CREATE TABLE p (id INT PRIMARY KEY);"
            "CREATE TABLE c (cid INT PRIMARY KEY, pid INT REFERENCES p(id));"
            "INSERT INTO p VALUES (1); INSERT INTO c VALUES (10, 1);")
        return session

    def test_restrict_names_the_statement(self, family, statement, event,
                                          verb):
        with pytest.raises(ForeignKeyViolation,
                           match="^%s p would orphan rows in c" % verb):
            family.execute(statement)

    def test_a_before_trigger_can_clear_the_children(self, family, db,
                                                     statement, event, verb):
        def clear(ctx):
            ctx.session.execute("DELETE FROM c WHERE pid = ?",
                                (ctx.old["id"],))

        db.create_trigger("clear", "p", event, BEFORE, clear)
        assert family.execute(statement).rowcount == 1
        assert family.query("SELECT cid FROM c") == []


class TestLabelConstraints:
    def test_match_label_fk_enforced(self, authority, db):
        """Section 5.2.4: MATCH LABEL pins the child's label to the
        parent's, preventing polyinstantiation."""
        alice = authority.create_principal("alice")
        tag = authority.create_tag("alice_medical", owner=alice.id)
        admin = db.connect(IFCProcess(authority, alice.id))
        admin.execute("CREATE TABLE Registry (name TEXT PRIMARY KEY)")
        admin.execute(
            "CREATE TABLE Records (rid INT PRIMARY KEY, "
            "name TEXT REFERENCES Registry(name) MATCH LABEL)")
        process = IFCProcess(authority, alice.id)
        session = db.connect(process)
        process.add_secrecy(tag.id)
        session.execute("INSERT INTO Registry VALUES ('Alice')")
        session.execute("INSERT INTO Records VALUES (1, 'Alice')")   # same
        process.declassify(tag.id)
        with pytest.raises((LabelConstraintViolation, ForeignKeyViolation)):
            # Empty label does not match {alice_medical}: rejected, so no
            # polyinstantiated record can exist.
            session.execute("INSERT INTO Records VALUES (2, 'Alice')")

    def test_label_check_constraint(self, authority, db):
        alice = authority.create_principal("alice")
        tag = authority.create_tag("alice_medical", owner=alice.id)
        admin = db.connect(IFCProcess(authority, alice.id))
        admin.execute(
            "CREATE TABLE Sealed (x INT PRIMARY KEY, "
            "LABEL CHECK (LABEL_CONTAINS(_label, 'alice_medical')))")
        session = db.connect(IFCProcess(authority, alice.id))
        with pytest.raises(LabelConstraintViolation):
            session.execute("INSERT INTO Sealed VALUES (1)")
        process = IFCProcess(authority, alice.id)
        labelled = db.connect(process)
        process.add_secrecy(tag.id)
        labelled.execute("INSERT INTO Sealed VALUES (1)")


class TestCheckConstraints:
    def test_check_enforced_on_insert_and_update(self, db):
        session = db.connect()
        session.execute(
            "CREATE TABLE c (x INT PRIMARY KEY, CHECK (x > 0))")
        session.execute("INSERT INTO c VALUES (1)")
        with pytest.raises(CheckViolation):
            session.execute("INSERT INTO c VALUES (0)")
        with pytest.raises(CheckViolation):
            session.execute("UPDATE c SET x = -5 WHERE x = 1")

    def test_check_null_passes(self, db):
        session = db.connect()
        session.execute("CREATE TABLE c (x INT, CHECK (x > 0))")
        session.execute("INSERT INTO c VALUES (NULL)")   # unknown passes


@pytest.fixture(params=[None, 7], ids=["default", "batch7"])
def typed(request, authority):
    """A table with a NOT NULL and an INT column, at the default batch
    size and at 7."""
    kwargs = {} if request.param is None else {"batch_size": request.param}
    session = Database(authority, seed=12345, **kwargs).connect()
    session.execute(
        "CREATE TABLE u (id INT PRIMARY KEY, name TEXT NOT NULL, n INT)")
    session.execute("INSERT INTO u VALUES (1, 'a', 1)")
    return session


class TestUpdateCoercion:
    """An UPDATE on a table without BEFORE triggers coerces only its SET
    columns; every check on those columns still holds."""

    def test_null_into_a_not_null_column_is_refused(self, typed):
        with pytest.raises(TypeError_) as inserted:
            typed.execute("INSERT INTO u VALUES (2, NULL, 1)")
        with pytest.raises(TypeError_) as updated:
            typed.execute("UPDATE u SET name = NULL WHERE id = 1")
        assert str(updated.value) == str(inserted.value) == (
            "null value in column 'name' of table 'u' violates NOT NULL")
        assert typed.execute("SELECT name FROM u").scalar() == "a"

    def test_an_assigned_value_is_coerced(self, typed):
        typed.execute("UPDATE u SET n = '7' WHERE id = 1")
        value = typed.execute("SELECT n FROM u WHERE id = 1").scalar()
        assert value == 7 and type(value) is int

    def test_an_assigned_value_of_the_wrong_type_is_refused(self, typed):
        with pytest.raises(TypeError_):
            typed.execute("UPDATE u SET n = 'seven' WHERE id = 1")
        assert typed.execute("SELECT n FROM u").scalar() == 1

    def test_unassigned_columns_keep_their_stored_values(self, typed):
        typed.execute("UPDATE u SET n = n + 1 WHERE id = 1")
        assert typed.execute("SELECT * FROM u").first() == [1, "a", 2]
