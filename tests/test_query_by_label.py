"""Query by Label (section 4.2): confinement, write rule, exact labels.

Several tests replay the paper's Figure 2 medical-records scenarios
verbatim.
"""

import pytest

from repro.core import (AuthorityState, IFCProcess, Label,
                        SeededIdGenerator)
from repro.db import Database
from repro.errors import ExpressionError, IFCViolation


class TestLabelConfinement:
    def test_bob_sees_only_bob(self, medical):
        process = medical.process_for(medical.bob, medical.bob_medical)
        session = medical.db.connect(process)
        rows = session.query(
            "SELECT * FROM HIVPatients WHERE patient_name = 'Bob' "
            "AND patient_dob = '6/26/78'")
        assert len(rows) == 1
        assert rows[0][0] == "Bob"

    def test_empty_label_sees_nothing(self, medical):
        process = medical.process_for(medical.bob)
        session = medical.db.connect(process)
        assert session.query("SELECT * FROM HIVPatients") == []

    def test_wrong_label_sees_nothing(self, medical):
        # A process with {john_medical}-style wrong contamination gets no
        # tuples (the paper's exact example).
        john = medical.authority.create_principal("john")
        john_tag = medical.authority.create_tag("john_medical",
                                                owner=john.id)
        process = medical.process_for(john, john_tag)
        session = medical.db.connect(process)
        rows = session.query(
            "SELECT * FROM HIVPatients WHERE patient_name = 'Bob'")
        assert rows == []

    def test_compound_label_sees_all(self, medical):
        process = IFCProcess(medical.authority, medical.clinic.id)
        process.add_secrecy(medical.all_medical.id)
        session = medical.db.connect(process)
        assert len(session.query("SELECT * FROM HIVPatients")) == 3

    def test_negative_query_does_not_reveal_hidden_rows(self, medical):
        """The paper's motivating example: 'patients who do not have
        cancer' must not implicitly reveal hidden patients."""
        process = medical.process_for(medical.alice, medical.alice_medical)
        session = medical.db.connect(process)
        rows = session.query(
            "SELECT * FROM HIVPatients WHERE condition <> 'cancer'")
        # Only Alice's row participates at all.
        assert [r[0] for r in rows] == ["Alice"]

    def test_aggregates_confined(self, medical):
        process = medical.process_for(medical.alice, medical.alice_medical)
        session = medical.db.connect(process)
        assert session.execute(
            "SELECT COUNT(*) FROM HIVPatients").scalar() == 1


class TestWriteRule:
    def test_insert_carries_exactly_process_label(self, medical):
        process = medical.process_for(medical.alice, medical.alice_medical)
        session = medical.db.connect(process)
        session.execute(
            "INSERT INTO HIVPatients VALUES ('Alice2', '1/1/90', 'hiv')")
        row = session.execute(
            "SELECT _label FROM HIVPatients WHERE patient_name = 'Alice2'"
        ).first()
        assert row[0] == Label([medical.alice_medical.id])

    def test_update_of_same_label_tuple_ok(self, medical):
        process = medical.process_for(medical.alice, medical.alice_medical)
        session = medical.db.connect(process)
        count = session.execute(
            "UPDATE HIVPatients SET condition = 'in remission' "
            "WHERE patient_name = 'Alice'").rowcount
        assert count == 1

    def test_update_of_lower_labeled_tuple_fails(self, medical):
        """Visible but lower-labelled tuples make the UPDATE fail
        (section 4.2)."""
        public = medical.db.connect(
            IFCProcess(medical.authority, medical.clinic.id))
        public.execute(
            "INSERT INTO HIVPatients VALUES ('Pub', '1/1/00', 'none')")
        process = medical.process_for(medical.alice, medical.alice_medical)
        session = medical.db.connect(process)
        with pytest.raises(IFCViolation):
            session.execute(
                "UPDATE HIVPatients SET condition = 'x' "
                "WHERE patient_name = 'Pub'")

    def test_update_ignores_invisible_tuples(self, medical):
        """Higher-labelled tuples are invisible and unaffected."""
        process = medical.process_for(medical.alice, medical.alice_medical)
        session = medical.db.connect(process)
        count = session.execute(
            "UPDATE HIVPatients SET condition = 'x' "
            "WHERE patient_name = 'Bob'").rowcount
        assert count == 0
        bob = medical.db.connect(
            medical.process_for(medical.bob, medical.bob_medical))
        assert bob.execute(
            "SELECT condition FROM HIVPatients WHERE patient_name = 'Bob'"
        ).scalar() == "hiv"

    def test_delete_of_lower_labeled_tuple_fails(self, medical):
        public = medical.db.connect(
            IFCProcess(medical.authority, medical.clinic.id))
        public.execute(
            "INSERT INTO HIVPatients VALUES ('Pub', '1/1/00', 'none')")
        process = medical.process_for(medical.alice, medical.alice_medical)
        session = medical.db.connect(process)
        with pytest.raises(IFCViolation):
            session.execute(
                "DELETE FROM HIVPatients WHERE patient_name = 'Pub'")

    def test_delete_own_label_ok(self, medical):
        process = medical.process_for(medical.alice, medical.alice_medical)
        session = medical.db.connect(process)
        assert session.execute(
            "DELETE FROM HIVPatients WHERE patient_name = 'Alice'"
        ).rowcount == 1


class TestLabelColumn:
    def test_label_column_selectable(self, medical):
        process = medical.process_for(medical.bob, medical.bob_medical)
        session = medical.db.connect(process)
        row = session.execute(
            "SELECT patient_name, _label FROM HIVPatients").first()
        assert row[1] == Label([medical.bob_medical.id])

    def test_exact_label_query(self, medical):
        """Section 4.2 / 5.2.1: an exact-label condition filters out
        polyinstantiated garbage."""
        clinic = medical.db.connect(
            IFCProcess(medical.authority, medical.clinic.id))
        clinic.execute(
            "INSERT INTO HIVPatients VALUES ('Bob', '6/26/78', 'fake')")
        process = medical.process_for(medical.bob, medical.bob_medical)
        session = medical.db.connect(process)
        all_bobs = session.query(
            "SELECT condition FROM HIVPatients WHERE patient_name = 'Bob'")
        assert len(all_bobs) == 2          # real + polyinstantiated fake
        genuine = session.query(
            "SELECT condition FROM HIVPatients WHERE patient_name = 'Bob' "
            "AND LABEL_CONTAINS(_label, 'bob_medical')")
        assert [r[0] for r in genuine] == ["hiv"]

    def test_label_functions(self, medical):
        process = medical.process_for(medical.bob, medical.bob_medical)
        session = medical.db.connect(process)
        row = session.execute(
            "SELECT LABEL_SIZE(_label), "
            "LABEL_SUBSET(_label, LABEL('bob_medical')), "
            "LABEL_SUBSET(LABEL('alice_medical'), _label) "
            "FROM HIVPatients").first()
        assert list(row) == [1, True, False]


class TestBaselineMode:
    def test_ifc_disabled_sees_everything(self, authority, baseline_db):
        clinic = authority.create_principal("c2")
        session = baseline_db.connect(IFCProcess(authority, clinic.id))
        session.execute("CREATE TABLE t (x INT PRIMARY KEY)")
        session.execute("INSERT INTO t VALUES (1)")
        other = baseline_db.connect()
        assert len(other.query("SELECT * FROM t")) == 1

    def test_labels_not_stored_in_baseline(self, authority, baseline_db):
        session = baseline_db.connect()
        session.execute("CREATE TABLE t (x INT PRIMARY KEY)")
        session.execute("INSERT INTO t VALUES (1)")
        table = baseline_db.catalog.get_table("t")
        version = next(table.all_versions())
        assert len(version.label) == 0


# ---------------------------------------------------------------------------
# Noninterference of the batched scan's loop order: a predicate is
# evaluated only on tuples that MVCC *and* the label check let through
# ---------------------------------------------------------------------------

#: ``(sql, params, error the poisoned row raises when it is visible)``.
#: Row 1000 is the only one with ``amount = 7`` (the divisor hits zero)
#: and the only one with a non-NULL ``note`` (TEXT compared with INT).
POISON_STATEMENTS = (
    ("SELECT id, amount FROM ledger WHERE 100 / (amount - ?) > 1", (7,),
     ExpressionError),
    ("SELECT COUNT(*), SUM(amount) FROM ledger "
     "WHERE 100 / (amount - ?) > 1", (7,), ExpressionError),
    ("SELECT id FROM ledger WHERE amount > 20 AND 100 / (amount - ?) > 1 "
     "ORDER BY amount DESC, id LIMIT 5", (7,), None),   # AND short-circuits
    ("UPDATE ledger SET amount = amount + 100 "
     "WHERE 100 / (amount - ?) > 50", (7,), ExpressionError),
    ("SELECT id FROM ledger WHERE note > ?", (5,), ExpressionError),
    ("SELECT grp, COUNT(*) FROM ledger WHERE note > ? GROUP BY grp", (5,),
     ExpressionError),
    ("DELETE FROM ledger WHERE note > ?", (5,), ExpressionError),
)


def _ledger(batch_size, poison):
    """150 rows under the reader's own label plus, per ``poison``:
    ``None`` — nothing else; ``"hidden"`` — the poisoned row under a
    tag the reader does not hold; ``"visible"`` — under the reader's."""
    authority = AuthorityState(idgen=SeededIdGenerator(31))
    db = Database(authority, seed=31, batch_size=batch_size)
    owner = authority.create_principal("owner")
    mine = authority.create_tag("mine", owner=owner.id)
    theirs = authority.create_tag("theirs", owner=owner.id)
    db.connect(IFCProcess(authority, owner.id)).execute(
        "CREATE TABLE ledger (id INT PRIMARY KEY, grp INT, amount INT, "
        "note TEXT)")
    sessions = {}
    for name, tag in (("mine", mine), ("theirs", theirs)):
        process = IFCProcess(authority, owner.id)
        process.add_secrecy(tag.id)
        sessions[name] = db.connect(process)
    for i in range(150):
        if i == 70 and poison is not None:      # mid-heap, mid-batch
            sessions["theirs" if poison == "hidden" else "mine"].execute(
                "INSERT INTO ledger VALUES (1000, 0, 7, 'poison')")
        sessions["mine"].execute(
            "INSERT INTO ledger VALUES (?, ?, ?, NULL)",
            (i, i % 4, 10 + i % 50))
    db.connect(IFCProcess(authority, owner.id)).execute("ANALYZE")
    return sessions["mine"]


def _observe(session, sql, params):
    try:
        result = session.execute(sql, params)
    except Exception as exc:                    # noqa: BLE001 — observed
        return ("error", type(exc).__name__)
    return ("ok", result.rowcount,
            [(tuple(row), tuple(sorted(row.label))) for row in result.rows])


#: 1 is the reference leg; 3–5 straddle the scan leaf's constant (the
#: per-version loop below it, the set-at-a-time routines from it up).
@pytest.mark.parametrize("batch_size", [1, 3, 4, 5, 7, 1024])
class TestPredicateNeverSeesSuppressedTuples:
    def test_hidden_poison_row_is_unobservable(self, batch_size):
        """Rows, labels, rowcount and error type equal those of the
        same database without the row: its label is not covered, so no
        predicate may ever be evaluated on it."""
        for sql, params, _error in POISON_STATEMENTS:
            # Fresh pairs per statement: the DML ones change the table.
            with_row = _ledger(batch_size, "hidden")
            without = _ledger(batch_size, None)
            assert _observe(with_row, sql, params) \
                == _observe(without, sql, params), (sql, batch_size)
            assert _observe(with_row, sql, params)[0] == "ok"

    def test_visible_poison_row_raises_everywhere(self, batch_size):
        """The dual: the same row under the reader's own label reaches
        the predicate, in every executor configuration."""
        for sql, params, error in POISON_STATEMENTS:
            outcome = _observe(_ledger(batch_size, "visible"), sql, params)
            if error is None:
                assert outcome[0] == "ok", (sql, outcome)
            else:
                assert outcome == ("error", error.__name__), (sql, outcome)
