"""Query by Label (section 4.2): confinement, write rule, exact labels.

Several tests replay the paper's Figure 2 medical-records scenarios
verbatim.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# An IN-list index probe answers as the filter over its unindexed twin
# ---------------------------------------------------------------------------

NAN = float("nan")

#: What an IN list on the INT column ``k`` draws: keys the rows hold
#: (and 10–11, the keys the reader's own updates move rows to), keys
#: nothing holds, NULL, NaN, floats equal to ints and not, booleans and
#: strings; a list draws with replacement, so duplicates are common.
IN_ITEMS = (0, 1, 2, 3, 4, 5, 10, 11, 40, None, NAN, 1.0, 2.5, True, False,
            "1", "a")

#: ``h``: a hash key, ``(g, k)`` the primary key; ``o``: an ordered
#: prefix, ``(g, k)`` of an ordered index on ``(g, k, v)``; ``u``: the
#: unindexed twin.  All three hold the same rows.
IN_TABLES = {"h": "IndexScan h using h_h_pkey_idx (g = ?, k IN (",
             "o": "IndexScan o using o_gkv (g = ?, k IN (",
             "u": "Scan u filter"}

#: Rows of ``g = 9``, which no statement asks for: an equality on ``g``
#: alone probes ``o``'s ordered index too, and the optimizer prefers a
#: list of up to five keys to it only over this many rows.
IN_FILLER = 1000


def _in_literal(value):
    """A list item spelled as a literal, or ``None`` for ``?``."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'%s'" % value
    return None if value != value else repr(value)


@st.composite
def _in_list(draw):
    """``(text, params)`` of one IN list: each item a literal or a
    ``?`` parameter (a NaN is always a parameter)."""
    items = draw(st.lists(st.sampled_from(IN_ITEMS), min_size=1,
                          max_size=5))
    texts, params = [], []
    for item in items:
        literal = _in_literal(item)
        if literal is None or draw(st.booleans()):
            texts.append("?")
            params.append(item)
        else:
            texts.append(literal)
    return "k IN (%s)" % ", ".join(texts), tuple(params)


@st.composite
def _in_rows(draw):
    """``(writer, g, k, v)`` rows in insertion order: each writer holds
    a key of ``(g, k)`` at most once, and the reader's two writers
    (``mine``, ``vetted``) share one key space, so the primary key
    refuses nothing; ``theirs`` — hidden from the reader — shares it
    with both, so a key is often polyinstantiated.  ``v = 7`` poisons a
    division."""
    keys = [(g, k) for g in (0, 1) for k in range(6)]
    visible = draw(st.lists(st.sampled_from(keys), unique=True,
                            max_size=10))
    hidden = draw(st.lists(st.sampled_from(keys), unique=True,
                           max_size=10))
    rows = [(draw(st.sampled_from(("mine", "vetted"))), g, k,
             draw(st.sampled_from((1, 2, 7)))) for g, k in visible]
    rows += [("theirs", g, k, 7) for g, k in hidden]
    return draw(st.permutations(rows))


def _in_world(batch_size, rows):
    """``h``, ``o`` and ``u`` loaded alike, and the reader's session:
    rows under the reader's label (some endorsed), under a tag it does
    not hold, and :data:`IN_FILLER` rows no statement asks for."""
    authority = AuthorityState(idgen=SeededIdGenerator(5))
    db = Database(authority, seed=5, batch_size=batch_size)
    owner = authority.create_principal("owner")
    mine = authority.create_tag("mine", owner=owner.id)
    theirs = authority.create_tag("theirs", owner=owner.id)
    vetted = authority.create_tag("vetted", owner=owner.id,
                                  kind="integrity")
    admin = db.connect(IFCProcess(authority, owner.id))
    admin.execute_script(
        "CREATE TABLE h (id INT, g INT, k INT, v INT, PRIMARY KEY (g, k));"
        "CREATE TABLE o (id INT, g INT, k INT, v INT);"
        "CREATE ORDERED INDEX o_gkv ON o (g, k, v);"
        "CREATE TABLE u (id INT, g INT, k INT, v INT);"
        "CREATE TABLE digits (d INT);"
        "INSERT INTO digits VALUES (0), (1), (2), (3), (4), (5), (6), (7), "
        "(8), (9);")
    sessions = {}
    for name, tag, endorsed in (("mine", mine, False), ("vetted", mine, True),
                                ("theirs", theirs, False)):
        process = IFCProcess(authority, owner.id)
        process.add_secrecy(tag.id)
        if endorsed:
            process.endorse(vetted.id)
        sessions[name] = db.connect(process)
    for table in IN_TABLES:
        for i, (writer, g, k, v) in enumerate(rows):
            sessions[writer].execute(
                "INSERT INTO %s VALUES (?, ?, ?, ?)" % table, (i, g, k, v))
        sessions["mine"].execute(
            "INSERT INTO %s SELECT 100 + a.d * 100 + b.d * 10 + c.d, 9, "
            "a.d * 100 + b.d * 10 + c.d, 1 FROM digits a, digits b, "
            "digits c" % table)
    return sessions["mine"], sessions["theirs"]


def _in_observe(session, sql, params):
    """Rowcount and rows with their labels — and, for a SELECT, with
    their integrity labels, read from the drained plan — or the error's
    type and message."""
    try:
        result = session.execute(sql, params)
    except Exception as exc:                    # noqa: BLE001 — observed
        return ("error", type(exc).__name__, str(exc))
    seen = ["ok", result.rowcount, sorted(
        (tuple(row), tuple(sorted(row.label))) for row in result.rows)]
    if sql.startswith("SELECT"):
        db = session.db
        prepared = db.prepare_select(db.parse(sql), sql)
        with session._autocommit():
            ctx = session._context(params, prepared.slot_values)
            seen.append(sorted(
                (values, tuple(sorted(label)), tuple(sorted(ilabel)))
                for batch in prepared.plan.batches(ctx)
                for values, label, ilabel
                in zip(batch.rows(), batch.labels, batch.ilabels)))
    return seen


def _alike(session, sql, params, plan_too=True):
    """``sql`` (``{t}`` the table) observed alike on all three tables;
    ``h`` and ``o`` take the IN probe, ``u`` its filter."""
    seen = {}
    for table, node in IN_TABLES.items():
        text = sql.format(t=table)
        if plan_too:
            plan = "\n".join(row[0] for row in session.execute(
                "EXPLAIN " + text, params).rows)
            assert node in plan, (text, plan)
        seen[table] = _in_observe(session, text, params)
    assert seen["h"] == seen["u"] == seen["o"], (sql, params, seen)
    return seen["u"]


@pytest.mark.parametrize("batch_size", [1, 7, 1024])
@given(rows=_in_rows(), data=st.data())
@settings(max_examples=15, deadline=None)
def test_an_in_list_probe_answers_as_the_unindexed_twin(batch_size, rows,
                                                        data):
    """``g = ? AND k IN (…)`` through a hash key, through an ordered
    prefix and through a filter over the same rows: the same rows,
    labels, integrity labels, rowcount, error type and message — for a
    SELECT, an UPDATE and a DELETE, and a division that a hidden row's
    ``v = 7`` would poison.  Under the reader's statements lie versions
    it deleted and updated while another session's snapshot keeps the
    old ones, hidden rows sharing its keys, and rows it moved to other
    keys in its own open transaction."""
    reader, hidden = _in_world(batch_size, rows)
    pinning = hidden                        # its snapshot keeps versions
    pinning.begin()
    pinning.execute("SELECT COUNT(*) FROM u")
    mine = [i for i, row in enumerate(rows) if row[0] != "theirs"]
    for table in IN_TABLES:
        for i in mine[0::4]:
            reader.execute("DELETE FROM %s WHERE id = ?" % table, (i,))
        for i in mine[1::4]:
            reader.execute("UPDATE %s SET v = v + 1 WHERE id = ?" % table,
                           (i,))
    reader.begin()
    for table in IN_TABLES:
        for i in mine[2::4]:
            reader.execute("UPDATE %s SET k = k + 10 WHERE id = ?" % table,
                           (i,))
    for form in ("SELECT id, g, k, v FROM {t} WHERE g = ? AND %s",
                 "UPDATE {t} SET v = v + 100 WHERE g = ? AND %s",
                 "DELETE FROM {t} WHERE g = ? AND %s",
                 "SELECT id, g, k, 100 / (v - 7) FROM {t} WHERE g = ? "
                 "AND %s"):
        items, params = data.draw(_in_list())
        g = data.draw(st.sampled_from((0, 1)))
        _alike(reader, form % items, (g,) + params)
        if not form.startswith("SELECT"):
            _alike(reader, "SELECT id, g, k, v FROM {t} WHERE g < 9", (),
                   plan_too=False)
    reader.rollback()
    pinning.commit()


def test_a_long_list_on_a_small_table_takes_the_full_scan():
    """Each listed key costs a probe: on a ten-row table four keys take
    the primary key, eleven the scan."""
    session = Database(AuthorityState(idgen=SeededIdGenerator(5)),
                       seed=5).connect()
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(10):
        session.execute("INSERT INTO t VALUES (?, ?)", (i, i))

    def plan(items):
        return [row[0].split("  (")[0] for row in session.execute(
            "EXPLAIN SELECT id, v FROM t WHERE id IN (%s)"
            % ", ".join(map(str, items))).rows]

    assert plan([3, 1, 4, 1]) == [
        "Project [id, v]",
        "  IndexScan t using t_t_pkey_idx (id IN (3, 1, 4, 1))"]
    assert plan(range(11)) == [
        "Project [id, v]",
        "  Scan t filter (id IN (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10))"]
    assert [row[0] for row in session.execute(
        "SELECT id FROM t WHERE id IN (3, 1, 4, 1, NULL, 2.5)").rows] \
        == [1, 3, 4]
