"""Triggers (section 5.2.3): ordinary, closure, and deferred timing."""

import pytest

from repro.core import INTEGRITY, IFCProcess, Label
from repro.db import SERIALIZABLE, Database
from repro.db.catalog import AFTER, BEFORE, DEFERRED
from repro.errors import (
    CatalogError,
    CheckViolation,
    ClearanceError,
    IFCViolation,
    TypeError_,
)


@pytest.fixture
def world(authority, db):
    alice = authority.create_principal("alice")
    tag = authority.create_tag("alice_tag", owner=alice.id)
    admin = db.connect(IFCProcess(authority, alice.id))
    admin.execute("CREATE TABLE Audit (n INT PRIMARY KEY, what TEXT)")
    admin.execute("CREATE TABLE Data (x INT PRIMARY KEY, y INT)")
    return authority, db, alice, tag


class TestBeforeTriggers:
    def test_before_trigger_can_modify_row(self, world):
        _authority, db, _alice, _tag = world

        def double(ctx):
            return {"y": ctx.new["y"] * 2}

        db.create_trigger("double_y", "Data", "insert", BEFORE, double)
        session = db.connect()
        session.execute("INSERT INTO Data VALUES (1, 21)")
        assert session.execute(
            "SELECT y FROM Data WHERE x = 1").scalar() == 42

    def test_before_trigger_can_veto(self, world):
        _authority, db, *_ = world

        def veto(ctx):
            if ctx.new["y"] < 0:
                raise CheckViolation("negative y")

        db.create_trigger("no_negative", "Data", "insert", BEFORE, veto)
        session = db.connect()
        with pytest.raises(CheckViolation):
            session.execute("INSERT INTO Data VALUES (1, -1)")


class TestOrdinaryTriggers:
    def test_ordinary_trigger_runs_with_caller_label(self, world):
        """An ordinary trigger's writes carry the firing statement's
        label — it cannot leak what the caller couldn't."""
        authority, db, alice, tag = world
        fired = []

        def audit(ctx):
            fired.append(ctx.acting.label)
            ctx.session.insert("Audit", n=len(fired), what="insert")

        db.create_trigger("audit_ins", "Data", "insert", AFTER, audit)
        process = IFCProcess(authority, alice.id)
        session = db.connect(process)
        process.add_secrecy(tag.id)
        session.execute("INSERT INTO Data VALUES (1, 1)")
        assert fired == [Label([tag.id])]
        # The audit row was written under the same label.
        audit_row = next(db.catalog.get_table("Audit").all_versions())
        assert audit_row.label == Label([tag.id])

    def test_trigger_sees_old_and_new(self, world):
        _authority, db, *_ = world
        seen = []

        def watch(ctx):
            seen.append((ctx.old["y"], ctx.new["y"]))

        db.create_trigger("watch_upd", "Data", "update", AFTER, watch)
        session = db.connect()
        session.execute("INSERT INTO Data VALUES (1, 10)")
        session.execute("UPDATE Data SET y = 20 WHERE x = 1")
        assert seen == [(10, 20)]

    def test_delete_trigger(self, world):
        _authority, db, *_ = world
        deleted = []

        def on_delete(ctx):
            deleted.append(ctx.old["x"])

        db.create_trigger("on_del", "Data", "delete", AFTER, on_delete)
        session = db.connect()
        session.execute("INSERT INTO Data VALUES (7, 0)")
        session.execute("DELETE FROM Data WHERE x = 7")
        assert deleted == [7]


class TestClosureTriggers:
    def test_closure_contamination_is_isolated(self, world):
        """Section 8.2.2: closure triggers read sensitive data 'without
        contaminating the process performing the insert'."""
        authority, db, alice, tag = world
        closure_principal = authority.create_principal("closure")
        authority.delegate(tag.id, alice.id, closure_principal.id)

        def snoop(ctx):
            ctx.add_secrecy(tag.id)      # contaminate the trigger context
            assert tag.id in ctx.acting.label

        db.create_trigger("snoop", "Data", "insert", AFTER, snoop,
                          closure_principal=closure_principal.id)
        process = IFCProcess(authority, alice.id)
        session = db.connect(process)
        session.execute("INSERT INTO Data VALUES (1, 1)")
        assert len(process.label) == 0          # firing process untouched

    def test_closure_can_declassify_with_bound_authority(self, world):
        authority, db, alice, tag = world
        closure_principal = authority.create_principal("closure")
        authority.delegate(tag.id, alice.id, closure_principal.id)
        wrote = []

        def launder(ctx):
            # Statement label is {alice_tag}; the closure declassifies it
            # and writes a public audit record.
            ctx.declassify(tag.id)
            ctx.session.insert("Audit", n=1, what="summary")
            wrote.append(True)

        db.create_trigger("launder", "Data", "insert", AFTER, launder,
                          closure_principal=closure_principal.id)
        process = IFCProcess(authority, alice.id)
        session = db.connect(process)
        # The commit-label rule applies to the closure's public write
        # too, so the process must lower its label before COMMIT —
        # exactly how CarTel's ingest daemon behaves (section 8.2.2).
        session.execute("BEGIN")
        process.add_secrecy(tag.id)
        session.execute("INSERT INTO Data VALUES (1, 1)")
        process.declassify(tag.id)
        session.commit()
        assert wrote
        audit_row = next(db.catalog.get_table("Audit").all_versions())
        assert len(audit_row.label) == 0

    def test_closure_without_authority_cannot_declassify(self, world):
        authority, db, alice, tag = world
        closure_principal = authority.create_principal("weak-closure")

        def try_declassify(ctx):
            ctx.declassify(tag.id)

        db.create_trigger("weak", "Data", "insert", AFTER, try_declassify,
                          closure_principal=closure_principal.id)
        process = IFCProcess(authority, alice.id)
        session = db.connect(process)
        process.add_secrecy(tag.id)
        from repro.errors import AuthorityError
        with pytest.raises(AuthorityError):
            session.execute("INSERT INTO Data VALUES (1, 1)")


class TestDeferredTriggers:
    def test_deferred_runs_at_commit_with_statement_label(self, world):
        """Section 5.2.3: deferred triggers run with the label of the
        *query*, not the commit label."""
        authority, db, alice, tag = world
        observed = []

        def deferred(ctx):
            observed.append(ctx.acting.label)

        db.create_trigger("dfr", "Data", "insert", DEFERRED, deferred)
        process = IFCProcess(authority, alice.id)
        session = db.connect(process)
        session.execute("BEGIN")
        process.add_secrecy(tag.id)
        session.execute("INSERT INTO Data VALUES (1, 1)")
        process.declassify(tag.id)          # commit label will be {}
        assert observed == []                # not yet fired
        session.commit()
        assert observed == [Label([tag.id])]   # statement label preserved

    def test_deferred_failure_aborts_transaction(self, world):
        _authority, db, *_ = world

        def explode(ctx):
            raise CheckViolation("deferred check failed")

        db.create_trigger("boom", "Data", "insert", DEFERRED, explode)
        session = db.connect()
        session.execute("BEGIN")
        session.execute("INSERT INTO Data VALUES (1, 1)")
        with pytest.raises(CheckViolation):
            session.commit()
        assert session.execute("SELECT COUNT(*) FROM Data").scalar() == 0


class TestOneLabelHolder:
    """Statements, triggers, closures and the label iterator all run
    under one kind of holder, an ``IFCProcess``."""

    def test_closure_procedure_sees_its_principal_wherever_called(
            self, world):
        """A stored authority closure runs with its bound principal —
        called directly, from a closure trigger, or from inside the
        per-tuple label iterator."""
        authority, db, alice, _tag = world
        bound = authority.create_principal("procedure")
        seen = []
        db.create_procedure(
            "whoami", lambda session: seen.append(session.acting.principal),
            closure_principal=bound.id)
        db.create_trigger(
            "call_whoami", "Data", "insert", AFTER,
            lambda ctx: ctx.session.call("whoami"),
            closure_principal=authority.create_principal("trigger").id)
        process = IFCProcess(authority, alice.id)
        session = db.connect(process)
        session.call("whoami")
        session.execute("INSERT INTO Data VALUES (1, 1)")
        session.for_each_with_label("SELECT x FROM Data",
                                    lambda row, s: s.call("whoami"))
        assert seen == [bound.id] * 3
        assert process.principal == alice.id     # restored afterwards

    def test_plain_trigger_on_internal_session_raises_its_label(self, world):
        """An internal session's holder has a label like any process:
        an ordinary trigger's ``add_secrecy`` lands on it."""
        _authority, db, _alice, tag = world
        db.create_trigger("taint", "Data", "insert", AFTER,
                          lambda ctx: ctx.add_secrecy(tag.id))
        session = db.connect()
        session.execute("BEGIN")
        session.execute("INSERT INTO Data VALUES (1, 1)")
        assert session.label == Label([tag.id])
        assert session.acting.principal is None
        session.rollback()

    def test_closure_trigger_refuses_an_integrity_tag_as_secrecy(
            self, world):
        authority, db, alice, _tag = world
        vouched = authority.create_tag("vouched", owner=alice.id,
                                       kind=INTEGRITY)
        db.create_trigger(
            "mislabel", "Data", "insert", AFTER,
            lambda ctx: ctx.add_secrecy(vouched.id),
            closure_principal=authority.create_principal("closure").id)
        session = db.connect(IFCProcess(authority, alice.id))
        with pytest.raises(IFCViolation):
            session.execute("INSERT INTO Data VALUES (1, 1)")
        assert session.execute("SELECT COUNT(*) FROM Data").scalar() == 0

    def test_closure_on_internal_session_keeps_its_label_change(self, world):
        """The label is shared with the caller, as for a process session;
        only the principal is swapped and restored."""
        _authority, db, alice, tag = world
        db.create_procedure(
            "taint", lambda session: session.acting.add_secrecy(tag.id),
            closure_principal=alice.id)
        session = db.connect()
        session.call("taint")
        assert session.label == Label([tag.id])
        assert session.acting.principal is None


@pytest.mark.parametrize("events, timing", [
    ("UPDATE", BEFORE),            # events are lowercase
    ("update", "BEFORE"),
    ("truncate", AFTER),
    (("insert", "upsert"), AFTER),
    ((), AFTER),
])
def test_unknown_event_or_timing_is_rejected(world, events, timing):
    """A trigger that could never fire is refused when it is created."""
    _authority, db, _alice, _tag = world
    with pytest.raises(CatalogError):
        db.create_trigger("never", "Data", events, timing, lambda ctx: None)
    assert "never" not in db.catalog.triggers


class TestClearanceInPushedHolders:
    """Section 5.1's clearance rule covers every holder a session pushes,
    not only its root: inside a SERIALIZABLE transaction a closure
    trigger, a deferred trigger or the label iterator may raise a label
    only with a tag its principal has authority for."""

    @pytest.fixture
    def secret(self, world):
        authority = world[0]
        bob = authority.create_principal("bob")
        return authority.create_tag("bob_tag", owner=bob.id)

    def test_closure_trigger(self, world, secret):
        authority, db, alice, _tag = world
        db.create_trigger("taint", "Data", "insert", AFTER,
                          lambda ctx: ctx.add_secrecy(secret.id),
                          closure_principal=authority.create_principal(
                              "trigger").id)
        session = db.connect(IFCProcess(authority, alice.id))
        session.begin(SERIALIZABLE)
        with pytest.raises(ClearanceError):
            session.execute("INSERT INTO Data VALUES (1, 1)")
        session.rollback()
        session.begin()                         # snapshot isolation
        session.execute("INSERT INTO Data VALUES (1, 1)")
        session.commit()
        assert session.label == Label()

    def test_deferred_trigger(self, world, secret):
        authority, db, alice, _tag = world
        db.create_trigger("taint_at_commit", "Data", "insert", DEFERRED,
                          lambda ctx: ctx.add_secrecy(secret.id))
        session = db.connect(IFCProcess(authority, alice.id))
        session.begin(SERIALIZABLE)
        session.execute("INSERT INTO Data VALUES (1, 1)")
        with pytest.raises(ClearanceError):
            session.commit()
        assert session.transaction is None      # the commit aborted
        assert session.execute("SELECT COUNT(*) FROM Data").scalar() == 0
        session.begin()
        session.execute("INSERT INTO Data VALUES (1, 1)")
        session.commit()
        assert session.execute("SELECT COUNT(*) FROM Data").scalar() == 1

    def test_label_iterator(self, world, secret):
        authority, db, alice, tag = world
        session = db.connect(IFCProcess(authority, alice.id))
        session.execute("INSERT INTO Data VALUES (1, 1)")
        session.begin(SERIALIZABLE)
        with pytest.raises(ClearanceError):
            session.for_each_with_label(
                "SELECT x FROM Data",
                lambda row, scoped: scoped.acting.add_secrecy(secret.id))
        with pytest.raises(ClearanceError):
            session.for_each_with_label("SELECT x FROM Data",
                                        lambda row, scoped: None,
                                        cover_tags=(secret.id,))
        assert session.for_each_with_label(
            "SELECT x FROM Data", lambda row, scoped: row["x"],
            cover_tags=(tag.id,)) == [1]        # alice's own tag
        session.rollback()

    def test_a_holder_answers_only_while_it_acts(self, world, secret):
        """The root stays attached after a trigger pushes it again; a
        fresh holder is detached once its push ends."""
        authority, db, alice, _tag = world
        held = []
        db.create_trigger("keep", "Data", "insert", AFTER,
                          lambda ctx: held.append(ctx.acting))
        db.create_trigger("keep_closure", "Data", "insert", AFTER,
                          lambda ctx: held.append(ctx.acting),
                          closure_principal=alice.id)
        process = IFCProcess(authority, alice.id)
        session = db.connect(process)
        session.begin(SERIALIZABLE)
        session.execute("INSERT INTO Data VALUES (1, 1)")
        root, pushed = held
        assert root is process and pushed is not process
        with pytest.raises(ClearanceError):
            process.add_secrecy(secret.id)
        pushed.add_secrecy(secret.id)
        session.rollback()


@pytest.fixture(params=[None, 7], ids=["default", "batch7"])
def typed(request, authority):
    """A trigger-less table with a NOT NULL and an INT column, at the
    default batch size and at 7."""
    kwargs = {} if request.param is None else {"batch_size": request.param}
    db = Database(authority, seed=12345, **kwargs)
    session = db.connect()
    session.execute(
        "CREATE TABLE Typed (x INT PRIMARY KEY, name TEXT NOT NULL, n INT)")
    session.execute("INSERT INTO Typed VALUES (1, 'a', 1)")
    return db, session


class TestTriggersAndTheWriteShortcuts:
    """A write probes the live catalog for triggers, and an UPDATE a
    BEFORE trigger rewrote is coerced in full."""

    @pytest.mark.parametrize("rewrite", [{"name": None},
                                         {"n": "not a number"}],
                             ids=["null", "wrong_type"])
    def test_a_before_trigger_rewriting_an_unassigned_column_is_checked(
            self, typed, rewrite):
        db, session = typed
        db.create_trigger("rewrite", "Typed", "update", BEFORE,
                          lambda ctx: rewrite)
        with pytest.raises(TypeError_):
            session.execute("UPDATE Typed SET x = 1 WHERE x = 1")
        assert session.execute("SELECT * FROM Typed").first() == [1, "a", 1]

    def test_a_before_trigger_rewriting_an_unassigned_column_is_coerced(
            self, typed):
        db, session = typed
        db.create_trigger("rewrite", "Typed", "update", BEFORE,
                          lambda ctx: {"n": "5"})
        session.execute("UPDATE Typed SET name = 'b' WHERE x = 1")
        value = session.execute("SELECT n FROM Typed").scalar()
        assert value == 5 and type(value) is int

    @pytest.mark.parametrize("event, sql", [
        ("insert", "INSERT INTO Typed VALUES (?, 'b', 0)"),
        ("update", "UPDATE Typed SET n = ? WHERE x = 1"),
    ])
    def test_a_trigger_created_after_the_plan_fires_on_its_next_run(
            self, typed, event, sql):
        db, session = typed
        statement = db.parse(sql)
        session.execute(sql, (2,))
        prepared = db._prepare(statement, sql)      # the cached plan
        fired = []
        db.create_trigger("seen", "Typed", event, AFTER,
                          lambda ctx: fired.append(ctx.event))
        with session.atomic():
            if event == "insert":
                session._execute_insert(statement, prepared, (3,))
            else:
                session._execute_dml(statement, prepared, (3,))
        session.execute(sql, (4,))                  # and through execute
        assert fired == [event, event]
