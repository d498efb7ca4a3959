"""Database sessions: statement execution under Query by Label.

A :class:`Session` binds a database to an :class:`~repro.core.process.IFCProcess`.
Every statement runs under the process on top of the session's acting
stack (normally the session's own process; closure and deferred triggers
and the per-tuple label iterator push isolated ones, see
:mod:`repro.db.triggers`).  The session enforces, per section 4.2:

* SELECT returns only tuples whose labels are covered by the acting label
  (done in the scan nodes);
* INSERT writes tuples with *exactly* the acting label;
* UPDATE/DELETE affect only tuples whose labels equal the acting label —
  a visible lower-labelled tuple makes the statement fail, an invisible
  tuple is simply unaffected;
* COMMIT checks the transaction commit label against the write set
  (section 5.1), after running deferred triggers with their statement
  labels (section 5.2.3).

Every row an INSERT, UPDATE or DELETE writes goes through one method,
:meth:`Session._write`: the write rule and the first-committer check,
BEFORE triggers, type coercion, :func:`repro.db.constraints.check_write`
(everything section 5.2 asks of the row), the heap write, and AFTER and
DEFERRED triggers — in that order, whatever the statement.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional, Sequence, Tuple

from ..core.counters import tally
from ..core.labels import EMPTY_LABEL, Label
from ..core.process import IFCProcess
from ..core.rules import same_contamination
from ..errors import (
    CatalogError,
    DatabaseError,
    IFCViolation,
    SerializationError,
    TransactionError,
)
from ..sql import ast
from . import constraints
from .catalog import AFTER, BEFORE, DEFERRED, DELETE, INSERT, UPDATE
from .physical import DeterministicOrder, ExecContext
from .transactions import SERIALIZABLE, SNAPSHOT
from .triggers import fire_triggers

#: What ``Session._autocommit`` returns inside an open transaction.
_IN_TRANSACTION = contextlib.nullcontext()


class Row:
    """One result row: positional and by-name access, plus its label."""

    __slots__ = ("_values", "_columns", "label")

    def __init__(self, values: Sequence, columns: dict, label: Label):
        self._values = values
        self._columns = columns
        self.label = label

    def __getitem__(self, key):
        if isinstance(key, str):
            return self._values[self._columns[key]]
        return self._values[key]

    def get(self, key, default=None):
        try:
            return self[key]
        except (KeyError, IndexError):
            return default

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)

    def keys(self):
        return self._columns.keys()

    def as_dict(self) -> dict:
        return {name: self._values[i] for name, i in self._columns.items()}

    def __eq__(self, other):
        if isinstance(other, Row):
            return list(self._values) == list(other._values)
        if isinstance(other, (tuple, list)):
            return list(self._values) == list(other)
        return NotImplemented

    def __repr__(self):
        return "Row(%r)" % (self.as_dict(),)


class Result:
    """The outcome of one statement."""

    def __init__(self, columns: Optional[List[str]] = None,
                 rows: Optional[List[Row]] = None, rowcount: int = 0):
        self.columns = columns or []
        self.rows = rows or []
        self.rowcount = rowcount

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def first(self) -> Optional[Row]:
        return self.rows[0] if self.rows else None

    def scalar(self):
        """The single value of a single-row, single-column result."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def __repr__(self):
        return "Result(columns=%r, rows=%d)" % (self.columns, len(self.rows))


class Session:
    """A connection to the database, bound to an IFC process."""

    def __init__(self, db, process=None):
        self.db = db
        self.process = process
        # The root holder: the process, or a detached one with no authority.
        root = IFCProcess(db.authority, None) if process is None else process
        root.attach_session(self)
        self._acting_stack: List[IFCProcess] = [root]
        self.transaction = None

    # ------------------------------------------------------------------
    # the acting holder
    # ------------------------------------------------------------------
    @property
    def acting(self) -> IFCProcess:
        return self._acting_stack[-1]

    @contextlib.contextmanager
    def acting_as(self, acting: IFCProcess):
        # A pushed holder answers to this session's clearance rule while
        # it acts, like the root: its raises land in this transaction.
        attached = acting.attach_session(self)
        self._acting_stack.append(acting)
        try:
            yield
        finally:
            self._acting_stack.pop()
            if attached:
                acting.detach_session(self)

    @property
    def label(self) -> Label:
        if not self.db.ifc_enabled:
            return EMPTY_LABEL
        return self.acting.label

    def requires_clearance(self) -> bool:
        """Does the clearance rule (section 5.1) currently apply?"""
        return (self.db.ifc_enabled and self.transaction is not None
                and self.transaction.isolation == SERIALIZABLE)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin(self, isolation: Optional[str] = None) -> None:
        if self.transaction is not None:
            raise TransactionError("a transaction is already open")
        self.transaction = self.db.txn_manager.begin(isolation or SNAPSHOT)

    def commit(self) -> None:
        """Run deferred actions, check the commit label, log, and commit.

        Ordering is the durability contract: the transaction's WAL
        record must be durable (written *and* fsynced — see
        ``db/wal.py``) before ``txn_manager.commit`` acknowledges it.
        Any failure in that chain — deferred action, commit-label rule,
        torn log write, refused fsync — aborts the transaction, so a
        commit the client was never told about can't survive a crash
        and a crash can't surface a commit the client saw fail.
        """
        txn = self.transaction
        if txn is None:
            raise TransactionError("no transaction to commit")
        try:
            for action in txn.deferred:
                action()
            if self.db.ifc_enabled:
                self.db.txn_manager.check_commit_label(
                    txn, self.label, self.db.authority.tags)
            self.db._wal_log_commit(txn)
        except BaseException:
            self.db.txn_manager.abort(txn)
            self.transaction = None
            raise
        self.db.txn_manager.commit(txn)
        self.transaction = None

    def rollback(self) -> None:
        txn = self.transaction
        if txn is None:
            raise TransactionError("no transaction to roll back")
        self.db.txn_manager.abort(txn)
        self.transaction = None

    def _autocommit(self):
        """Wrap a statement in an implicit transaction when none is open.

        Inside an open transaction this is the one shared no-op context:
        an in-transaction statement enters no generator."""
        if self.transaction is not None:
            return _IN_TRANSACTION
        return self.atomic()

    @contextlib.contextmanager
    def atomic(self, isolation: Optional[str] = None):
        """A transaction as a context manager: commit on exit, roll back
        on an exception."""
        self.begin(isolation)
        try:
            yield self
        except BaseException:
            if self.transaction is not None:
                self.rollback()
            raise
        else:
            self.commit()

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Sequence = ()) -> Result:
        """Parse (cached), plan (cached), and execute one statement."""
        statement = self.db.parse(sql)
        return self.execute_statement(statement, tuple(params), sql=sql)

    def execute_script(self, sql: str) -> None:
        """Execute a semicolon-separated batch (DDL convenience)."""
        for statement in self.db.parse_script(sql):
            self.execute_statement(statement, ())

    def query(self, sql: str, params: Sequence = ()) -> List[Row]:
        return self.execute(sql, params).rows

    def execute_statement(self, statement, params: Tuple,
                          sql: Optional[str] = None) -> Result:
        tally().statements_executed += 1
        db = self.db
        # SELECT/INSERT/UPDATE/DELETE are *tracked*: the engine diffs a
        # counter read around each one (statement stats, slow-query
        # log, per-statement audit attribution).  Everything else —
        # transaction control, DDL, EXPLAIN — runs untracked.
        try:
            if isinstance(statement, ast.Select):
                track = db._begin_statement()
                result = self._execute_select(
                    db.prepare_select(statement, sql), params)
            elif isinstance(statement, ast.Insert):
                track = db._begin_statement()
                with self._autocommit():
                    result = self._execute_insert(
                        statement, db.prepare_insert(statement, sql), params)
            elif isinstance(statement, (ast.Update, ast.Delete)):
                track = db._begin_statement()
                with self._autocommit():
                    result = self._execute_dml(
                        statement, db.prepare_dml(statement, sql), params)
            else:
                return self._execute_other(statement, params, sql)
        except IFCViolation as error:
            # Write-rule / commit-label denial: IFC audit trail.
            db._audit_denial(statement, error)
            raise
        db._finish_statement(track, statement, result.rowcount)
        return result

    def _execute_other(self, statement, params: Tuple,
                       sql: Optional[str]) -> Result:
        """The untracked statement forms (see ``execute_statement``)."""
        if isinstance(statement, ast.Begin):
            self.begin(statement.isolation)
            return Result()
        if isinstance(statement, ast.Commit):
            self.commit()
            return Result()
        if isinstance(statement, ast.Rollback):
            self.rollback()
            return Result()
        if isinstance(statement, ast.Call):
            return self._execute_call(statement, params)
        if isinstance(statement, ast.Vacuum):
            self.db.vacuum(statement.table)
            return Result()
        if isinstance(statement, ast.Analyze):
            self.db.analyze(statement.table)
            return Result()
        if isinstance(statement, ast.Explain):
            return self._execute_explain(statement, params)
        # DDL is delegated to the engine.
        return self.db.execute_ddl(self, statement)

    def _execute_explain(self, statement: ast.Explain,
                         params: Tuple = ()) -> Result:
        """EXPLAIN [ANALYZE]: render the plan the engine would execute,
        one operator per row.

        Plain EXPLAIN runs nothing, so results carry empty labels.  The
        plan's shape and its estimates are declared high: a heap's row
        count counts every version, whatever its label, so a plan may
        differ between databases that differ only in hidden tuples — a
        documented channel, like timing (section 7.3; ARCHITECTURE.md,
        "Low and high").  EXPLAIN ANALYZE executes the statement
        (discarding its rows; DML applies its writes exactly once) and
        annotates each operator with its rows, its time and its low
        counters only: for a given plan, nothing else it prints depends
        on hidden tuples.

        Both plan the text the way it runs, as every text of its plan
        key (``Database.generic``), and print its own literals."""
        inner = self.db.generic(statement).statement
        if statement.analyze:
            lines = self._explain_analyze(
                inner, getattr(statement, "slot_values", ()), params)
        else:
            lines = self.db.explain(inner)
        columns = {"QUERY PLAN": 0}
        rows = [Row([line], columns, EMPTY_LABEL) for line in lines]
        return Result(["QUERY PLAN"], rows, len(rows))

    def _explain_analyze(self, inner, slot_values: Tuple,
                         params: Tuple) -> List[str]:
        """Execute ``inner`` — with the literals ``slot_values`` in its
        slots — under per-operator instrumentation.

        The recorder clones the plan tree and wraps each node in a
        probe (the original is never mutated), executes the statement
        through the probes — the *same* session code paths as a plain
        execution, so DML side effects happen exactly once — and
        renders the original tree annotated with actuals.
        """
        from .metrics import PlanRecorder
        recorder = PlanRecorder()
        if not isinstance(inner, (ast.Select, ast.Update, ast.Delete)):
            raise DatabaseError(
                "EXPLAIN ANALYZE supports SELECT, UPDATE, and DELETE, "
                "not %s" % type(inner).__name__)
        prepared = self.db.plan_afresh(inner)
        prepared.slot_values = slot_values
        probe = recorder.instrument(prepared.plan)
        if isinstance(inner, ast.Select):
            recorder.start()
            self._execute_select(prepared, params, plan=probe)
            recorder.finish()
            return recorder.render(prepared.plan)
        with self._autocommit():
            recorder.start()
            result = self._execute_dml(inner, prepared, params, plan=probe)
            recorder.finish()
        head = "%s %s  (actual rows=%d)" % (
            type(inner).__name__, inner.table, result.rowcount)
        return ([head] + recorder.render_plan(prepared.plan, indent=1)
                + recorder.render_summary())

    def _context(self, params: Tuple, slot_values: Tuple = ()) -> ExecContext:
        acting = self._acting_stack[-1]
        if self.db.ifc_enabled:
            label, ilabel = acting.label, acting.integrity_label
        else:
            label = ilabel = EMPTY_LABEL
        return ExecContext(self, params, label, ilabel, acting.principal,
                           slot_values)

    # -- SELECT -----------------------------------------------------------
    def _execute_select(self, prepared, params: Tuple, plan=None) -> Result:
        # ``plan`` overrides the prepared plan (EXPLAIN ANALYZE passes
        # the instrumented copy), as for UPDATE and DELETE.
        if plan is None:
            plan = prepared.plan
        if self.db.deterministic_order:
            plan = DeterministicOrder(plan)
        with self._autocommit():
            ctx = self._context(params, prepared.slot_values)
            columns = prepared.column_map
            rows = [Row(values, columns, label)
                    for batch in plan.batches(ctx)
                    for values, label in zip(batch.rows(), batch.labels)]
        return Result(list(prepared.columns), rows, len(rows))

    # -- INSERT -----------------------------------------------------------
    def _execute_insert(self, statement: ast.Insert, prepared,
                        params: Tuple) -> Result:
        table = prepared.table
        positions = prepared.target_positions
        declassifying = self.db.resolve_tag_label(statement.declassifying)
        ctx = self._context(params, prepared.slot_values)

        if prepared.select is not None:
            sources = [values
                       for batch in prepared.select.plan.batches(ctx)
                       for values in batch.rows()]
        else:
            sources = [[fn([], ctx) for fn in row]
                       for row in prepared.row_fns]
        for source in sources:
            if len(source) != len(positions):
                raise DatabaseError(
                    "INSERT expects %d values, got %d"
                    % (len(positions), len(source)))
            full = list(prepared.defaults)
            for position, value in zip(positions, source):
                full[position] = value
            self._write(table, None, tuple(full), ctx, declassifying)
        return Result(rowcount=len(sources))

    def insert(self, table_name: str, declassifying: Sequence[str] = (),
               **column_values) -> None:
        """Programmatic insert convenience (keyword columns)."""
        table = self.db.catalog.get_table(table_name)
        schema = table.schema
        full = []
        for column in schema.columns:
            if column.name in column_values:
                full.append(column_values.pop(column.name))
            elif column.has_default:
                full.append(column.default)
            else:
                full.append(None)
        if column_values:
            raise CatalogError("unknown columns %r for table %s"
                               % (sorted(column_values), table_name))
        with self._autocommit():
            self._write(table, None, tuple(full), self._context(()),
                        self.db.resolve_tag_label(declassifying))

    # -- UPDATE and DELETE ------------------------------------------------
    def _execute_dml(self, statement, prepared, params: Tuple,
                     plan=None) -> Result:
        """UPDATE, and DELETE — a DML statement with no assignments.

        ``plan`` overrides the target enumeration (EXPLAIN ANALYZE
        passes the instrumented copy); every row still goes through
        :meth:`_write`, so an analyzed statement applies its writes
        exactly once."""
        table = self.db.catalog.get_table(statement.table)
        if plan is None:
            plan = prepared.plan
        ctx = self._context(params, prepared.slot_values)
        delete = isinstance(statement, ast.Delete)
        targets = list(plan.versions(ctx))
        for version in targets:
            values = None
            if not delete:
                row = list(version.values) + [version.label]
                new = list(version.values)
                for position, fn in prepared.assignments:
                    new[position] = fn(row, ctx)
                values = tuple(new)
            self._write(table, version, values, ctx, EMPTY_LABEL,
                        prepared.assigned)
        return Result(rowcount=len(targets))

    # -- the one row write ------------------------------------------------
    def _write(self, table, old, values: Optional[Tuple], ctx: ExecContext,
               declassifying: Label, assigned: Optional[Tuple] = None
               ) -> None:
        """Write one row: ``old`` is the version an UPDATE replaces or a
        DELETE removes (``None`` for an INSERT), ``values`` the row an
        INSERT or UPDATE writes (``None`` for a DELETE), ``assigned``
        the positions an UPDATE's SET list assigns.

        In order: the write rule and the first-committer check on
        ``old``; BEFORE triggers; coercion; :func:`constraints.check_write`;
        the heap write; the write set and the ``rows_*`` tally; AFTER
        and DEFERRED triggers.  The row is written under the
        statement's label (``ctx``), which is also the label its
        triggers run with (section 5.2.3).

        A table with no triggers (read from the live catalog, not the
        plan) runs no trigger code at all.  An UPDATE no BEFORE trigger
        rewrote coerces only its ``assigned`` columns: the rest of the
        row is a stored version that already passed ``coerce_row``."""
        db = self.db
        txn = self.transaction
        label = ctx.read_label
        if old is None:
            event = INSERT
        else:
            event = UPDATE if values is not None else DELETE
            if db.ifc_enabled and not same_contamination(
                    db.authority.tags, old.label, label):
                raise IFCViolation(
                    "%s on %s would %s a tuple with label %r; the acting "
                    "label is %r (write rule, section 4.2)"
                    % (event.upper(), table.name,
                       "modify" if values is not None else "remove",
                       old.label, label))
            if db.txn_manager.delete_conflicts(old, txn):
                raise SerializationError(
                    "concurrent %s detected on %s (first committer wins)"
                    % (event, table.name))
        triggers = db.catalog.triggers_on(table.name)
        if triggers:
            old_values = None if old is None else old.values
            row = values
            values = fire_triggers(db, self, table, event, BEFORE,
                                   old_values, values, label)
            if values is not row:       # a BEFORE trigger rewrote it
                assigned = None
        if values is not None:
            values = (table.schema.coerce_row(values) if assigned is None
                      else table.schema.coerce_at(values, assigned))
        constraints.check_write(ctx, table, old, values, declassifying)
        if values is None:
            table.stamp(old, txn.xid)
            txn.record_write(table, old.tid, old.label, event)
            tally().rows_deleted += 1
        elif old is None:
            version = table.append(values, label, ctx.read_ilabel, txn.xid)
            txn.record_write(table, version.tid, version.label, event)
            tally().rows_inserted += 1
        else:
            table.stamp(old, txn.xid)
            version = table.append(values, old.label, old.ilabel, txn.xid)
            txn.record_write(table, version.tid, version.label, event,
                             prev_tid=old.tid)
            tally().rows_updated += 1
        if triggers:
            fire_triggers(db, self, table, event, AFTER, old_values, values,
                          label)
            fire_triggers(db, self, table, event, DEFERRED, old_values,
                          values, label)

    # -- stored procedures ---------------------------------------------------
    def _execute_call(self, statement: ast.Call, params: Tuple) -> Result:
        from .expressions import Scope
        compiler = self.db.planner.compiler(Scope())
        ctx = self._context(params)
        args = [compiler.compile(a)([], ctx) for a in statement.args]
        value = self.call(statement.name, *args)
        return Result(columns=["result"],
                      rows=[Row([value], {"result": 0}, EMPTY_LABEL)],
                      rowcount=1)

    def call(self, procedure_name: str, *args):
        """Invoke a stored procedure (section 4.3).

        Ordinary procedures run with the caller's authority; stored
        authority closures run with their bound principal's authority.
        Either way the label is the acting holder's: a label change
        inside the call stays on it.
        """
        proc = self.db.catalog.get_procedure(procedure_name)
        if proc.closure_principal is None:
            return proc.fn(self, *args)
        return self.acting.with_reduced_authority(
            proc.closure_principal, proc.fn, self, *args)

    # -- the per-tuple label iterator (paper section 10, future work) -----
    def for_each_with_label(self, sql: str, fn, params: Sequence = (),
                            cover_tags: Sequence[int] = ()):
        """Handle each selected tuple in its own context with that
        tuple's label.

        The paper's future-work iterator: a computation over many users'
        data often wants to *write back* per-user results under each
        user's own label, without ever mixing contaminations.  The query
        runs under a probe process whose label is raised by
        ``cover_tags`` (typically a compound tag the caller is
        authoritative for); then ``fn(row, scoped_session)`` runs once
        per row under a fresh process carrying exactly that row's label
        and the caller's principal — its writes are labelled per-tuple,
        and nothing contaminates the caller.

        Returns the list of ``fn`` results.
        """
        acting = self.acting
        authority = self.db.authority
        probe = IFCProcess(authority, acting.principal, acting.label,
                           acting.integrity_label)
        with self.acting_as(probe):
            for tag_id in cover_tags:
                probe.add_secrecy(tag_id)
            result = self.execute(sql, params)
        outputs = []
        for row in result.rows:
            scoped = IFCProcess(authority, acting.principal, row.label,
                                acting.integrity_label)
            with self.acting_as(scoped):
                outputs.append(fn(row, self))
        return outputs

    def close(self) -> None:
        if self.transaction is not None:
            self.rollback()
