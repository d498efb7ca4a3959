"""The database engine facade.

:class:`Database` ties everything together: authority state, catalog,
transaction manager, buffer cache, planner, and the statement caches.
It is the analogue of the modified PostgreSQL server of section 7.1.

Two construction-time switches drive the benchmarks:

* ``ifc_enabled=False`` gives the **baseline** ("PostgreSQL"): labels are
  neither stored nor checked, tuple sizes exclude labels, and sessions
  run with an empty label.  Everything else is byte-for-byte the same
  engine, isolating exactly the overhead the paper attributes to IFDB.
* ``buffer_pages``/``io_penalty`` configure the storage model: unbounded
  cache ≈ the paper's in-memory DBT-2 database, a small cache with a
  per-miss penalty ≈ the disk-bound 150-warehouse database.

The package reads exactly two environment variables, both here through
:func:`_env` and both only as the default of a keyword:
``REPRO_BATCH_SIZE`` and ``REPRO_WORK_MEM`` (CI re-runs tier-1 under
each).  Durability and fault injection are keywords only
(``wal=``, ``WriteAheadLog(fault=…)``).  A statement runs on its
caller's thread, in this process.
"""

from __future__ import annotations

import copy
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import counters
from ..core.authority import AuthorityState
from ..core.counters import tally
from ..core.idgen import SeededIdGenerator
from ..core.labels import EMPTY_LABEL, Label
from ..errors import AuthorityError, CatalogError, DatabaseError
from ..sql import ast
from ..sql.lexer import lexemes, shape_key, tokenize
from ..sql.parser import parse_script, parse_statement
from ..sql.template import Template
from .catalog import (
    AFTER,
    BEFORE,
    DEFERRED,
    DELETE,
    INSERT,
    UPDATE,
    Catalog,
    FunctionDef,
    ProcedureDef,
    TriggerDef,
    ViewDef,
)
from .expressions import Scope
from .metrics import Ring, StatementStats
from .pages import BufferCache
from .physical import (
    DEFAULT_BATCH_SIZE,
    explain_plan,
    plan_tables,
)
from .planner import Planner
from .schema import (
    CheckConstraint,
    Column,
    ForeignKeyConstraint,
    LabelCheckConstraint,
    TableSchema,
    UniqueConstraint,
)
from .session import Session
from .storage import Table
from .transactions import TransactionManager
from .types import type_by_name
from . import wal as wal_mod


class PreparedInsert:
    """A planned INSERT: target positions, defaults, compiled sources.

    Either ``row_fns`` (VALUES form: one list of compiled expressions
    per row) or ``select`` (INSERT ... SELECT form) is set.  Compiling
    the value expressions once per statement instead of once per
    execution is a large win for insert-heavy workloads (TPC-C).
    """

    __slots__ = ("table", "target_positions", "defaults", "row_fns",
                 "select", "slot_values")

    def __init__(self, table: Table, target_positions: List[int],
                 defaults: List, row_fns, select):
        self.table = table
        self.target_positions = target_positions
        self.defaults = defaults
        self.row_fns = row_fns
        self.select = select
        self.slot_values = ()


_SPILL_BYTES_CELL = counters.CELLS.index(("spill", "bytes_spilled"))
_SUPPRESSED_CELL = counters.CELLS.index(("labels", "rows_suppressed"))

#: Entries the statement cache and the shape cache may each hold.  A
#: workload of all-distinct texts (inlined literals) would otherwise grow
#: the statement cache one entry per statement until the next DDL.
STATEMENT_CACHE_CAP = 4096


def _cache_put(cache: dict, key, value) -> None:
    """Insert, clearing a full cache first: no recency bookkeeping on
    the hit path, and the few hot texts of a real workload are back
    after one miss each."""
    if len(cache) >= STATEMENT_CACHE_CAP and key not in cache:
        cache.clear()
    cache[key] = value


def _env(name: str, parse: Callable, default):
    """The one reading of a ``REPRO_*`` configuration variable: unset
    or blank is ``default``, anything else must ``parse``."""
    text = os.environ.get(name, "").strip()
    if not text:
        return default
    try:
        return parse(text)
    except ValueError:
        raise ValueError("%s=%r is not a valid %s"
                         % (name, text, parse.__name__)) from None


def _statement_key(statement) -> str:
    """What a statement aggregates under: the fingerprint its parse
    left on it, or its shape for programmatic statements (no text)."""
    return getattr(statement, "fingerprint", None) \
        or "<%s>" % type(statement).__name__


class Database:
    """An IFDB database instance."""

    def __init__(self, authority: Optional[AuthorityState] = None, *,
                 ifc_enabled: bool = True,
                 page_size: int = 8192,
                 buffer_pages: Optional[int] = None,
                 io_penalty: float = 0.0,
                 deterministic_order: bool = False,
                 seed: Optional[int] = None,
                 naive_plans: bool = False,
                 batch_size: Optional[int] = None,
                 work_mem: Optional[int] = None,
                 slow_query_ms: float = 0.0,
                 audit_log: int = 0,
                 wal: Optional[str] = None):
        if authority is None:
            idgen = SeededIdGenerator(seed) if seed is not None else None
            authority = AuthorityState(idgen=idgen)
        self.authority = authority
        self.ifc_enabled = ifc_enabled
        self.page_size = page_size
        self.deterministic_order = deterministic_order
        #: What ``NOW()`` and ``ExecContext.now`` read; assignable.
        self.clock = time.time
        self.catalog = Catalog()
        self.txn_manager = TransactionManager()
        self.buffer_cache = BufferCache(capacity=buffer_pages,
                                        io_penalty=io_penalty)
        # Execution batch size — a chunk size, at least 1: ``None``
        # defers to the REPRO_BATCH_SIZE environment variable (CI runs
        # the whole suite at 1 to prove batch boundaries can't change
        # results), then the built-in default.  Naive mode always runs
        # at 1 (see Optimizer.exec_batch_size).  It is also the slice
        # length whose segment summaries the heaps memoize
        # (Table.segments), since that is the length the scans ask for.
        if batch_size is None:
            batch_size = _env("REPRO_BATCH_SIZE", int, DEFAULT_BATCH_SIZE)
        self.batch_size = max(1, int(batch_size))
        # Per-operator memory budget in bytes for memory-bounded
        # operators (hash-join builds): ``None`` defers to the
        # ``REPRO_WORK_MEM`` environment variable (CI runs a tier-1
        # job at 1024 to force grace spilling everywhere), then
        # unbounded (0).  The executor reads the live value per
        # statement; the optimizer costs expected spilling with it.
        if work_mem is None:
            work_mem = _env("REPRO_WORK_MEM", int, 0)
        self.work_mem = max(0, int(work_mem))
        #: Spill-file fault schedule (``faultinject.SpoolFaults``);
        #: tests install one here, like a fault spec on the WAL.
        self.spill_faults = None
        # ``naive_plans`` forces reference plans (full scans, nested
        # loops, no pushdown, one-row batches) — the
        # differential harness's known-good executor; see
        # Optimizer.naive.
        self.planner = Planner(self.catalog, self.authority.tags,
                               naive=naive_plans,
                               batch_size=self.batch_size,
                               work_mem=self.work_mem)
        # The one statement cache.  Every entry is ``(statement,
        # prepared or None, table_names)``, under one of three keys:
        # a SQL text (``parse`` adds its statement with no plan), a
        # plan key (``sql.template``: the statement every text of the
        # key is planned as, and the plan they share) or the identity
        # of a programmatic statement.  ``_prepare`` plans into it; a
        # text's entry then holds its plan key's plan with the text's
        # own literals (``slot_values``).  Plans are versioned by
        # ``plan_cache_epoch``: any DDL or tag-registry change drops
        # them all, ``ANALYZE`` only those whose ``table_names`` include
        # the analyzed table (``invalidate_plans_for``); either way the
        # statement stays.
        # At most ``STATEMENT_CACHE_CAP`` entries (``_cache_put``).
        self._plan_cache: Dict[object, Tuple] = {}
        # Statement shape keys (``sql.lexer.shape_key``) → their
        # ``Template``: what a new text of a known shape is bound from
        # instead of parsed.  Bounded like the statement cache.
        self._shape_cache: Dict[tuple, Template] = {}
        self._plan_epoch: Optional[Tuple[int, int]] = None
        self._sequences: Dict[str, int] = {}
        # -- observability (core/counters.py, db/metrics.py) -------------
        # Sessions bracket every tracked statement with two reads of
        # the calling thread's counters
        # (``_begin_statement``/``_finish_statement``) and the deltas
        # feed the statement aggregate, the slow-query log, and the
        # audit trail.
        self.statement_stats = StatementStats()
        # Slow-query threshold in milliseconds; 0 disables the log.
        self.slow_query_ms = max(0.0, float(slow_query_ms))
        self.slow_queries = Ring(128)
        # IFC audit trail: opt-in ring buffer (capacity in events;
        # 0 disables).  Off by default — it records facts (e.g.
        # suppressed-row counts) that must not flow back to confined
        # processes.
        self.audit = Ring(audit_log) if audit_log else None
        # -- durability (db/wal.py) --------------------------------------
        # ``wal`` is a log file path (or an open log); ``None`` → no WAL.
        self.wal: Optional[wal_mod.WriteAheadLog] = None
        if isinstance(wal, wal_mod.WriteAheadLog):
            self.wal = wal                 # tests inject fault specs here
        elif wal is not None:
            self.wal = wal_mod.WriteAheadLog(wal)
        #: True while ``wal.apply_records`` runs (recovery, restore):
        #: suppresses re-logging of applied DDL/sequence traffic.
        self._wal_replaying = False
        #: Replay watermark: log records below this index are already
        #: applied to this database (makes ``recover`` idempotent).
        self._wal_applied = 0
        #: Sequences bumped since the last logged commit; attached to
        #: the next commit record (sequences are non-transactional, so
        #: they ride along rather than get their own records).
        self._wal_dirty_seqs: Dict[str, int] = {}
        self._last_statement = None
        # Statement collectors (statement_stats / slow_queries / audit)
        # are shared by every session on this database;
        # concurrent statements update them under this lock.  The
        # counter *reads* need no lock: they are per-thread
        # (core/counters.py), which is what makes the bracket deltas
        # safe under concurrency in the first place.
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    def connect(self, process=None) -> Session:
        """Open a session.  With IFC enabled, a process carrying the label
        and principal should be supplied; ``None`` connects an internal
        session with an empty label and no authority."""
        return Session(self, process)

    # ------------------------------------------------------------------
    # parsing and preparation (cached)
    # ------------------------------------------------------------------
    def parse(self, sql: str):
        """The statement of ``sql``: for a text seen before, the very
        statement it gave then (its plan is cached with it); for a new
        text, lexed once (``sql.lexer.lexemes``), a copy of its shape's
        template with the text's literals bound in.  Only a new shape is
        tokenized and parsed.  A statement planned by key also carries
        its ``plan_key`` and the values of its literal slots
        (``slot_values``)."""
        entry = self._plan_cache.get(sql)
        if entry is not None:
            tally().text_hits += 1
            return entry[0]
        found = lexemes(sql)
        key = shape_key(found)
        template = self._shape_cache.get(key)
        values = None if template is None else template.values(found)
        if values is not None:
            tally().shape_hits += 1
        else:
            slots: dict = {}
            template = Template(parse_statement(sql, tokenize(sql), slots),
                                key, found, slots)
            _cache_put(self._shape_cache, key, template)
            tally().parses += 1
            values = template.values(found)
        statement = template.bind(values)
        keyed = template.plan_key(values)
        if keyed is not None:
            statement.plan_key, statement.slot_values = keyed
        _cache_put(self._plan_cache, sql, (statement, None, ()))
        return statement

    @staticmethod
    def generic(statement):
        """What ``statement`` is planned as: for one parsed from a text
        planned by key, the statement of its plan key showing the
        text's own literals (:meth:`Template.generic`); any other is
        planned as it is."""
        key = getattr(statement, "plan_key", None)
        if key is None:
            return statement
        return key[0].generic(key, statement.slot_values)

    def parse_script(self, sql: str):
        return parse_script(sql)

    def plan_cache_epoch(self) -> Tuple[int, int]:
        """The versions the prepared-plan cache is keyed on.

        ``catalog.version`` bumps on every DDL statement — including
        ``CREATE/DROP INDEX`` and view changes — and ``tags.version``
        bumps on every tag-registry mutation (new tags, compound-tag
        membership).  Row counts are deliberately *not* part of the
        epoch: a table's growth changes plan optimality, never plan
        correctness, so a cached plan keeps the counts it was costed
        with until ``ANALYZE`` evicts the plans reading that table
        (``invalidate_plans_for``).  Declassifying-view *authority* is
        also not part of the epoch: cached plans re-validate the view
        principal's authority on every execution, so revocation takes
        effect without a replan.
        """
        return (self.catalog.version, self.authority.tags.version)

    def _check_plan_epoch(self) -> None:
        epoch = self.plan_cache_epoch()
        if epoch != self._plan_epoch:
            self.invalidate_plans_for(None)
            self._plan_epoch = epoch

    def invalidate_plans_for(self, table_name: Optional[str]) -> None:
        """Drop the cached plans that read ``table_name`` (``ANALYZE``)
        — every plan for ``None`` (an epoch change) — keeping each
        text's statement, so the text is replanned, not reparsed.

        DML plans participate too: UPDATE/DELETE target scans come out
        of the same cost-based access-path enumeration as SELECT.
        """
        cache = self._plan_cache
        for key, (statement, prepared, tables) in list(cache.items()):
            if prepared is not None and (table_name is None
                                         or table_name in tables):
                cache[key] = (statement, None, ())

    def _prepare(self, statement, sql: Optional[str]):
        """The plan of a SELECT (``PreparedSelect``), UPDATE/DELETE
        (``PreparedDML``) or INSERT (:class:`PreparedInsert`) statement,
        through the one statement cache.

        A statement parsed from a text runs its plan key's plan, which
        the first text of the key planned; a later text of the key
        adds only its own literals to it.  Planning reads a literal's
        value only where the key pins it, so the plan is the one the
        text would get by itself, except that a literal in a range
        predicate is estimated like a ``?`` parameter."""
        # A text's entry holds the statement ``parse`` returned for it.
        # The identity check is for the id()-based key of programmatic
        # statements (the entry's strong reference keeps the id from
        # being recycled) and for a caller that parsed the text itself.
        self._check_plan_epoch()
        cache = self._plan_cache
        key = sql if sql is not None else id(statement)
        cached = cache.get(key)
        if cached is not None and cached[1] is not None \
                and cached[0] is statement:
            return cached[1]
        plan_key = getattr(statement, "plan_key", None)
        if plan_key is None:
            prepared, tables = self._plan(statement)
        else:
            entry = cache.get(plan_key)
            if entry is not None and entry[1] is not None:
                tally().key_hits += 1
                _generic, prepared, tables = entry
            else:
                generic = self.generic(statement) if entry is None \
                    else entry[0]
                prepared, tables = self._plan(generic)
                _cache_put(cache, plan_key, (generic, prepared, tables))
            if statement.slot_values:
                prepared = copy.copy(prepared)
                prepared.slot_values = statement.slot_values
        _cache_put(cache, key, (statement, prepared, tables))
        return prepared

    def _plan(self, statement) -> Tuple[object, frozenset]:
        """A new plan of ``statement`` and the tables it reads."""
        if isinstance(statement, ast.Insert):
            prepared = self._plan_insert(statement)
            tables = frozenset((statement.table,))
            if prepared.select is not None:
                tables |= plan_tables(prepared.select.plan)
            return prepared, tables
        planner = self.planner
        prepared = (planner.plan_select(statement)
                    if isinstance(statement, ast.Select)
                    else planner.plan_dml(statement))
        return prepared, plan_tables(prepared.plan)

    def plan_afresh(self, statement):
        """A plan of ``statement`` made now, outside the cache, as a
        text's statement is planned (:meth:`generic`) and carrying its
        literals: what EXPLAIN shows and EXPLAIN ANALYZE runs, each
        operator printing the text's own literals."""
        self._check_plan_epoch()
        prepared, _tables = self._plan(self.generic(statement))
        prepared.slot_values = getattr(statement, "slot_values", ())
        return prepared

    #: One name per statement kind, for callers and for the tracer
    #: (``benchmarks/e2e/trace.py`` wraps each); a wrapper apiece would
    #: put a second call on every cache hit.
    prepare_select = prepare_dml = prepare_insert = _prepare

    def _plan_insert(self, statement: ast.Insert) -> PreparedInsert:
        table = self.catalog.get_table(statement.table)
        schema = table.schema
        if statement.columns is not None:
            target_cols = list(statement.columns)
        else:
            target_cols = list(schema.column_names)
        positions = [schema.position(col) for col in target_cols]
        defaults = [column.default if column.has_default else None
                    for column in schema.columns]
        row_fns = None
        select = None
        if statement.select is not None:
            select = self.prepare_select(statement.select, None)
        else:
            compiler = self.planner.compiler(Scope())
            row_fns = [[compiler.compile(e) for e in row]
                       for row in statement.rows]
        return PreparedInsert(table, positions, defaults, row_fns, select)

    def explain(self, statement) -> List[str]:
        """One line per plan operator for ``EXPLAIN``: the tree the
        statement's text runs (:meth:`plan_afresh`), with its own
        literals."""
        if not isinstance(statement, (ast.Select, ast.Update, ast.Delete)):
            raise DatabaseError(
                "EXPLAIN supports SELECT, UPDATE, and DELETE, not %s"
                % type(statement).__name__)
        plan = self.plan_afresh(statement).plan
        if isinstance(statement, ast.Select):
            return explain_plan(plan)
        return (["%s %s" % (type(statement).__name__, statement.table)]
                + explain_plan(plan, indent=1))

    def resolve_tag_label(self, names: Sequence[str]) -> Label:
        if not names:
            return EMPTY_LABEL
        return Label(self.authority.tags.lookup(n).id for n in names)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_function(self, name: str, fn: Callable, *,
                        needs_context: bool = False) -> None:
        """Register a scalar function callable from SQL expressions."""
        self.catalog.add_function(FunctionDef(name=name, fn=fn,
                                              needs_context=needs_context))

    def create_procedure(self, name: str, fn: Callable, *,
                         closure_principal: Optional[int] = None,
                         creator=None) -> None:
        """Register a stored procedure; binding a principal makes it a
        stored authority closure (section 4.3).  If ``creator`` (an
        IFCProcess) is given, it must hold the closure's authority —
        creation-time check per section 3.3."""
        if closure_principal is not None and creator is not None:
            self.authority.principals.get(closure_principal)
        self.catalog.add_procedure(ProcedureDef(
            name=name, fn=fn, closure_principal=closure_principal))

    def create_trigger(self, name: str, table: str, events, timing: str,
                       fn: Callable, *,
                       closure_principal: Optional[int] = None) -> None:
        events = frozenset((events,) if isinstance(events, str) else events)
        if not events or not events <= {INSERT, UPDATE, DELETE} \
                or timing not in (BEFORE, AFTER, DEFERRED):
            raise CatalogError(
                "trigger %r: events %r at %r; events are insert, update "
                "and delete, timings before, after and deferred"
                % (name, sorted(events), timing))
        self.catalog.add_trigger(TriggerDef(
            name=name, table=table, events=events, timing=timing,
            fn=fn, closure_principal=closure_principal))

    def execute_ddl(self, session: Session, statement):
        """Run a DDL statement: the checks that belong to live execution
        only, then :meth:`apply_ddl` of the record the log keeps."""
        from .session import Result
        if isinstance(statement, ast.CreateTable):
            if statement.if_not_exists and \
                    self.catalog.relation_exists(statement.name):
                return Result()
            record = ("ddl", "create_table", self._schema_from_ast(statement))
        elif isinstance(statement, ast.CreateView):
            columns = self.planner.plan_select(statement.select).columns
            declassify = self.resolve_tag_label(statement.declassifying)
            principal = session.acting.principal if declassify else None
            if declassify and self.ifc_enabled:
                # "The user must have whatever authority is being given
                # to the view" (section 4.3); every use re-checks it.
                if principal is None:
                    raise AuthorityError(
                        "a declassifying view needs a backing principal")
                for tag_id in declassify:
                    self.authority.check_authority(principal, tag_id)
            record = ("ddl", "create_view", statement.name, statement.select,
                      tuple(columns), tuple(declassify), principal)
        elif isinstance(statement, ast.CreateIndex):
            record = ("ddl", "create_index", statement.table, statement.name,
                      tuple(statement.columns), statement.ordered)
        elif isinstance(statement, ast.DropTable):
            if statement.if_exists and not \
                    self.catalog.relation_exists(statement.name):
                return Result()
            record = ("ddl", "drop_table", statement.name)
        elif isinstance(statement, ast.DropView):
            record = ("ddl", "drop_view", statement.name)
        elif isinstance(statement, ast.DropIndex):
            record = ("ddl", "drop_index", statement.name)
        else:
            raise DatabaseError("unsupported statement %r" % (statement,))
        self.apply_ddl(record)
        return Result()

    def apply_ddl(self, record: tuple) -> None:
        """Apply one catalog change, ``("ddl", verb, …)``: the one place
        each verb changes the catalog, for a statement run now and for
        a log or dump replayed.  Unless replaying, the record is then
        logged (DDL is durable at once, not transactional).

        A replayed view is not re-checked against its principal's
        authority: a later revocation must not make a valid log
        unreplayable, and every use of the view re-checks it anyway."""
        verb, args = record[1], record[2:]
        if verb == "create_table":
            self.catalog.add_table(Table(
                args[0], page_size=self.page_size,
                buffer_cache=self.buffer_cache,
                store_labels=self.ifc_enabled,
                segment_size=self.batch_size))
        elif verb == "create_index":
            table_name, name, columns, ordered = args
            self.catalog.get_table(table_name).create_index(
                name, columns, ordered=ordered)
            self.catalog._bump()
        elif verb == "drop_index":
            name = args[0]
            owners = [table for table in self.catalog.tables.values()
                      if name in table.indexes]
            if not owners:
                raise CatalogError("index %r does not exist" % name)
            if len(owners) > 1:
                raise CatalogError(
                    "index name %r is ambiguous (tables: %s)"
                    % (name, ", ".join(sorted(t.name for t in owners))))
            owners[0].drop_index(name)
            self.catalog._bump()
        elif verb == "create_view":
            name, select, columns, declassify, principal = args
            self.catalog.add_view(ViewDef(
                name=name, select=select, columns=list(columns),
                declassify=Label(declassify), principal=principal))
        elif verb == "drop_table":
            self.catalog.drop_table(args[0])
        elif verb == "drop_view":
            self.catalog.drop_view(args[0])
        else:
            raise wal_mod.WalError("unknown WAL DDL verb %r" % (verb,))
        if self.wal is not None and not self._wal_replaying:
            self.wal.log(record)

    def _schema_from_ast(self, statement: ast.CreateTable) -> TableSchema:
        """``CREATE TABLE``'s schema.  Its constraint list holds the
        column-level constraints ahead of the table-level ones, so a
        generated name numbers column-level ones first; every column of
        the primary key is NOT NULL."""
        name = statement.name
        primary_key: Tuple[str, ...] = ()
        uniques: List[UniqueConstraint] = []
        fks: List[ForeignKeyConstraint] = []
        checks: List[CheckConstraint] = []
        label_checks: List[LabelCheckConstraint] = []
        for constraint in statement.constraints:
            kind, given = constraint.kind, constraint.name
            if kind == "primary_key":
                if primary_key:
                    raise CatalogError("multiple primary keys for table %r"
                                       % name)
                primary_key = constraint.columns
            elif kind == "unique":
                uniques.append(UniqueConstraint(
                    name=given or "%s_unique%d" % (name, len(uniques) + 1),
                    columns=constraint.columns))
            elif kind == "foreign_key":
                fks.append(ForeignKeyConstraint(
                    name=given or "%s_fk%d" % (name, len(fks) + 1),
                    columns=constraint.columns,
                    ref_table=constraint.ref_table,
                    ref_columns=constraint.ref_columns,
                    match_label=constraint.match_label))
            elif kind == "check":
                checks.append(CheckConstraint(
                    name=given or "%s_check%d" % (name, len(checks) + 1),
                    expr=constraint.expr))
            elif kind == "label_check":
                label_checks.append(LabelCheckConstraint(
                    name=given or "%s_label_check%d"
                    % (name, len(label_checks) + 1),
                    expr=constraint.expr))
            else:
                raise CatalogError("unknown constraint kind %r" % kind)
        columns = [Column(name=column.name,
                          type=type_by_name(column.type_name,
                                            column.type_length),
                          not_null=column.not_null
                          or column.name in primary_key,
                          default=column.default,
                          has_default=column.has_default)
                   for column in statement.columns]
        return TableSchema(name, columns, primary_key=primary_key,
                           uniques=uniques, foreign_keys=fks, checks=checks,
                           label_checks=label_checks)

    def next_sequence(self, name: str) -> int:
        """A simple named sequence.

        Note: the paper lists leak-free sequences as *future work*
        (section 10) — a sequential counter is an allocation channel if
        its values are exposed across labels.  Applications here only
        use sequences for ids of tuples whose existence the reader may
        already see.
        """
        value = self._sequences.get(name, 0) + 1
        self._sequences[name] = value
        if self.wal is not None and not self._wal_replaying:
            # Sequences are non-transactional (like PostgreSQL's): the
            # bump becomes durable with the next logged commit, which
            # records the then-current value (replay takes the max, so
            # it is idempotent and monotone).
            self._wal_dirty_seqs[name] = value
        return value

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def analyze(self, table_name: Optional[str] = None) -> List[str]:
        """``ANALYZE [table]``: evict the cached plans that read the
        table (every cached plan for ``None``), so they are re-costed
        against the current row counts; returns the tables' names.

        Nothing is collected: the optimizer reads each heap's version
        count (``Table.approx_rows``) whenever it plans, and a cached
        plan keeps the counts it was costed with until this (or DDL)
        runs.  Growth alone never re-costs a cached plan: a caller
        whose tables keep growing must call this itself.
        """
        if table_name is None:
            tables = list(self.catalog.tables.values())
            self.invalidate_plans_for(None)
        else:
            tables = [self.catalog.get_table(table_name)]
            self.invalidate_plans_for(tables[0].name)
        tally().tables_collected += len(tables)
        return [t.name for t in tables]

    def vacuum(self, table_name: Optional[str] = None) -> int:
        """Garbage-collect dead versions now (exempt from label rules).

        Never needed for correctness or speed — ``begin`` reclaims
        incrementally — only to reclaim ahead of the next ``begin``.
        """
        if table_name is not None:
            return self.catalog.get_table(table_name).vacuum(self.txn_manager)
        return sum(table.vacuum(self.txn_manager)
                   for table in self.catalog.tables.values())

    # ------------------------------------------------------------------
    # durability (db/wal.py)
    # ------------------------------------------------------------------
    def _wal_log_commit(self, txn) -> None:
        """Make ``txn`` durable; called by ``Session.commit`` *before*
        the transaction manager acknowledges.  Raises (``WalError`` /
        ``CrashError``) when durability cannot be promised — the caller
        aborts the transaction, upholding logged-before-acknowledged."""
        if self.wal is None or self._wal_replaying:
            return
        record = wal_mod.build_commit_record(self, txn)
        if record is None:
            return                       # read-only: nothing to log
        try:
            self.wal.log_commit(record)
        except BaseException:
            # Put the un-logged sequence bumps back so a later commit
            # (fsync-failure mode: the process survives) re-carries
            # them rather than silently dropping durability for them.
            for name, value in record[3].items():
                if value > self._wal_dirty_seqs.get(name, 0):
                    self._wal_dirty_seqs[name] = value
            raise

    def _take_wal_sequences(self) -> Dict[str, int]:
        """Detach the sequences bumped since the last logged commit."""
        if not self._wal_dirty_seqs:
            return {}
        seqs = self._wal_dirty_seqs
        self._wal_dirty_seqs = {}
        return seqs

    def recover(self, path: Optional[str] = None) -> Dict[str, object]:
        """Replay a WAL into this database (trusted maintenance op).

        ``path`` defaults to this database's own log; a dump file is a
        log image too (:mod:`repro.db.dump`).  Must run before
        the database commits anything of its own — the usual shape is
        a fresh ``Database`` sharing the crashed instance's authority
        state (tag ids must resolve identically).  Idempotent: records
        below the replay watermark are skipped, so recovering twice is
        a no-op.  Returns replay statistics (records seen/applied,
        transactions, DDL, tail disposition).
        """
        if path is None:
            if self.wal is None:
                raise wal_mod.WalError("no WAL configured and no path given")
            path = self.wal.path
        if self.txn_manager.write_commits != 0:
            # Replayed and restored transactions are not counted, so
            # any write commit here is the database's own — its
            # versions occupy tids the log names, which replay must
            # find empty.  (Read-only commits are fine.)
            raise wal_mod.WalError(
                "recover() must run before this database commits its own "
                "writes (%d write commits present)"
                % self.txn_manager.write_commits)
        return wal_mod.replay(self, path)

    def close(self) -> None:
        """Release the WAL file (the engine itself needs no teardown)."""
        if self.wal is not None:
            self.wal.close()

    # ------------------------------------------------------------------
    # metrics (db/metrics.py)
    # ------------------------------------------------------------------
    def _begin_statement(self) -> Tuple[float, tuple]:
        """Start of per-statement tracking: wall clock + counter read."""
        return (time.perf_counter(), counters.read())

    def _finish_statement(self, track: Tuple[float, tuple], statement,
                          rowcount: int) -> None:
        """End of per-statement tracking: aggregate into the statement
        stats, the slow-query log, and the audit trail.  Hot path — a
        handful of microseconds per statement."""
        after = counters.read()
        started, before = track
        elapsed = time.perf_counter() - started
        self._last_statement = (before, after, elapsed, rowcount)
        key = _statement_key(statement)
        # ``before``/``after`` are this thread's own counter state, so
        # the deltas are statement-exact even with concurrent sessions;
        # the shared collectors are the only cross-thread state left.
        with self._stats_lock:
            cell = _SPILL_BYTES_CELL
            self.statement_stats.record(key, elapsed, rowcount,
                                        after[cell] - before[cell])
            threshold = self.slow_query_ms
            if threshold and elapsed * 1000.0 >= threshold:
                self.slow_queries.record(
                    statement=key, elapsed_ms=elapsed * 1000.0,
                    rows=rowcount, counters=counters.delta(before, after))
            audit = self.audit
            if audit is not None:
                cell = _SUPPRESSED_CELL
                suppressed = after[cell] - before[cell]
                if suppressed:
                    audit.record(kind="rows_suppressed", statement=key,
                                 count=suppressed)

    def _audit_denial(self, statement, error) -> None:
        """Audit hook for write-rule / commit-label denials."""
        audit = self.audit
        if audit is None:
            return
        with self._stats_lock:
            audit.record(kind="write_denied",
                         statement=_statement_key(statement),
                         error=str(error))

    def last_statement_metrics(self) -> Optional[Dict[str, object]]:
        """Named counter deltas (plus ``elapsed_ms``/``rows``) of the
        most recently tracked statement — what tests pin instead of
        hand-diffing module globals."""
        if self._last_statement is None:
            return None
        before, after, elapsed, rowcount = self._last_statement
        named = counters.delta(before, after)
        named["elapsed_ms"] = elapsed * 1000.0
        named["rows"] = rowcount
        return named

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Every counter of the schema (``counters.snapshot()``: a dict
        per group, a ``None``-group counter at the top level under its
        field — ``statements_executed``, ``rows_inserted``/``_updated``/
        ``_deleted``, ``buffer_hits``/``_misses``/``_evictions``,
        ``simulated_io_time``), then what this database holds now:

        * ``statements`` — the per-fingerprint aggregate, and
          ``statements_dropped``, statements it refused once full;
        * ``slow_queries`` — the slow-query log's entries;
          ``audit_events`` — audit events ever recorded (0 when off);
        * ``commits``, ``aborts``, ``versions_reclaimed``,
          ``reclaim_pending`` — the transaction manager's;
        * ``polyinstantiated`` — per table, inserts that went in beside
          an invisible duplicate key.

        The counters are process-wide and per-thread: with several
        ``Database`` instances in one process they aggregate across
        them — diff two reports around the work of interest, or read
        ``last_statement_metrics()`` / ``statements`` for attributed
        numbers.
        """
        txns = self.txn_manager
        report = counters.snapshot()
        report.update({
            "statements": self.statement_stats.snapshot(),
            "statements_dropped": self.statement_stats.dropped,
            "slow_queries": self.slow_queries.snapshot(),
            "audit_events": self.audit.total if self.audit else 0,
            "commits": txns.commits,
            "aborts": txns.aborts,
            "versions_reclaimed": txns.versions_reclaimed,
            "reclaim_pending": txns.reclaim_pending,
            "polyinstantiated": {
                t.name: t.polyinstantiation_count
                for t in self.catalog.tables.values()
                if t.polyinstantiation_count
            },
        })
        return report
