"""Unified metrics: one registry over the engine's counter families.

Before this module, observability was four disconnected process-wide
counter singletons (``core/rules.COUNTERS``, ``db/indexes.COUNTERS``,
``db/physical.EXEC_COUNTERS``, ``db/spill.SPILL_STATS``) — no
per-statement attribution, no way to merge per-worker counts.  The
:data:`REGISTRY` keeps those objects as the live storage (hot paths
still do ``COUNTERS.field += 1`` on a slotted int; nothing slows down)
but gives them one namespace with:

* ``snapshot()`` / ``reset()`` / ``merge()`` — the API a future
  parallel executor needs: each worker accumulates into its own
  registry and the coordinator merges the snapshots;
* ``cells()`` — every counter in a fixed order, from which each
  :class:`~repro.db.engine.Database` compiles a flat-tuple reader (one
  ``LOAD_ATTR`` per counter, :func:`compile_reader`) cheap enough to
  call around *every* statement: ``Database.read_counters()`` /
  ``counter_delta()`` / ``last_statement_metrics()`` are the one way
  counters are attributed to a statement or a block, for the engine,
  ``EXPLAIN ANALYZE``, tests and benchmarks alike.

On top of the registry live the statement-level collectors the engine
owns per :class:`~repro.db.engine.Database`:

* :class:`StatementStats` — a pg_stat_statements-style aggregate keyed
  on :func:`normalize_sql` (calls, total/mean/max time, rows, spill
  bytes), surfaced as ``Database.stats()["statements"]``;
* :class:`SlowQueryLog` — a ring buffer of statements that exceeded
  ``Database(slow_query_ms=…)``, each with its counter deltas;
* :class:`AuditLog` — the opt-in IFC audit trail: rows suppressed by
  the Label Confinement Rule, declassifying-view invocations, and
  write-rule denials (``IFCViolation``), so the paper's security
  semantics are observable, not just enforced;
* :class:`PlanRecorder` — the ``EXPLAIN ANALYZE`` instrumentation: it
  shallow-copies the (stateless-between-executions) plan tree, wraps
  every node in an :class:`OpProbe`, and attributes rows, batches,
  wall time, and counter deltas to each operator as the query runs.

Import direction: this module imports the counter owners (``core`` and
its ``db`` siblings); none of them import it back — ``core`` must stay
free of ``db`` imports, and the executor hot paths keep their direct
singleton increments.
"""

from __future__ import annotations

import copy
import time
from collections import deque
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core import rules as _rules
from ..core.counters import CounterGroup
from . import indexes as _indexes
from . import physical as _physical
from . import spill as _spill
from . import stats as _stats
from . import wal as _wal

_perf_counter = time.perf_counter


def compile_reader(cells: List[Tuple[object, str]]) -> Callable[[], tuple]:
    """Build a zero-argument function returning the counters as a flat
    tuple — one attribute load per counter, no loops or dict lookups,
    so a per-statement before/after pair costs a couple of
    microseconds.

    :class:`~repro.core.counters.CounterGroup` owners are read through
    the **calling thread's** state (hoisted once per call, then slot
    loads), so the per-statement bracket sees exactly the executing
    thread's own work — the delta-isolation fix for concurrent
    statements.  Plain owners (the per-database buffer-cache stats)
    keep the direct attribute load.
    """
    namespace: Dict[str, object] = {}
    parts = []
    prologue = []
    hoisted: Dict[int, str] = {}
    for i, (obj, field) in enumerate(cells):
        if isinstance(obj, CounterGroup):
            state = hoisted.get(id(obj))
            if state is None:
                name = "g%d" % i
                state = "s%d" % i
                namespace[name] = obj
                prologue.append("    %s = %s._local.state" % (state, name))
                hoisted[id(obj)] = state
            parts.append("%s.%s" % (state, field))
        else:
            name = "g%d" % i
            namespace[name] = obj
            parts.append("%s.%s" % (name, field))
    source = "def read():\n%s    return (%s%s)\n" % (
        "".join(line + "\n" for line in prologue),
        ", ".join(parts), "," if len(parts) == 1 else "")
    exec(source, namespace)
    return namespace["read"]


class MetricsRegistry:
    """Named counter groups over the existing slotted singletons.

    A *group* is any object with integer (or float) counter attributes;
    the registered field order is its ``__slots__`` order.  Groups are
    registered once at import time; :attr:`version` bumps on every
    registration so cached readers (here and per ``Database``) know to
    rebuild.
    """

    def __init__(self):
        self._groups: Dict[str, Tuple[object, Tuple[str, ...]]] = {}
        self._order: List[str] = []
        self.version = 0

    # -- registration ---------------------------------------------------
    def register(self, name: str, group: object,
                 fields: Optional[Tuple[str, ...]] = None) -> object:
        """Register (or re-register) a counter group under ``name``."""
        if fields is None:
            fields = tuple(getattr(type(group), "FIELDS", ())
                           or getattr(type(group), "__slots__", ()))
        if not fields:
            raise ValueError("counter group %r has no fields" % name)
        if name not in self._groups:
            self._order.append(name)
        self._groups[name] = (group, fields)
        self.version += 1
        return group

    def group(self, name: str) -> object:
        return self._groups[name][0]

    def groups(self) -> List[str]:
        return list(self._order)

    def cells(self) -> Iterator[Tuple[str, str, object]]:
        """Every counter as ``(group_name, field, owner_object)``, in
        deterministic registration/slot order."""
        for name in self._order:
            group, fields = self._groups[name]
            for field in fields:
                yield name, field, group

    # -- whole-registry operations --------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Named nested snapshot ``{group: {field: value}}``.

        Thread-aware groups report cross-thread **totals** (the
        whole-process view ``Database.stats()`` and the benchmark
        snapshots want); plain attribute reads on a group stay
        thread-local (what the per-statement bracket wants)."""
        out: Dict[str, Dict[str, int]] = {}
        for name in self._order:
            group, fields = self._groups[name]
            if isinstance(group, CounterGroup):
                totals = group.totals()
                out[name] = {field: totals[field] for field in fields}
            else:
                out[name] = {field: getattr(group, field)
                             for field in fields}
        return out

    def reset(self) -> None:
        for name in self._order:
            group, fields = self._groups[name]
            if isinstance(group, CounterGroup):
                group.reset()
                continue
            for field in fields:
                setattr(group, field, type(getattr(group, field))())

    def merge(self, snapshot: Dict[str, Dict[str, int]]) -> None:
        """Add a named snapshot into the live counters — the
        coordinator half of the worker protocol: workers accumulate
        privately, then their snapshots merge here.  The merge lands
        on the **calling thread's** state, so a statement that gathers
        parallel workers sees their counts inside its own bracket.
        High-water gauges (:attr:`CounterGroup.MAX_FIELDS`) combine
        with ``max`` instead of ``+``."""
        for name, values in snapshot.items():
            entry = self._groups.get(name)
            if entry is None:
                continue
            group, fields = entry
            maxes = getattr(type(group), "MAX_FIELDS", ())
            for field in fields:
                if field in values:
                    if field in maxes:
                        if values[field] > getattr(group, field):
                            setattr(group, field, values[field])
                    else:
                        setattr(group, field,
                                getattr(group, field) + values[field])


#: The process-wide registry.  The module singletons stay the live
#: storage (and the backward-compatible aliases); registering them here
#: is what unifies ``Database.stats()``, per-statement deltas, EXPLAIN
#: ANALYZE, and the benchmark snapshots on one namespace.
REGISTRY = MetricsRegistry()
REGISTRY.register("labels", _rules.COUNTERS)
REGISTRY.register("index", _indexes.COUNTERS)
REGISTRY.register("exec", _physical.EXEC_COUNTERS)
REGISTRY.register("spill", _spill.SPILL_STATS)
REGISTRY.register("stats", _stats.COUNTERS)
REGISTRY.register("wal", _wal.WAL_STATS)


def reset() -> None:
    """Reset every registered counter (test isolation)."""
    REGISTRY.reset()


def snapshot() -> Dict[str, Dict[str, int]]:
    return REGISTRY.snapshot()


# ---------------------------------------------------------------------------
# statement-level collectors
# ---------------------------------------------------------------------------

_NORM_CACHE: Dict[str, str] = {}
_NORM_CACHE_CAP = 4096


def normalize_sql(sql: str) -> str:
    """The pg_stat_statements-style fingerprint: literals (numbers,
    strings) become ``?`` so ``…WHERE id = 7`` and ``…WHERE id = 9``
    aggregate under one key; whitespace and comments disappear with the
    lexer.  Unparsable text falls back to whitespace collapsing."""
    key = _NORM_CACHE.get(sql)
    if key is not None:
        return key
    from ..sql import lexer
    try:
        parts = []
        for token in lexer.tokenize(sql):
            if token.kind == lexer.EOF:
                break
            if token.kind in (lexer.NUMBER, lexer.STRING, lexer.PARAM):
                parts.append("?")
            else:
                parts.append(str(token.value))
        key = " ".join(parts)
    except Exception:
        key = " ".join(sql.split())
    if len(_NORM_CACHE) < _NORM_CACHE_CAP:
        _NORM_CACHE[sql] = key
    return key


class StatementStats:
    """Aggregate execution stats keyed on normalized SQL.

    Entries are mutable 5-lists ``[calls, total_s, max_s, rows,
    spill_bytes]`` so the per-statement record is a dict hit plus five
    in-place adds; :meth:`snapshot` shapes them for consumption.
    """

    __slots__ = ("entries", "capacity", "dropped")

    def __init__(self, capacity: int = 512):
        self.entries: Dict[str, list] = {}
        self.capacity = capacity
        self.dropped = 0

    def record(self, key: str, seconds: float, rows: int,
               spill_bytes: int) -> None:
        entry = self.entries.get(key)
        if entry is None:
            if len(self.entries) >= self.capacity:
                self.dropped += 1
                return
            self.entries[key] = [1, seconds, seconds, rows, spill_bytes]
            return
        entry[0] += 1
        entry[1] += seconds
        if seconds > entry[2]:
            entry[2] = seconds
        entry[3] += rows
        entry[4] += spill_bytes

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        out = {}
        for key, (calls, total, worst, rows, spill_bytes) in \
                self.entries.items():
            out[key] = {
                "calls": calls,
                "total_ms": total * 1000.0,
                "mean_ms": total * 1000.0 / calls,
                "max_ms": worst * 1000.0,
                "rows": rows,
                "spill_bytes": spill_bytes,
            }
        return out

    def reset(self) -> None:
        self.entries.clear()
        self.dropped = 0


class SlowQueryLog:
    """Ring buffer of statements that exceeded the slow-query
    threshold, each carrying its per-statement counter deltas."""

    __slots__ = ("entries", "total")

    def __init__(self, capacity: int = 128):
        self.entries: deque = deque(maxlen=capacity)
        self.total = 0

    def record(self, statement: str, elapsed_ms: float, rows: int,
               delta: Dict[str, Dict[str, int]]) -> None:
        self.total += 1
        self.entries.append({
            "statement": statement,
            "elapsed_ms": elapsed_ms,
            "rows": rows,
            "counters": delta,
        })

    def snapshot(self) -> List[dict]:
        return list(self.entries)

    def reset(self) -> None:
        self.entries.clear()
        self.total = 0


class AuditLog:
    """Opt-in IFC audit trail (ring buffer).

    Event kinds and fields:

    * ``rows_suppressed`` — ``statement`` (normalized SQL), ``count``:
      tuples the statement's scans rejected under the Label
      Confinement Rule (section 4.2);
    * ``declassify_view`` — ``view``, ``tags``: a declassifying view's
      scan ran (its authority re-validated) for one execution
      (section 4.3);
    * ``write_denied`` — ``statement``, ``error``: a write-rule or
      commit-label denial (``IFCViolation``, sections 4.2/5.1).

    The log is observability for the *trusted* embedder — it records
    facts (suppressed-row counts) that must not flow back to the
    confined process that triggered them, which is why it is off by
    default and never surfaced through SQL.
    """

    __slots__ = ("events", "total")

    def __init__(self, capacity: int = 1024):
        self.events: deque = deque(maxlen=capacity)
        self.total = 0

    def record(self, kind: str, **fields) -> None:
        self.total += 1
        event = {"kind": kind}
        event.update(fields)
        self.events.append(event)

    def of_kind(self, kind: str) -> List[dict]:
        return [e for e in self.events if e["kind"] == kind]

    def snapshot(self) -> List[dict]:
        return list(self.events)

    def reset(self) -> None:
        self.events.clear()
        self.total = 0


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE instrumentation
# ---------------------------------------------------------------------------

#: Short EXPLAIN ANALYZE labels for the counters worth showing
#: per-operator; anything not listed renders as ``group.field``.
#: ``buffer.hits``/``buffer.misses`` are folded into one ``touches``
#: figure (buffer-cache accesses) at render time.
_ANALYZE_LABELS: Dict[Tuple[str, str], str] = {
    ("labels", "covers_calls"): "covers",
    ("labels", "strip_calls"): "strip",
    ("labels", "rows_suppressed"): "suppressed",
    ("index", "lookups"): "lookups",
    ("index", "range_scans"): "range_scans",
    ("exec", "columns_materialized"): "cells",
    ("exec", "rows_widened"): "widened",
    ("spill", "spills"): "spills",
    ("spill", "partitions_created"): "spill_partitions",
    ("spill", "repartitions"): "repartitions",
    ("spill", "rows_spilled"): "spill_rows",
    ("spill", "bytes_spilled"): "spill_bytes",
    ("spill", "sort_spills"): "sort_spills",
    ("spill", "sort_runs"): "sort_runs",
    ("spill", "agg_spills"): "agg_spills",
    ("spill", "agg_partitions"): "agg_partitions",
    ("wal", "records"): "wal_records",
    ("wal", "bytes"): "wal_bytes",
    ("wal", "flushes"): "wal_flushes",
    ("wal", "commits"): "wal_commits",
}

#: Counters that never appear in per-operator EXPLAIN ANALYZE lines.
#: The stats sweep can fire during planning, outside any operator.
_ANALYZE_SKIP = {("stats", "tables_collected"), ("stats", "drift_refreshes"),
                 # A high-water gauge, not a counter — deltas between
                 # two reads of it are meaningless.
                 ("wal", "group_commit_size")}


class OpStats:
    """Actuals for one plan operator: rows/batches emitted, inclusive
    wall seconds, and inclusive counter deltas (one slot per recorder
    cell)."""

    __slots__ = ("rows", "batches", "seconds", "counters", "chunks_seen")

    def __init__(self, ncells: int):
        self.rows = 0
        self.batches = 0
        self.seconds = 0.0
        self.counters = [0] * ncells
        #: Scans only: ``[candidate chunks]`` (see Scan.chunks_seen).
        self.chunks_seen: Optional[List[int]] = None


class OpProbe:
    """Pull-through wrapper around one (cloned) plan node.

    Every ``next()`` on the wrapped iterator is timed and bracketed by
    two counter reads; because execution is single-threaded and
    pull-based, counters only move inside nested ``next()`` calls, so
    the accumulated per-operator delta is *inclusive* of the subtree
    and exact — the renderer subtracts children to get self-only
    figures.
    """

    __slots__ = ("inner", "stats", "read")

    def __init__(self, inner, stats: OpStats, read: Callable[[], tuple]):
        self.inner = inner
        self.stats = stats
        self.read = read

    def _wrap(self, iterator, per_item: Callable[[OpStats, object], None]):
        stats = self.stats
        read = self.read
        counters = stats.counters
        while True:
            started = _perf_counter()
            before = read()
            try:
                item = next(iterator)
            except StopIteration:
                after = read()
                stats.seconds += _perf_counter() - started
                if after != before:
                    for i in range(len(counters)):
                        counters[i] += after[i] - before[i]
                return
            after = read()
            stats.seconds += _perf_counter() - started
            if after != before:
                for i in range(len(counters)):
                    counters[i] += after[i] - before[i]
            per_item(stats, item)
            yield item

    def batches(self, ctx):
        def count(stats, batch):
            stats.batches += 1
            stats.rows += len(batch)
        return self._wrap(self.inner.batches(ctx), count)

    def versions(self, ctx):
        def count(stats, _version):
            stats.rows += 1
        return self._wrap(self.inner.versions(ctx), count)


#: Plan-node attributes that hold child plans (see
#: :func:`repro.db.physical._children`).
_CHILD_ATTRS = ("child", "left", "right", "inner")


class PlanRecorder:
    """Builds and renders an instrumented copy of a plan tree.

    Plans are cached and shared across executions, and all their
    execution state lives in generator locals — so the recorder never
    mutates the original tree: :meth:`instrument` shallow-copies each
    node, rewires the copies' child attributes to probes, and keys the
    collected :class:`OpStats` by the *original* node identity so
    rendering walks the original (cached) tree.
    """

    def __init__(self, db):
        self.db = db
        self.cells: List[Tuple[str, str]] = db.metrics_cells()
        self.read: Callable[[], tuple] = db.read_counters
        self._stats: Dict[int, Tuple[object, OpStats]] = {}
        self.total: Optional[List] = None
        self._started = 0.0
        self._before: Optional[tuple] = None

    # -- instrumentation ------------------------------------------------
    def instrument(self, plan) -> OpProbe:
        clone = copy.copy(plan)
        for attr in _CHILD_ATTRS:
            child = getattr(plan, attr, None)
            if isinstance(child, _physical.Plan):
                setattr(clone, attr, self.instrument(child))
        stats = OpStats(len(self.cells))
        self._stats[id(plan)] = (plan, stats)
        if isinstance(clone, _physical.Scan):
            # The scan tallies its candidate chunks on the private
            # clone (see Scan.chunks_seen).
            clone.chunks_seen = stats.chunks_seen = [0]
        return OpProbe(clone, stats, self.read)

    def stats_of(self, plan) -> Optional[OpStats]:
        entry = self._stats.get(id(plan))
        return entry[1] if entry is not None else None

    # -- statement-total bracket ---------------------------------------
    def start(self) -> None:
        self._before = self.read()
        self._started = _perf_counter()

    def finish(self) -> None:
        elapsed = _perf_counter() - self._started
        after = self.read()
        before = self._before
        self.total = [elapsed,
                      [after[i] - before[i] for i in range(len(before))]]

    # -- rendering ------------------------------------------------------
    def _exclusive(self, plan) -> List:
        """Self-only counter deltas: inclusive minus children."""
        stats = self.stats_of(plan)
        counters = list(stats.counters)
        for child in _physical._children(plan):
            child_stats = self.stats_of(child)
            if child_stats is None:
                continue
            for i, value in enumerate(child_stats.counters):
                counters[i] -= value
        return counters

    def _format_counters(self, counters: List) -> str:
        parts = []
        touches = 0
        for (group, field), value in zip(self.cells, counters):
            if not value:
                continue
            if group == "buffer":
                if field in ("hits", "misses"):
                    touches += value
                    continue
                if field == "io_time":
                    parts.append("io=%.3fms" % (value * 1000.0))
                    continue
            if (group, field) in _ANALYZE_SKIP:
                continue
            label = _ANALYZE_LABELS.get((group, field),
                                        "%s.%s" % (group, field))
            parts.append("%s=%s" % (label, value))
        if touches:
            parts.insert(0, "touches=%d" % touches)
        return "".join(" " + part for part in parts)

    def render_plan(self, plan, indent: int = 0) -> List[str]:
        """The original tree's EXPLAIN lines, each annotated with the
        operator's actuals: ``(actual rows=… batches=… time=…ms …)``."""
        stats = self.stats_of(plan)
        line = "  " * indent + _physical._explain_line(plan)
        if stats is not None:
            actual = "actual rows=%d" % stats.rows
            if stats.batches:
                actual += " batches=%d" % stats.batches
            actual += " time=%.3fms" % (stats.seconds * 1000.0)
            exclusive = self._exclusive(plan)
            actual += self._format_counters(exclusive)
            if stats.chunks_seen is not None and stats.seconds:
                # Every scan line that ran shows what Query by Label
                # did: rows it suppressed (zero included — the generic
                # counters omit zeros) and how many label checks a
                # candidate chunk cost it — its distinct labels
                # set-at-a-time, its versions in the per-version loop.
                if not exclusive[self.cells.index(
                        ("labels", "rows_suppressed"))]:
                    actual += " suppressed=0"
                chunks = stats.chunks_seen[0]
                checks = exclusive[self.cells.index(
                    ("labels", "covers_calls"))]
                actual += " labels/batch=%.1f" % (
                    checks / chunks if chunks else 0.0)
            line += "  (%s)" % actual
        lines = [line]
        for child in _physical._children(plan):
            lines.extend(self.render_plan(child, indent + 1))
        return lines

    def render_summary(self) -> List[str]:
        """Statement-total lines (the registry's per-statement delta —
        per-operator exclusive figures sum to exactly this)."""
        if self.total is None:
            return []
        elapsed, counters = self.total
        lines = ["Execution time: %.3f ms" % (elapsed * 1000.0)]
        formatted = self._format_counters(counters)
        if formatted:
            lines.append("Statement counters:%s" % formatted)
        return lines

    def render(self, plan) -> List[str]:
        return self.render_plan(plan) + self.render_summary()
