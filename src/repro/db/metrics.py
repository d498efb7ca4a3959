"""Statement-level collectors and the EXPLAIN ANALYZE recorder.

What the engine counts is declared once, in
:mod:`repro.core.counters` (the schema, the per-thread tally and its
``snapshot``/``reset``/``merge``/``read``); ``Database.read_counters()``
appends this database's buffer-cache cells to that flat read, and
``counter_delta()`` / ``last_statement_metrics()`` are the one way
counters are attributed to a statement or a block, for the engine,
``EXPLAIN ANALYZE``, tests and benchmarks alike.  On top of it live
the collectors the engine owns per :class:`~repro.db.engine.Database`:

* :class:`StatementStats` — a pg_stat_statements-style aggregate keyed
  on the statement fingerprint (:func:`repro.sql.lexer.fingerprint`:
  calls, total/mean/max time, rows, spill bytes), surfaced as
  ``Database.stats()["statements"]``;
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
"""

from __future__ import annotations

import copy
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..core.counters import SCHEMA
from . import physical as _physical

_perf_counter = time.perf_counter


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

#: EXPLAIN ANALYZE's name for each counter the schema shows (hidden
#: ones are absent; the per-database ``buffer`` cells are rendered by
#: :meth:`PlanRecorder._format_counters` itself).
_ANALYZE = {(group, field): label
            for group, field, _kind, label, _level in SCHEMA if label}


class OpStats:
    """Actuals for one plan operator: rows/batches emitted, inclusive
    wall seconds, and inclusive counter deltas (one slot per recorder
    cell)."""

    __slots__ = ("rows", "batches", "seconds", "counters")

    def __init__(self, ncells: int):
        self.rows = 0
        self.batches = 0
        self.seconds = 0.0
        self.counters = [0] * ncells


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
        for attr in plan.CHILDREN:
            setattr(clone, attr, self.instrument(getattr(plan, attr)))
        stats = OpStats(len(self.cells))
        self._stats[id(plan)] = (plan, stats)
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
        for child in plan.children():
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
            if group != "buffer":
                if (group, field) in _ANALYZE:
                    parts.append("%s=%s" % (_ANALYZE[group, field], value))
            elif field == "io_time":
                parts.append("io=%.3fms" % (value * 1000.0))
            elif field == "evictions":
                parts.append("buffer.evictions=%d" % value)
            else:                          # hits + misses
                touches += value
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
            if isinstance(plan, _physical.Scan) and stats.seconds:
                # Every scan line that ran shows what Query by Label
                # did: rows it suppressed (zero included — the generic
                # counters omit zeros) and how many label checks a
                # candidate segment cost it — its distinct labels
                # set-at-a-time, its versions in the per-version loop.
                if not exclusive[self.cells.index(
                        ("labels", "rows_suppressed"))]:
                    actual += " suppressed=0"
                segments = exclusive[self.cells.index(
                    ("exec", "segments_scanned"))]
                checks = exclusive[self.cells.index(
                    ("labels", "covers_calls"))]
                actual += " labels/batch=%.1f" % (
                    checks / segments if segments else 0.0)
            line += "  (%s)" % actual
        lines = [line]
        for child in plan.children():
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
