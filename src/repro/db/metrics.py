"""Statement-level collectors and the EXPLAIN ANALYZE recorder.

What the engine counts is declared once, in
:mod:`repro.core.counters`: the schema, the per-thread tally, and
``read()`` / ``delta(before, after)``, the one way counters are
attributed to a statement or a block — by the engine
(``Database.last_statement_metrics()``), ``EXPLAIN ANALYZE``, tests and
benchmarks alike.  On top of it live the collectors the engine owns per
:class:`~repro.db.engine.Database`:

* :class:`StatementStats` — a pg_stat_statements-style aggregate keyed
  on the statement fingerprint (:func:`repro.sql.lexer.fingerprint`:
  calls, total/mean/max time, rows, spill bytes), surfaced as
  ``Database.stats()["statements"]``;
* :class:`Ring` — a bounded log, twice over: the slow-query log
  (statements that exceeded ``Database(slow_query_ms=…)``, each with
  its counter deltas) and the opt-in IFC audit trail (rows suppressed
  by the Label Confinement Rule, declassifying-view invocations, and
  write-rule denials), so the paper's security semantics are
  observable, not just enforced;
* :class:`PlanRecorder` — the ``EXPLAIN ANALYZE`` instrumentation: it
  shallow-copies the (stateless-between-executions) plan tree, wraps
  every node in an :class:`OpProbe`, and attributes rows, wall time
  and counter deltas to each operator as the query runs; it prints
  only the counters the schema marks low.
"""

from __future__ import annotations

import copy
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..core.counters import CELLS, SCHEMA, read
from . import physical as _physical

_perf_counter = time.perf_counter


class StatementStats:
    """Aggregate execution stats keyed on normalized SQL.

    Entries are mutable 5-lists ``[calls, total_s, max_s, rows,
    spill_bytes]`` so the per-statement record is a dict hit plus five
    in-place adds; :meth:`snapshot` shapes them for consumption.  Once
    ``capacity`` keys are held, a statement under a new key is not
    recorded but counted in ``dropped``.
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


class Ring:
    """A bounded log: the last ``capacity`` entries, each a flat dict,
    and ``total``, every entry ever recorded.

    A slow-query entry is ``statement`` (the fingerprint),
    ``elapsed_ms``, ``rows`` and ``counters`` (the statement's named
    counter deltas).  An audit event carries a ``kind``:

    * ``rows_suppressed`` — ``statement``, ``count``: tuples the
      statement's scans rejected under the Label Confinement Rule
      (section 4.2);
    * ``declassify_view`` — ``view``, ``tags``: a declassifying view's
      scan ran (its authority re-validated) for one execution
      (section 4.3);
    * ``write_denied`` — ``statement``, ``error``: a write-rule or
      commit-label denial (``IFCViolation``, sections 4.2/5.1).

    The audit trail is observability for the *trusted* embedder — it
    records facts (suppressed-row counts) that must not flow back to
    the confined process that triggered them, which is why it is off
    by default and never surfaced through SQL.
    """

    __slots__ = ("entries", "total")

    def __init__(self, capacity: int):
        self.entries: deque = deque(maxlen=capacity)
        self.total = 0

    def record(self, **fields) -> None:
        self.total += 1
        self.entries.append(fields)

    def of_kind(self, kind: str) -> List[dict]:
        return [e for e in self.entries if e.get("kind") == kind]

    def snapshot(self) -> List[dict]:
        return list(self.entries)


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE instrumentation
# ---------------------------------------------------------------------------

#: EXPLAIN ANALYZE's name for each counter slot (``None``: hidden — a
#: high counter, which SQL never shows).
_LABELS = tuple(label for _group, _field, _kind, label, _level in SCHEMA)
#: What a drained iterator's ``next`` returns.
_DONE = object()


class OpStats:
    """Actuals for one plan operator: rows emitted, inclusive wall
    seconds, and inclusive counter deltas (one slot per schema cell)."""

    __slots__ = ("rows", "seconds", "counters")

    def __init__(self):
        self.rows = 0
        self.seconds = 0.0
        self.counters = [0] * len(CELLS)


class OpProbe:
    """Pull-through wrapper around one (cloned) plan node.

    Every ``next()`` on the wrapped iterator is timed and bracketed by
    two counter reads; because execution is single-threaded and
    pull-based, counters only move inside nested ``next()`` calls, so
    the accumulated per-operator delta is *inclusive* of the subtree
    and exact — the renderer subtracts children to get self-only
    figures.
    """

    __slots__ = ("inner", "stats")

    def __init__(self, inner, stats: OpStats):
        self.inner = inner
        self.stats = stats

    def _wrap(self, iterator, rows: Callable[[object], int]):
        """``iterator``'s items, each ``next()`` timed and its counter
        delta added; ``rows(item)`` is how many rows an item is."""
        stats = self.stats
        counters = stats.counters
        while True:
            started = _perf_counter()
            before = read()
            item = next(iterator, _DONE)
            after = read()
            stats.seconds += _perf_counter() - started
            if after != before:
                for i in range(len(counters)):
                    counters[i] += after[i] - before[i]
            if item is _DONE:
                return
            stats.rows += rows(item)
            yield item

    def batches(self, ctx):
        return self._wrap(self.inner.batches(ctx), len)

    def versions(self, ctx):
        return self._wrap(self.inner.versions(ctx), lambda _version: 1)


class PlanRecorder:
    """Builds and renders an instrumented copy of a plan tree.

    Plans are cached and shared across executions, and all their
    execution state lives in generator locals — so the recorder never
    mutates the original tree: :meth:`instrument` shallow-copies each
    node, rewires the copies' child attributes to probes, and keys the
    collected :class:`OpStats` by the *original* node identity so
    rendering walks the original (cached) tree.
    """

    def __init__(self):
        self._stats: Dict[int, Tuple[object, OpStats]] = {}
        self.total: Optional[List] = None
        self._started = 0.0
        self._before: Optional[tuple] = None

    # -- instrumentation ------------------------------------------------
    def instrument(self, plan) -> OpProbe:
        clone = copy.copy(plan)
        for attr in plan.CHILDREN:
            setattr(clone, attr, self.instrument(getattr(plan, attr)))
        stats = OpStats()
        self._stats[id(plan)] = (plan, stats)
        return OpProbe(clone, stats)

    def stats_of(self, plan) -> Optional[OpStats]:
        entry = self._stats.get(id(plan))
        return entry[1] if entry is not None else None

    # -- statement-total bracket ---------------------------------------
    def start(self) -> None:
        self._before = read()
        self._started = _perf_counter()

    def finish(self) -> None:
        elapsed = _perf_counter() - self._started
        after = read()
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

    @staticmethod
    def _format_counters(counters: List) -> str:
        """`` label=value`` per named, non-zero counter: the low ones."""
        return "".join(" %s=%d" % (label, value)
                       for label, value in zip(_LABELS, counters)
                       if label and value)

    def render_plan(self, plan, indent: int = 0) -> List[str]:
        """The original tree's EXPLAIN lines, each annotated with the
        operator's actuals: ``(actual rows=… time=…ms …)``."""
        stats = self.stats_of(plan)
        line = "  " * indent + _physical._explain_line(plan)
        if stats is not None:
            line += "  (actual rows=%d time=%.3fms%s)" % (
                stats.rows, stats.seconds * 1000.0,
                self._format_counters(self._exclusive(plan)))
        lines = [line]
        for child in plan.children():
            lines.extend(self.render_plan(child, indent + 1))
        return lines

    def render_summary(self) -> List[str]:
        """Statement-total lines (the statement's counter delta —
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
