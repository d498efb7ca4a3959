"""The engine's counters: one schema, one per-thread tally.

Everything the engine counts — the label-rule invocations the paper's
cost argument is made of (section 7.1), index probes, executor cells,
spill traffic, statistics sweeps, WAL writes, statement-cache hits and
parses, statements and rows written, buffer-cache page traffic
(section 8.3) — is one row of
:data:`SCHEMA`.  A counter is added by adding a row; storage, the
``Database.stats()`` report, per-statement deltas (:func:`delta`),
EXPLAIN ANALYZE's labels and the noninterference test's low set
(:data:`LOW`) all derive from it.  Named views nest a counter under its
group; a row whose group is ``None`` sits at the top level under its
field.

The hot paths do ``tally().field += 1``: :func:`tally` is the calling
thread's :class:`Tally`, one slotted object holding every counter, so
an increment is a read-modify-write of thread-private storage (one
function call and one thread-local lookup dearer than a bare slot) and
a statement bracket — two :func:`read` calls on the executing thread —
can only ever see its own thread's work, whatever other sessions
(threaded group commit) are doing.  Whole-process views sum the
per-thread tallies: :func:`snapshot` adds every thread's state to a
base that absorbs the tallies of threads that have exited.  A ``MAX``
row is a high-water gauge, combined with ``max`` rather than ``+``
wherever two tallies meet.

Every row is marked ``"low"`` or ``"high"``.  A low counter's
per-statement delta may not depend on tuples the reader cannot see,
*for a given plan*: it is an observable of Query by Label like the rows
themselves, and ``tests/test_noninterference.py`` asserts every one of
them equal across worlds that differ only in hidden tuples and plan
alike.  Plan choice itself is high (ARCHITECTURE.md, "Low and high").
A high counter may depend on hidden tuples, and the comment above its
row says how.  SQL shows only what is low: a high row has no EXPLAIN
ANALYZE name, so only ``Database.stats()`` and
``last_statement_metrics()`` — the embedder's — report it.
"""

from __future__ import annotations

import os
import threading
from operator import attrgetter, sub
from typing import Dict

SUM, MAX = "sum", "max"

#: ``(group, field, kind, EXPLAIN ANALYZE label, low/high)``, in report
#: order.  A ``None`` group puts the counter at the top level of every
#: named view, its field being its report name; a ``None`` label keeps
#: it off operator and statement-total lines, and every high row has
#: one.  Field names are unique across groups (they are the slots of
#: one object).
SCHEMA = (
    # -- labels: core/rules.py and the scan leaf --------------------------
    # Invocations of the two hot-path predicates, memo hits and
    # plain-subset fast paths included: the per-tuple call itself is
    # what Query by Label costs, and the set-at-a-time label routine
    # turns one call per tuple into one per distinct label per batch
    # (fig6 reads these to prove it) — per cut build for a frozen heap
    # segment, whose cut the next scan under the same reader key reuses
    # (``cuts_reused``).  ``rows_suppressed`` counts tuples
    # the scans rejected under the Label Confinement Rule, once per
    # batch — a suppression does not correspond to a ``covers`` call.
    # All four high, so EXPLAIN ANALYZE prints none of them: a hidden
    # tuple's label is checked like any other, counting the tuples the
    # reader may not see is the point, and whether a segment's kept cut
    # has this reader's key depends on which reader scanned it last,
    # whatever that reader's label.  Label diversity per segment is
    # ``covers_calls / segments_scanned`` of a statement's metrics.
    ("labels", "covers_calls", SUM, None, "high"),
    ("labels", "strip_calls", SUM, None, "high"),
    ("labels", "rows_suppressed", SUM, None, "high"),
    ("labels", "cuts_reused", SUM, None, "high"),
    # -- index: equality probes and ordered-range scans -------------------
    # The batched IndexLoopJoin probes once per distinct outer key per
    # batch — high, since a scan's batches end where heap segments do,
    # hidden versions included.  A range scan runs once per execution
    # of its operator, so its count follows the plan alone.
    ("index", "lookups", SUM, None, "high"),
    ("index", "range_scans", SUM, "range_scans", "low"),
    # -- exec: db/physical.py ---------------------------------------------
    # Cells of the scans' output columns — needed columns × emitted
    # rows, whether or not the arrays were copied (projection pushdown:
    # 2 of N columns is ``2 x rows`` cells) — and rows rebuilt
    # row-major from a columnar batch (at most once per output row, at
    # the cursor drain; once more under a scan predicate that has no
    # column kernel): both low, counted over label survivors only.
    # Candidate segments the scan leaf filtered — heap slices and
    # index-probe chunks alike — and those among them that passed the
    # MVCC bound check whole, with no per-row ``visible()``: both high,
    # since hidden tuples add segments and a hidden version's
    # ``xmin``/``xmax`` can thaw one.
    ("exec", "columns_materialized", SUM, "cells", "low"),
    ("exec", "rows_widened", SUM, "widened", "low"),
    ("exec", "segments_scanned", SUM, None, "high"),
    ("exec", "segments_frozen", SUM, None, "high"),
    # -- spill: db/spill.py -----------------------------------------------
    # ``spills`` is top-level join build overflows (one per join that
    # spilled, however deep the recursion), ``repartitions`` recursive
    # splits of join partitions and aggregation state,
    # ``partitions_created`` build spools that received rows; rows and
    # bytes are counted as each block reaches its temp file.
    # ``sort_*`` are external merge sorts and their runs, ``agg_*``
    # grace aggregations (and DISTINCTs) and their partitions.  All
    # low: only label survivors reach an operator's budget.
    ("spill", "spills", SUM, "spills", "low"),
    ("spill", "partitions_created", SUM, "spill_partitions", "low"),
    ("spill", "repartitions", SUM, "repartitions", "low"),
    ("spill", "rows_spilled", SUM, "spill_rows", "low"),
    ("spill", "bytes_spilled", SUM, "spill_bytes", "low"),
    ("spill", "sort_spills", SUM, "sort_spills", "low"),
    ("spill", "sort_runs", SUM, "sort_runs", "low"),
    ("spill", "agg_spills", SUM, "agg_spills", "low"),
    ("spill", "agg_partitions", SUM, "agg_partitions", "low"),
    # -- stats: Database.analyze ------------------------------------------
    # Tables ANALYZE evicted the cached plans of, and drift_refreshes,
    # always 0: nothing collects statistics any more.  Both stay only
    # because benchmarks/e2e/run.py reports them; the next change to
    # that benchmark drops them.  Hidden, and high as before.
    ("stats", "tables_collected", SUM, None, "high"),
    ("stats", "drift_refreshes", SUM, None, "high"),
    # -- wal: db/wal.py, on whichever thread led the flush ----------------
    # Records appended (commit + ddl), record bytes incl. headers,
    # flush batches, fsyncs, commit records made durable, flushes that
    # covered a commit, and the most commits one flush absorbed — a
    # gauge, hidden because a delta of it means nothing.  All high: a
    # flush leader counts its followers' records, whatever their label.
    ("wal", "records", SUM, None, "high"),
    ("wal", "bytes", SUM, None, "high"),
    ("wal", "flushes", SUM, None, "high"),
    ("wal", "fsyncs", SUM, None, "high"),
    ("wal", "commits", SUM, None, "high"),
    ("wal", "commit_flushes", SUM, None, "high"),
    ("wal", "group_commit_size", MAX, None, "high"),
    # -- parse: Database.parse, db/engine.py -------------------------------
    # Texts found in the statement cache, new texts bound into the
    # template of a shape seen before, and parses (a new shape, or a
    # raw value the template does not fit).  Hidden: parsing happens
    # before a statement's bracket opens.  All high: both caches are
    # shared by every session, so whether a text or a shape hits
    # depends on what other processes ran, whatever their labels.
    ("parse", "text_hits", SUM, None, "high"),
    ("parse", "shape_hits", SUM, None, "high"),
    ("parse", "parses", SUM, None, "high"),
    # -- plans: Database._prepare, db/engine.py ---------------------------
    # Texts that ran the plan another text of their plan key made
    # (``sql.template``).  High, like the parse counters.
    ("plans", "key_hits", SUM, None, "high"),
    # -- top level: db/session.py -----------------------------------------
    # Statements run through ``Session.execute_statement`` — a tracked
    # one is counted before its bracket opens, so its own delta holds
    # only the statements its triggers and functions ran — and rows
    # written by INSERT, UPDATE and DELETE.  All low: UPDATE and DELETE
    # reach only tuples the scans let through, INSERT writes the rows
    # its source produced, and triggers fire per row written.
    (None, "statements_executed", SUM, "statements", "low"),
    (None, "rows_inserted", SUM, "inserted", "low"),
    (None, "rows_updated", SUM, "updated", "low"),
    (None, "rows_deleted", SUM, "deleted", "low"),
    # -- top level: db/pages.py -------------------------------------------
    # Buffer-cache page hits and misses, LRU evictions, and the
    # simulated I/O seconds the misses charged (the one float counter).
    # All high: a hidden tuple's page is touched like any other.
    (None, "buffer_hits", SUM, None, "high"),
    (None, "buffer_misses", SUM, None, "high"),
    (None, "buffer_evictions", SUM, None, "high"),
    (None, "simulated_io_time", SUM, None, "high"),
)

#: ``(group, field)`` per :func:`read` slot.
CELLS = tuple(row[:2] for row in SCHEMA)
#: The cells marked low, in :data:`CELLS` order.
LOW = tuple(row[:2] for row in SCHEMA if row[4] == "low")
_FIELDS = tuple(field for _group, field in CELLS)
assert len(set(_FIELDS)) == len(_FIELDS), "counter fields must be unique"
assert all(row[4] == "low" for row in SCHEMA if row[3]), \
    "SQL shows only low counters: a high row has no EXPLAIN ANALYZE name"


class Tally:
    """Every counter of the schema, zeroed."""

    __slots__ = _FIELDS

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        for field in _FIELDS:
            setattr(self, field, 0)


_lock = threading.Lock()
#: ``(thread, tally)`` of every thread that has counted and may still.
_states: list = []
#: What the threads that have exited counted.
_base = Tally()


class _Local(threading.local):
    """``threading.local`` runs ``__init__`` in every thread that first
    touches it: the hook that enrols the new thread's tally."""

    def __init__(self):
        self.state = Tally()
        with _lock:
            _states.append((threading.current_thread(), self.state))


_local = _Local()
_slots = attrgetter(*_FIELDS)


def tally() -> Tally:
    """The calling thread's counters."""
    return _local.state


def read() -> tuple:
    """The calling thread's counters as a flat tuple in :data:`CELLS`
    order — cheap enough to bracket every statement and every
    EXPLAIN ANALYZE ``next()``."""
    return _slots(_local.state)


def _fold(into: Tally, state: Tally) -> None:
    for _group, field, kind, _label, _level in SCHEMA:
        held, value = getattr(into, field), getattr(state, field)
        setattr(into, field, max(held, value) if kind == MAX
                else held + value)


def _named(values) -> Dict[str, object]:
    """Values in :data:`CELLS` order as ``{group: {field: value}}``,
    with a ``None`` group's counters as top-level ``{field: value}``."""
    out: Dict[str, object] = {}
    for (group, field), value in zip(CELLS, values):
        if group is None:
            out[field] = value
        else:
            out.setdefault(group, {})[field] = value
    return out


def delta(before: tuple, after: tuple) -> Dict[str, object]:
    """What was counted between two :func:`read` calls, named like
    :func:`snapshot`: a statement's, a block's or an operator's counts."""
    return _named(map(sub, after, before))


def snapshot() -> Dict[str, object]:
    """Cross-thread totals, named (see :func:`_named`).  Tallies of
    threads that have exited are folded into the base and dropped, so
    the live list stays bounded by the number of live threads."""
    total = Tally()
    with _lock:
        _fold(total, _base)
        live = []
        for thread, state in _states:
            _fold(total, state)
            if thread.is_alive():
                live.append((thread, state))
            else:
                _fold(_base, state)
        _states[:] = live
    return _named(_slots(total))


def reset() -> None:
    """Zero every thread's tally and the base: test isolation and fresh
    measurement windows.  An increment racing it on another thread may
    survive."""
    with _lock:
        _base.clear()
        for _thread, state in _states:
            state.clear()


def _rearm_after_fork() -> None:
    """Lock safety for an embedder that forks: the fork can land while
    another thread holds the lock (a concurrent ``snapshot()``); that
    thread does not exist in the child, whose first ``reset()`` or
    ``snapshot()`` would wait on it forever.  The engine itself never
    forks."""
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):               # POSIX
    os.register_at_fork(after_in_child=_rearm_after_fork)
