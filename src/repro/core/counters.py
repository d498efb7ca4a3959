"""The engine's counters: one schema, one per-thread tally.

Everything the engine counts — the label-rule invocations the paper's
cost argument is made of (section 7.1), index probes, executor cells,
spill traffic, statistics sweeps, WAL writes — is one row of
:data:`SCHEMA`.  A counter is added by adding a row; storage, the
``Database.stats()`` report, per-statement deltas, the worker merge and
EXPLAIN ANALYZE's labels all derive from it.

The hot paths do ``tally().field += 1``: :func:`tally` is the calling
thread's :class:`Tally`, one slotted object holding every counter, so
an increment is a read-modify-write of thread-private storage (one
function call and one thread-local lookup dearer than a bare slot) and
a statement bracket — two :func:`read` calls on the executing thread —
can only ever see its own thread's work, whatever other sessions
(threaded group commit, a parallel gather) are doing.  Whole-process
views sum the per-thread tallies: :func:`snapshot` adds every thread's
state to a base that absorbs the tallies of threads that have exited.
A ``MAX`` row is a high-water gauge, combined with ``max`` rather than
``+`` wherever two tallies meet.
"""

from __future__ import annotations

import os
import threading
from operator import attrgetter
from typing import Dict

SUM, MAX = "sum", "max"

#: ``(group, field, kind, EXPLAIN ANALYZE label)``, in report order.  A
#: ``None`` label keeps the counter off operator and statement-total
#: lines.  Field names are unique across groups (they are the slots of
#: one object).
SCHEMA = (
    # -- labels: core/rules.py and the scan leaf --------------------------
    # Invocations of the two hot-path predicates, memo hits and
    # plain-subset fast paths included: the per-tuple call itself is
    # what Query by Label costs, and the set-at-a-time label routine
    # turns one call per tuple into one per distinct label per batch
    # (fig6 reads these to prove it).  ``rows_suppressed`` counts tuples
    # the scans rejected under the Label Confinement Rule, once per
    # batch — a suppression does not correspond to a ``covers`` call.
    ("labels", "covers_calls", SUM, "covers"),
    ("labels", "strip_calls", SUM, "strip"),
    ("labels", "rows_suppressed", SUM, "suppressed"),
    # -- index: equality probes and ordered-range scans -------------------
    # The batched IndexLoopJoin probes once per distinct outer key per
    # batch.
    ("index", "lookups", SUM, "lookups"),
    ("index", "range_scans", SUM, "range_scans"),
    # -- exec: db/physical.py ---------------------------------------------
    # Cells the scans copied into their output columns (projection
    # pushdown: 2 of N columns is ``2 x rows`` cells; a memoized heap
    # segment emitted whole is its own arrays, no cell copied) and rows
    # rebuilt row-major from a columnar batch (at most once per output
    # row, at the cursor drain; once more under a scan predicate that
    # has no column kernel).  Candidate
    # segments the scan leaf filtered — heap slices and index-probe
    # chunks alike — and those among them that passed the MVCC bound
    # check whole, with no per-row ``visible()``.
    ("exec", "columns_materialized", SUM, "cells"),
    ("exec", "rows_widened", SUM, "widened"),
    ("exec", "segments_scanned", SUM, "segments"),
    ("exec", "segments_frozen", SUM, "frozen"),
    # -- spill: db/spill.py -----------------------------------------------
    # ``spills`` is top-level join build overflows (one per join that
    # spilled, however deep the recursion), ``repartitions`` recursive
    # splits of join partitions and aggregation state,
    # ``partitions_created`` build spools that received rows; rows and
    # bytes are counted as each block reaches its temp file.
    # ``sort_*`` are external merge sorts and their runs, ``agg_*``
    # grace aggregations (and DISTINCTs) and their partitions.
    ("spill", "spills", SUM, "spills"),
    ("spill", "partitions_created", SUM, "spill_partitions"),
    ("spill", "repartitions", SUM, "repartitions"),
    ("spill", "rows_spilled", SUM, "spill_rows"),
    ("spill", "bytes_spilled", SUM, "spill_bytes"),
    ("spill", "sort_spills", SUM, "sort_spills"),
    ("spill", "sort_runs", SUM, "sort_runs"),
    ("spill", "agg_spills", SUM, "agg_spills"),
    ("spill", "agg_partitions", SUM, "agg_partitions"),
    # -- stats: db/stats.py -----------------------------------------------
    # Per-table collections from any trigger, and the automatic drift
    # refreshes among them.  Hidden: a sweep fires during planning,
    # outside any operator.
    ("stats", "tables_collected", SUM, None),
    ("stats", "drift_refreshes", SUM, None),
    # -- wal: db/wal.py, on whichever thread led the flush ----------------
    # Records appended (commit + ddl), record bytes incl. headers,
    # flush batches, fsyncs, commit records made durable, flushes that
    # covered a commit, and the most commits one flush absorbed — a
    # gauge, hidden because a delta of it means nothing.
    ("wal", "records", SUM, "wal_records"),
    ("wal", "bytes", SUM, "wal_bytes"),
    ("wal", "flushes", SUM, "wal_flushes"),
    ("wal", "fsyncs", SUM, "wal.fsyncs"),
    ("wal", "commits", SUM, "wal_commits"),
    ("wal", "commit_flushes", SUM, "wal.commit_flushes"),
    ("wal", "group_commit_size", MAX, None),
)

#: ``(group, field)`` per :func:`read` slot.
CELLS = tuple((group, field) for group, field, _kind, _label in SCHEMA)
_FIELDS = tuple(field for _group, field in CELLS)
assert len(set(_FIELDS)) == len(_FIELDS), "counter fields must be unique"


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


def _add(state: Tally, field: str, kind: str, value) -> None:
    held = getattr(state, field)
    setattr(state, field, max(held, value) if kind == MAX else held + value)


def _fold(into: Tally, state: Tally) -> None:
    for _group, field, kind, _label in SCHEMA:
        _add(into, field, kind, getattr(state, field))


def snapshot() -> Dict[str, Dict[str, int]]:
    """Cross-thread totals, ``{group: {field: value}}``.  Tallies of
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
    out: Dict[str, Dict[str, int]] = {}
    for group, field in CELLS:
        out.setdefault(group, {})[field] = getattr(total, field)
    return out


def reset() -> None:
    """Zero every thread's tally and the base: test isolation, fresh
    measurement windows, a worker's first act after the fork.  An
    increment racing it on another thread may survive."""
    with _lock:
        _base.clear()
        for _thread, state in _states:
            state.clear()


def merge(taken: Dict[str, Dict[str, int]]) -> None:
    """Add a :func:`snapshot` onto the **calling thread's** tally — the
    coordinator half of the worker protocol (workers reset, count
    privately, ship their snapshot), so a statement that gathers
    workers sees their counts inside its own bracket."""
    state = tally()
    for group, field, kind, _label in SCHEMA:
        if field in taken.get(group, ()):
            _add(state, field, kind, taken[group][field])


def _rearm_after_fork() -> None:
    """A fork can land while another thread holds the lock (a
    concurrent ``snapshot()``); that thread does not exist in the
    child, whose first ``reset()`` would wait on it forever."""
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):               # POSIX
    os.register_at_fork(after_in_child=_rearm_after_fork)
