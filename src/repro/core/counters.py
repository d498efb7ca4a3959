"""Thread-aware counter groups.

The engine's counter families (label rules, index probes, executor,
spill, stats, WAL) are process-wide singletons whose hot paths do
``COUNTERS.field += 1``.  That was fine single-threaded, but the
per-statement metrics bracket reads the same singletons around every
statement: two sessions executing concurrently (threaded group commit,
the parallel worker pool's coordinator thread) would attribute each
other's counters to the wrong statement.

:class:`CounterGroup` fixes this with the same accumulate-then-merge
shape the parallel executor uses between processes, applied between
threads:

* plain attribute reads/writes (``group.field``) go — through one
  property per field — to a **per-thread** slotted state object, so
  ``+=`` stays a linearizable read-modify-write of thread-private
  storage and a statement bracket (two reads on the executing thread)
  can only ever see its own thread's work;
* :meth:`totals` / :meth:`snapshot` sum the per-thread states (plus a
  base that absorbs the states of threads that have exited), so
  whole-process views — ``Database.stats()``, benchmark snapshots —
  still see everything every thread did;
* fields named in :attr:`MAX_FIELDS` are high-water gauges, not
  additive counters: totals combine them with ``max`` instead of ``+``
  (e.g. the WAL's largest group-commit batch).

Subclasses declare their counters in :attr:`FIELDS` (an ordered tuple,
deliberately *not* ``__slots__``: real slots would be storage shared
across threads, which is the bug this class exists to fix).
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Dict, Tuple

#: Every live group, so a forked child can re-arm the locks it
#: inherited (see ``_reinit_locks_after_fork``).
_ALL_GROUPS: list = []


class _GroupLocal(threading.local):
    """One slotted state object per (group, thread).

    ``threading.local`` re-runs ``__init__`` with the original
    constructor arguments in every thread that first touches an
    attribute, which is exactly the hook needed to register the new
    thread's state with the owning group.
    """

    def __init__(self, owner: "CounterGroup"):
        state = owner._state_type()
        self.state = state
        with owner._lock:
            owner._states.append((threading.current_thread(), state))


def _state_type_for(cls) -> type:
    """The per-thread storage type for a CounterGroup subclass: a
    slotted class with one int slot per field, zeroed on creation
    (cached on the subclass)."""
    cached = cls.__dict__.get("_STATE_TYPE")
    if cached is not None:
        return cached
    fields = cls.FIELDS

    def _init(self, _fields=fields):
        for field in _fields:
            setattr(self, field, 0)

    state_type = type(cls.__name__ + "State", (),
                      {"__slots__": fields, "__init__": _init})
    cls._STATE_TYPE = state_type
    return state_type


def _thread_field(name: str) -> property:
    """``group.<name>``, routed to the calling thread's state.  Every
    hot path's ``COUNTERS.field += 1`` is one get and one set here."""
    return property(
        lambda group: getattr(group._local.state, name),
        lambda group, value: setattr(group._local.state, name, value))


class CounterGroup:
    """Base class for thread-aware counter families (see module doc)."""

    #: Ordered counter names.  Subclasses must override.
    FIELDS: Tuple[str, ...] = ()
    #: Subset of FIELDS that are high-water gauges (max-combined).
    MAX_FIELDS: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for field in cls.FIELDS:
            setattr(cls, field, _thread_field(field))

    def __init__(self):
        cls = type(self)
        self._state_type = _state_type_for(cls)
        self._lock = threading.Lock()
        self._states: list = []
        self._base = dict.fromkeys(cls.FIELDS, 0)
        self._local = _GroupLocal(self)
        _ALL_GROUPS.append(weakref.ref(self))

    # -- cross-thread views ---------------------------------------------
    def totals(self) -> Dict[str, int]:
        """Sum of every thread's state plus the folded base, in FIELDS
        order.  States of threads that have exited are folded into the
        base and dropped, so the list of live states stays bounded by
        the number of live threads."""
        cls = type(self)
        fields = cls.FIELDS
        maxes = cls.MAX_FIELDS
        current = threading.current_thread()
        with self._lock:
            base = self._base
            out = dict(base)
            live = []
            for thread, state in self._states:
                for field in fields:
                    value = getattr(state, field)
                    if field in maxes:
                        if value > out[field]:
                            out[field] = value
                    else:
                        out[field] += value
                if thread.is_alive() or thread is current:
                    live.append((thread, state))
                else:
                    for field in fields:
                        value = getattr(state, field)
                        if field in maxes:
                            if value > base[field]:
                                base[field] = value
                        else:
                            base[field] += value
            self._states[:] = live
        return out

    def snapshot(self) -> Dict[str, int]:
        return self.totals()

    def reset(self) -> None:
        """Zero the base and every thread's state.

        Meant for test isolation / fresh measurement windows while no
        *other* thread is mid-increment; a concurrent ``+=`` on another
        thread may survive the reset (it raced it), which is the best
        any reset of live counters can promise.
        """
        with self._lock:
            for field in type(self).FIELDS:
                self._base[field] = 0
            for _thread, state in self._states:
                for field in type(self).FIELDS:
                    setattr(state, field, 0)


def _reinit_locks_after_fork() -> None:
    """Re-arm every group's lock in a freshly forked child.

    A fork can land while another parent thread holds a group's lock
    (a concurrent ``totals()``); that thread does not exist in the
    child, so the inherited lock would stay held forever and the
    child's first ``reset()``/``totals()`` would deadlock.  The child
    is single-threaded at this point, so replacing the locks outright
    is safe.
    """
    dead = []
    for ref in _ALL_GROUPS:
        group = ref()
        if group is None:
            dead.append(ref)
            continue
        group._lock = threading.Lock()
    for ref in dead:
        _ALL_GROUPS.remove(ref)


if hasattr(os, "register_at_fork"):               # POSIX; 3.7+
    os.register_at_fork(after_in_child=_reinit_locks_after_fork)
