"""Span recorder for the traced pass.

The benchmark measures every layer from outside the engine: this module
replaces public entry points (class attributes, plus the one module
global ``db.engine`` looks ``parse_statement`` up through) with wrappers
that record a span, and puts the originals back afterwards.  No file
under ``src/`` is edited; spans inside the engine are a later issue.

A span is ``(name, start, end, parent, op, sid)``: ``parent`` is the
``sid`` of the span that caused it (-1 for a root) and ``op`` the
``sid`` of its root, so the spans of one operation share an identifier.
Spans stay in memory and are written out when the pass has ended.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: ``(span name, module, class or None for a module global, attribute)``.
TARGETS: Tuple[Tuple[str, str, object, str], ...] = (
    ("platform.web.handle", "repro.platform.web", "WebApp", "handle"),
    ("platform.connection.execute", "repro.platform.connection",
     "IFConnection", "execute"),
    ("db.session.execute_statement", "repro.db.session", "Session",
     "execute_statement"),
    ("db.session.commit", "repro.db.session", "Session", "commit"),
    ("db.engine.parse", "repro.db.engine", "Database", "parse"),
    ("sql.parser.parse_statement", "repro.db.engine", None,
     "parse_statement"),
    ("db.engine.prepare", "repro.db.engine", "Database", "prepare_select"),
    ("db.engine.prepare", "repro.db.engine", "Database", "prepare_dml"),
    ("db.engine.prepare", "repro.db.engine", "Database", "prepare_insert"),
    ("db.planner.plan", "repro.db.planner", "Planner", "plan_select"),
    ("db.planner.plan", "repro.db.planner", "Planner", "plan_dml"),
    ("db.optimizer.optimize", "repro.db.optimizer", "Optimizer",
     "optimize"),
    ("db.optimizer.optimize", "repro.db.optimizer", "Optimizer",
     "optimize_dml"),
    ("db.wal.log_commit", "repro.db.wal", "WriteAheadLog", "log_commit"),
    ("db.engine.recover", "repro.db.engine", "Database", "recover"),
)

Span = Tuple[str, float, float, int, int, int]


class Tracer:
    """Records spans around wrapped callables, one stack per thread."""

    #: The root span a client loop opens around each operation.
    OP_SPAN = "driver.op"

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._patched: List[Tuple[object, str, Callable]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        append = self.spans.append
        local = self._local
        next_id = self._ids.__next__
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next_id()
            if stack:
                parent, op = stack[-1]
            else:
                parent, op = -1, sid
            stack.append((sid, op))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                append((name, start, end, parent, op, sid))

        return traced

    def install(self) -> None:
        for name, module_name, cls_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            for name, start, end, parent, op, sid in self.spans:
                out.write(json.dumps({"name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "op": op, "sid": sid}))
                out.write("\n")


def summarize(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, self seconds (a span's duration minus
    the part its child spans cover; children of one span run on one
    thread, so they never overlap) and outer seconds (the duration of
    the spans that have no ancestor of the same name, so a statement a
    trigger runs inside another statement is not counted twice)."""
    covered: Dict[int, float] = defaultdict(float)
    by_sid = {}
    for name, start, end, parent, _op, sid in spans:
        by_sid[sid] = (name, parent)
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "self_s": 0.0, "outer_s": 0.0})
    for name, start, end, parent, _op, sid in spans:
        entry = out[name]
        entry["count"] += 1
        entry["self_s"] += (end - start) - covered.get(sid, 0.0)
        while parent >= 0 and by_sid[parent][0] != name:
            parent = by_sid[parent][1]
        if parent < 0:
            entry["outer_s"] += end - start
    return out
