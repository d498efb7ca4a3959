"""Physical operators: the pull-based execution layer.

This is the bottom of the three-layer query pipeline
(:mod:`repro.db.logical` → :mod:`repro.db.optimizer` → here).  Each
operator yields ``(values, label, ilabel)`` triples.  Query by Label is
enforced at the bottom of the tree, in the scan operators, mirroring the
paper's design decision (section 7.1): visibility — MVCC *and* label
confinement — is decided "at the layer that reads and writes tuples in
tables", so nothing a higher layer does can surface a tuple the process
may not see.

**One operator protocol.**  Every operator implements ``batches()``
and nothing else: it pulls :class:`RowBatch` objects of up to
``batch_size`` rows from its children and yields batches.  Row ``i`` of
a batch is the ``(values, label, ilabel)`` triple of the paper's tuple
model; the cursor (:mod:`repro.db.session`), ``INSERT … SELECT`` and the
expression subqueries drain batches like any other consumer.
``batch_size`` is a chunk size, stamped tree-wide by the planner
(:func:`stamp_batch_size`) and always at least 1 — it never selects a
code path.

The path is **set-at-a-time from heap to result**: a batch has one
layout (:class:`RowBatch` — its columns and its two label sequences)
and no operator builds its rows (:meth:`RowBatch.rows` is called by the
cursor, ``INSERT … SELECT`` and a kernel-less expression only).

* **scan** — the leaf decides visibility (:func:`_visible_segment`,
  the one routine behind ``Scan.batches``, ``Scan.versions`` and the
  ``IndexLoopJoin`` probe) of one :class:`~repro.db.storage.Segment`
  at a time: a heap slice, whose summary the heap memoizes between
  statements and drops at its three mutation points (``append``,
  ``stamp``, ``unlink`` — see :mod:`repro.db.storage`), or the
  candidates of an index probe, summarized for the one scan.  The leaf
  holds the executor's **one fork**, chosen by the candidates actually
  found, never by an estimate or an option: a segment of fewer than
  :data:`SET_AT_A_TIME_MIN` versions runs the per-version loop —
  ``touch``, ``visible()``, one ``strip``/``covers`` per tuple, the
  paper's per-tuple ground truth, reading the versions themselves —
  and a larger one is charged to the buffer cache by page run
  (:meth:`~repro.db.storage.Table.touch_segment`), MVCC-checked by
  three bounds against the summary's newest ``xmin`` where no ``xmax``
  is set, and label-checked with one ``strip``/``covers`` per distinct
  label, the rest of the segment kept or dropped through that verdict
  map at C speed.  What the leaf returns is flag lists that cut the
  segment's parallel sequences — versions, integrity labels, column
  arrays (:meth:`~repro.db.storage.Segment.kept` and its siblings) —
  down to the survivors.  The scan predicate then runs
  column-at-a-time over the label survivors' column arrays only.  The
  cached cells and labels of hidden tuples are no observable: what
  leaves the leaf is decided per statement, from the reader's label
  and snapshot, and a rebuilt summary equals a kept one
  (``tests/test_segments.py``);
* **folds** — aggregation (``SELECT DISTINCT`` is the aggregation
  with no aggregates), sorting and the joins read :class:`RowBatch`
  columns directly: keys and arguments are batch-compiled
  (:meth:`repro.db.expressions.ExprCompiler.compile_batch`), and label
  unions are skipped (in C: a label is a ``frozenset``) wherever they
  add no tag.  Aggregation works a batch at a time: a dense group id
  per row, one state list per aggregate indexed by it (the kernel table
  :data:`_KERNELS`, resolved per function at plan time), one label
  union per distinct ``(group, label)`` pair, and finished groups
  sliced from the state lists into batches.  A join holds its right
  side as columns too (:class:`~repro.db.spill.JoinSide`): a key's
  matches are row numbers, and the output is gathered by left index
  and right row number.  Rows are zipped out of columns only to spool
  them to a spill file, and the one row producer left (the merge of
  spilled sort runs) transposes its rows back into columns a chunk at
  a time (:func:`_row_batches`).

**The reference executor** of the differential harness is these same
operators at batch size 1 over naive plans
(:meth:`~repro.db.optimizer.Optimizer.exec_batch_size`): one-version
segments always take the per-version loop — and are never memoized —
so the segment summaries, the label-run memo, the MVCC bound check and
the page-run accounting are checked against per-tuple
``covers``/``visible``/``touch``, not against themselves.

Label enforcement itself never moves: visibility is decided in the
scan, below every optimization and batching decision.

A plan runs on the thread that executes its statement, as the paper's
prototype runs a query inside one backend: a spilled join or
aggregate drains its grace partitions one after another.

Label flow through operators:

* scans emit the tuple's label (stripped of any enclosing declassifying
  view's tags);
* joins emit the union of the joined rows' labels;
* aggregation emits the union of the group's labels — and a DISTINCT
  row is a group: the one collapse is :meth:`AggregateNode._fold`;
* projection/sort/limit pass labels through.

Because scans filter to ``LT ⊆ LP``, every emitted label is covered by
the process label — reading query results never contaminates the process
(that is the point of Query by Label, section 4.2).

Operators carry an optional ``explain`` attribute, a one-line summary
attached by the planner during lowering and rendered by ``EXPLAIN``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import defaultdict
from functools import partial, reduce
from itertools import (accumulate, compress, count, filterfalse, islice,
                       repeat)
from operator import (add as _add, gt as _gt, itemgetter, lt as _lt,
                      neg as _neg, not_ as _not)
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.counters import tally
from ..core.labels import EMPTY_LABEL, Label
from ..core.rules import covers, strip
from ..errors import AuthorityError, DatabaseError
from .catalog import ViewDef
from .expressions import evaluation_error
from .spill import (AGG_STATE_BYTES, BUCKET_ENTRY_BYTES, NULL_ROW,
                    GroupSpill, JoinSide, MAX_RECURSION, SortRuns,
                    SpilledHashBuild, Spools, column_keys, column_rows,
                    estimate_batch_bytes, estimate_row_bytes,
                    key_columns_of, take_rows)
from .storage import (SET_AT_A_TIME_MIN, HeapSegment, LabelCut, Segment,
                      Table)

#: Rows per batch when no explicit size is configured (the engine reads
#: ``REPRO_BATCH_SIZE`` and passes its own default through the planner).
DEFAULT_BATCH_SIZE = 1024


class RowBatch:
    """A batch of execution rows: its columns and its two label
    sequences.

    Row ``i`` is the ``(values[i], labels[i], ilabels[i])`` triple of
    the paper's tuple model, stored as three parallel things:

    * ``columns[j]`` is column ``j``'s value sequence — a list, or the
      tuple a heap segment keeps for every scan, so nothing may mutate
      a batch's sequences in place — or ``None``: the planner proved
      the column is never read (projection pushdown) and it was never
      materialized; reading it yields SQL NULLs;
    * ``labels``/``ilabels`` are per-row sequences — label checks are
      tuple-granularity in the paper's model (a tag protects a row, not
      a cell), and the interned label objects already behave as a
      dictionary-encoded column.  They give the batch its length, so a
      batch keeps its width when it has no rows and its rows when it
      has no columns.

    Operators read :meth:`column` / :meth:`filled` and cut a batch
    down with :meth:`select`.  :meth:`rows` is the one place a row is
    built from a batch; its callers sit outside the operator tree (the
    cursor, ``INSERT … SELECT``) or are expression nodes without a
    column kernel.
    """

    __slots__ = ("_columns", "labels", "ilabels")

    def __init__(self, columns: list, labels: list, ilabels: list):
        self._columns = columns
        self.labels = labels
        self.ilabels = ilabels

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def width(self) -> int:
        return len(self._columns)

    def column(self, index: int) -> list:
        """Column ``index`` — the stored sequence itself; a
        projected-away column reads as all-NULL."""
        column = self._columns[index]
        return [None] * len(self.labels) if column is None else column

    def columns(self) -> list:
        """All columns, ``None`` marking one that was projected away
        (so consumers can keep not materializing it)."""
        return list(self._columns)

    def filled(self) -> list:
        """Every column, the projected-away ones filled in as NULLs."""
        nulls = [None] * len(self.labels)
        return [nulls if column is None else column
                for column in self._columns]

    def rows(self) -> list:
        """The value tuple of every row (counted in
        ``exec.rows_widened``)."""
        n = len(self.labels)
        tally().rows_widened += n
        return list(column_rows(self._columns, n))

    def select(self, keep) -> "RowBatch":
        """The sub-batch at row indexes ``keep`` (in order): every
        materialized column and both label sequences gathered — sliced,
        when ``keep`` is a unit-step ``range``."""
        return RowBatch(*take_rows(self._columns, self.labels, self.ilabels,
                                   keep))


def _chunked(iterator, size: int):
    """Chunk an iterator into lists of up to ``size``."""
    iterator = iter(iterator)
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield chunk


def _probe_segments(table: Table, index, key: tuple, size: int) -> list:
    """The candidate versions of one equality probe, in segments of up
    to ``size``."""
    versions = list(table.versions_for_tids(index.lookup(key)))
    return [Segment(versions[lo:lo + size])
            for lo in range(0, len(versions), size)]


def _row_batches(rows, size: int) -> Iterator[RowBatch]:
    """Batches of up to ``size`` from ``(values, label, ilabel)`` rows,
    each chunk transposed once — how the merge of spilled sort runs
    feeds batch consumers."""
    for chunk in _chunked(rows, size):
        values, labels, ilabels = zip(*chunk)
        yield RowBatch(list(zip(*values)), list(labels), list(ilabels))


def _buffered(held: Optional[list], parts: list) -> list:
    """``parts`` (parallel columns) appended to the column buffer
    ``held`` — copied, when there is none yet."""
    if held is None:
        return [list(part) for part in parts]
    for column, part in zip(held, parts):
        column.extend(part)
    return held


def _permuted(held: list, order, size: int) -> Iterator[RowBatch]:
    """Batches of up to ``size`` gathered from a buffer of value
    columns followed by the label and ilabel columns, in the row order
    ``order``."""
    *columns, labels, ilabels = held
    for lo in range(0, len(order), size):
        yield RowBatch(*take_rows(columns, labels, ilabels,
                                  order[lo:lo + size]))


class ExecContext:
    """Per-execution state threaded through plan nodes and expressions."""

    __slots__ = ("session", "params", "slot_values", "outer_stack",
                 "read_label", "read_ilabel", "principal", "registry",
                 "authority", "ifc_enabled", "work_mem", "_spools",
                 "audited_views")

    def __init__(self, session, params: tuple, read_label: Label,
                 read_ilabel: Label, principal: Optional[int],
                 slot_values: tuple = ()):
        self.session = session
        self.params = params
        #: The values of the executing text's literal slots
        #: (``ex.LiteralSlot``), apart from its ``?`` parameters.
        self.slot_values = slot_values
        self.outer_stack: list = []
        self.read_label = read_label
        self.read_ilabel = read_ilabel
        self.principal = principal
        self.authority = session.db.authority
        self.registry = self.authority.tags
        self.ifc_enabled = session.db.ifc_enabled
        #: Per-operator memory budget in bytes (0 = unbounded): read at
        #: execution time so a cached plan honours the database's
        #: current ``work_mem`` — spilling is a runtime overflow
        #: reaction, not a plan property (the optimizer only *costs* it).
        self.work_mem = session.db.work_mem
        self._spools: Optional[Spools] = None
        #: Names of the declassifying views this statement already
        #: audited.
        self.audited_views: set = set()

    @property
    def spools(self) -> Spools:
        """What this statement's spill files share (made on the first
        overflow: most statements never spill)."""
        if self._spools is None:
            db = self.session.db
            self._spools = Spools(self.work_mem, db.batch_size,
                                  db.spill_faults)
        return self._spools

    def now(self) -> float:
        return self.session.db.clock()


class Plan:
    """Base class: a pull-based operator producing :class:`RowBatch`
    objects through ``batches()`` — the only operator protocol."""

    #: One-line EXPLAIN annotation, attached by the planner at lowering.
    explain: Optional[str] = None
    #: Optimizer estimates (rows out of this operator, cumulative cost),
    #: attached by the planner at lowering and rendered by EXPLAIN.
    est_rows: Optional[float] = None
    est_cost: Optional[float] = None
    #: Rows per batch (at least 1): a chunk size only.  Stamped
    #: tree-wide by the planner at lowering (:func:`stamp_batch_size`).
    batch_size: int = DEFAULT_BATCH_SIZE
    #: Estimated peak operator memory in bytes (materializing operators
    #: only — join builds and inner materializations), attached by the
    #: planner and rendered by EXPLAIN.  Under a ``work_mem`` budget a
    #: spilling operator's estimate is its per-partition share, i.e.
    #: the expected peak *resident* footprint.
    est_mem: Optional[float] = None
    #: Optimizer-estimated grace-spill leaf partitions (0 = expected to
    #: fit in ``work_mem``); rendered by EXPLAIN.
    est_spill_partitions: int = 0
    #: Optimizer-estimated external-sort runs (0 = the sort is expected
    #: to run fully in memory); rendered by EXPLAIN as ``runs=N``.
    est_runs: int = 0
    #: Names of the attributes that hold this operator's input plans,
    #: in EXPLAIN order: the one declaration every tree walk reads
    #: (:meth:`children`; EXPLAIN ANALYZE rewires them on its clones).
    CHILDREN: Tuple[str, ...] = ()

    def children(self) -> List["Plan"]:
        return [getattr(self, attr) for attr in self.CHILDREN]

    def batches(self, ctx: ExecContext) -> Iterator[RowBatch]:
        raise NotImplementedError


class SingleRow(Plan):
    """SELECT without FROM: one empty input row."""

    def batches(self, ctx):
        yield RowBatch([], [EMPTY_LABEL], [EMPTY_LABEL])


def _visible_segment(ctx: ExecContext, table: Table, segment: Segment,
                     declass: Label, memo: Tuple[dict, dict]
                     ) -> Tuple[list, list]:
    """Visibility of one segment — buffer-cache charge, MVCC, Query by
    Label: ``(selectors, labels)``, the flag lists that cut the
    segment's parallel sequences down to its visible versions
    (:meth:`~repro.db.storage.Segment.kept`; none when all are) and
    the labels those emit (stripped of ``declass``).  Every tuple any
    operator reads comes through here.

    This is the executor's one fork, and it follows the segment
    actually found: fewer than :data:`SET_AT_A_TIME_MIN` versions run
    the per-version loop, which reads the versions themselves and
    consults neither the segment's summary nor ``memo`` — one
    ``touch``, one ``visible()`` and one ``strip``/``covers`` per
    tuple.  More are filtered set-at-a-time from the summary (built
    here for a probe's candidates, long since for a memoized heap
    slice): charged to the buffer cache by page run, MVCC-checked by
    three bounds, and label-checked once per distinct label under
    ``memo``, the caller's ``(verdicts, stripped)`` dicts keyed on the
    stored label — every tuple is then kept or dropped through that
    verdict map by ``map``/``compress``, whatever the layout of labels
    in the heap, and ``rows_suppressed`` is bumped once, by the number
    dropped.  A heap segment found frozen keeps that answer for the
    reader key it was built for (:func:`_kept_cut`), so the next scan
    under the same key runs no ``covers`` or ``strip`` for it at all
    (``cuts_reused``).  The two sides agree on every output and every
    counter except how often ``covers`` and ``strip`` run and how many
    cuts were reused.

    **The MVCC bound check.**  If no version of the segment has been
    deleted (``stamped`` unset) and the newest ``xmin`` is below both
    the snapshot and the transaction manager's committed horizon, every
    version was created by a transaction that committed before the
    snapshot — the segment is visible whole, with zero per-row checks
    (``segments_frozen``).  Any in-flight concurrent transaction old
    enough to matter (``min_in_progress``), any rolled-back creator
    whose versions the next ``begin()`` has yet to unlink (the horizon
    stalls on it), or any deletion drops the segment to per-row
    ``visible()``.

    The horizon is the only moving part: it advances when a concurrent
    writer commits, possibly *mid-statement* (a spilled hash join can
    keep scanning long after its first output row).  That is safe by
    construction: the two snapshot-anchored bounds never move, and any
    version such a writer created fails one of them — a writer begun
    after the snapshot has ``xmin >= snapshot.xmax``, one in flight at
    snapshot time has ``xmin >= min_in_progress`` — so the segment
    drops to per-row ``visible()``, which consults the immutable
    snapshot.  An advancing horizon alone can therefore never admit a
    snapshot-invisible version (regression:
    ``tests/test_spill.py::test_spilled_hash_join_sees_statement_snapshot``).
    """
    session = ctx.session
    txn = session.transaction
    txn_manager = session.db.txn_manager
    versions = segment.versions
    registry = ctx.registry
    read_label = ctx.read_label
    counts = tally()
    counts.segments_scanned += 1
    if len(versions) < SET_AT_A_TIME_MIN:
        flags, labels = [], []
        check_labels = ctx.ifc_enabled
        for version in versions:
            table.touch(version)
            keep = txn_manager.visible(version, txn)
            if keep:
                label = version.label
                if check_labels:
                    if declass:
                        label = strip(registry, label, declass)
                    keep = covers(registry, label, read_label)
                if keep:
                    labels.append(label)
                else:
                    counts.rows_suppressed += 1
            flags.append(keep)
        return ([] if len(labels) == len(flags) else [flags]), labels
    if segment.labels is None:
        segment.summarize()
    table.touch_segment(segment)
    selectors = []
    labels = segment.labels
    snapshot = txn.snapshot
    if (not segment.stamped and segment.hi_xmin < snapshot.xmax
            and (snapshot.min_in_progress is None
                 or segment.hi_xmin < snapshot.min_in_progress)
            and segment.hi_xmin < txn_manager.committed_horizon()):
        counts.segments_frozen += 1
        distinct = segment.distinct
        if ctx.ifc_enabled and isinstance(segment, HeapSegment):
            cut = _kept_cut(ctx, segment, declass, memo)
            counts.rows_suppressed += cut.suppressed
            return ([] if cut.flags is None else [cut.flags]), cut.labels
    else:
        visible = txn_manager.visible
        flags = [visible(version, txn) for version in versions]
        if not all(flags):
            selectors.append(flags)
            labels = list(compress(labels, flags))
        distinct = set(labels)
    if ctx.ifc_enabled:
        flags, labels, suppressed = _label_verdicts(ctx, labels, distinct,
                                                    declass, memo)
        if flags is not None:
            selectors.append(flags)
            counts.rows_suppressed += suppressed
    return selectors, labels


def _label_verdicts(ctx: ExecContext, labels, distinct, declass: Label,
                    memo: Tuple[dict, dict]):
    """Query by Label over a segment's MVCC survivors, once per distinct
    label: ``labels`` (``distinct``: each of them once) to ``(flags,
    emitted, suppressed)`` — the flags that keep the covered ones
    (``None`` when all are), the labels those emit (stripped of
    ``declass``) and how many were dropped.  ``strip``/``covers`` run
    for a label ``memo``'s ``(verdicts, stripped)`` dicts do not hold
    yet."""
    registry = ctx.registry
    read_label = ctx.read_label
    verdicts, stripped = memo
    hidden = False
    for label in distinct:
        ok = verdicts.get(label)
        if ok is None:
            emitted = label
            if declass:
                emitted = stripped[label] = strip(registry, label, declass)
            ok = verdicts[label] = covers(registry, emitted, read_label)
        hidden = hidden or not ok
    flags, suppressed = None, 0
    if hidden:
        flags = tuple(map(verdicts.__getitem__, labels))
        suppressed = flags.count(False)
        labels = tuple(compress(labels, flags))
    if declass:
        labels = tuple(map(stripped.__getitem__, labels))
    return flags, labels, suppressed


def _kept_cut(ctx: ExecContext, segment: HeapSegment, declass: Label,
              memo: Tuple[dict, dict]) -> LabelCut:
    """The label cut of a heap segment found frozen: the one the
    segment keeps, when the last reader it was built for had this
    reader's key — label, declassified tags and registry version, all a
    verdict depends on once MVCC has nothing to drop — or one built now
    by :func:`_label_verdicts`, replacing it."""
    key = (ctx.read_label, declass, ctx.registry.version)
    cut = segment.cut
    if cut is not None and cut.key == key:
        tally().cuts_reused += 1
        if cut.columns is None:
            cut.columns = {}
        return cut
    cut = segment.cut = LabelCut(key, *_label_verdicts(
        ctx, segment.labels, segment.distinct, declass, memo))
    return cut


def _check_view_authority(ctx: ExecContext, view_grants) -> None:
    """Re-validate, at execution time, the authority of every
    declassifying view enclosing a scan or an index-join probe (it may
    have been revoked since planning), and record the IFC audit trail's
    one ``declassify_view`` event per view per statement (see
    :class:`repro.db.metrics.Ring`)."""
    audit = ctx.session.db.audit
    for view, tags in view_grants:
        for tag_id in tags:
            if not ctx.authority.has_authority(view.principal, tag_id):
                raise AuthorityError(
                    "declassifying view %r lost authority for tag %d "
                    "(revoked?)" % (view.name, tag_id))
        if audit is not None and view.name not in ctx.audited_views:
            ctx.audited_views.add(view.name)
            audit.record(kind="declassify_view", view=view.name,
                         tags=tuple(sorted(tags)))


class Scan(Plan):
    """Label-filtered, MVCC-filtered scan of a base table.

    ``declass`` is the union of tags declassified by enclosing
    declassifying views; ``view_grants`` lists (view, tags) pairs whose
    authority must be re-validated at execution time.  Emitted rows carry
    the *stripped* label, and visibility requires the stripped label to
    be covered by the process label — an invisible tuple stays invisible
    no matter what the query looks like.

    ``predicate`` is batch-compiled
    (:meth:`repro.db.expressions.ExprCompiler.compile_batch`) and evaluated
    column-at-a-time over the tuples that survived MVCC *and* the label
    check — never over a suppressed one: its batch is built from the
    segment's arrays of ``predicate_columns`` (the stored-column
    positions the predicate reads, worked out by the planner) *after*
    they were cut down to the label survivors, with the emitted labels
    as the ``_label`` pseudo-column.  No row is built, and no cell of a
    hidden tuple meets an expression.

    ``needed`` is the projection the optimizer pushed down: the sorted
    tuple of stored-column positions anything above this scan reads
    (``None`` = all of them).  The scan emits *only* those columns —
    the rest read as NULL — which is safe because the planner proved
    no expression above the scan references them.  ``versions()`` (DML
    xmax stamping) yields the stored versions themselves.
    """

    def __init__(self, table: Table, predicate: Optional[Callable],
                 declass: Label, view_grants: List[Tuple[ViewDef, Label]],
                 predicate_columns: Tuple[int, ...] = (),
                 needed: Optional[Tuple[int, ...]] = None):
        self.table = table
        self.predicate = predicate
        self.declass = declass
        self.view_grants = view_grants
        self.predicate_columns = predicate_columns
        self.needed = needed
        #: Projected column names for EXPLAIN (``cols=…``); None when
        #: the scan emits full width.
        self.needed_names = (
            None if needed is None
            else [table.schema.column_names[p] for p in needed])

    def _segments(self, ctx: ExecContext):
        """Candidate versions in segments of up to ``batch_size``: here
        the heap's own (memoized) slices; the index scans override the
        access path."""
        return self.table.segments(self.batch_size)

    def _visible(self, ctx: ExecContext, segment: Segment):
        """The scan core, shared by :meth:`batches` and
        :meth:`versions`: ``(selectors, labels)`` of the segment's
        versions that are visible (:func:`_visible_segment`, one label
        memo per segment) and pass the predicate."""
        selectors, labels = _visible_segment(ctx, self.table, segment,
                                             self.declass, ({}, {}))
        predicate = self.predicate
        if predicate is not None and labels:
            columns = segment.columns(self.predicate_columns, selectors,
                                      len(self.table.schema.columns))
            columns.append(labels)       # the ``_label`` pseudo-column
            # Integrity labels are not part of the predicate row.
            flags = predicate(RowBatch(columns, labels, labels), ctx)
            if not all(flags):
                selectors.append(flags)
                labels = list(compress(labels, flags))
        return selectors, labels

    def versions(self, ctx: ExecContext):
        """Target-row enumeration for UPDATE/DELETE: yields the physical
        tuple *versions* so the session can stamp ``xmax``.

        Driven by the same access path and the same scan core as
        :meth:`batches`, with the same MVCC and Query-by-Label
        visibility — an invisible tuple is simply unaffected by DML.
        The write-rule *equality* check (section 4.2) happens in the
        session on each yielded version.  DML targets are base tables,
        never views, so no declassification applies here.
        """
        for segment in self._segments(ctx):
            yield from segment.kept(self._visible(ctx, segment)[0])

    def batches(self, ctx):
        """:meth:`_visible` per segment, then the ``needed`` column
        arrays of the survivors (``exec.columns_materialized`` counts
        their cells), with the emitted labels doubling as the
        ``_label`` pseudo-column.  Whether the arrays are the heap's
        own, cut down from them or built for this scan is the
        segment's business (:mod:`repro.db.storage`).
        """
        if ctx.ifc_enabled and self.view_grants:
            _check_view_authority(ctx, self.view_grants)
        ncols = len(self.table.schema.columns)
        positions = (range(ncols) if self.needed is None else self.needed)
        for segment in self._segments(ctx):
            selectors, labels = self._visible(ctx, segment)
            if not labels:
                continue
            columns = segment.columns(positions, selectors, ncols)
            columns.append(labels)
            tally().columns_materialized += len(positions) * len(labels)
            yield RowBatch(columns, labels, segment.ilabels(selectors))


class IndexScan(Scan):
    """Scan driven by an index lookup; key computed per execution."""

    def __init__(self, table: Table, index, key_fns: List[Callable],
                 predicate: Optional[Callable], declass: Label,
                 view_grants: List[Tuple[ViewDef, Label]],
                 predicate_columns: Tuple[int, ...] = (),
                 needed: Optional[Tuple[int, ...]] = None):
        super().__init__(table, predicate, declass, view_grants,
                         predicate_columns, needed)
        self.index = index
        self.key_fns = key_fns

    def _segments(self, ctx):
        key = tuple(fn([], ctx) for fn in self.key_fns)
        if None in key:
            return ()
        return _probe_segments(self.table, self.index, key, self.batch_size)


class IndexRangeScan(Scan):
    """Scan driven by an ordered-index range lookup.

    The key is an equality prefix (``eq_fns``) plus optional low/high
    bounds on the next index column, all computed per execution; the
    candidate tids come from ``OrderedIndex.scan_range``.  A bound
    expression evaluating to NULL yields no rows (a SQL comparison
    against NULL is UNKNOWN), matching what the filter would do.
    """

    def __init__(self, table: Table, index, eq_fns: List[Callable],
                 low_fn: Optional[Callable], high_fn: Optional[Callable],
                 include_low: bool, include_high: bool,
                 predicate: Optional[Callable], declass: Label,
                 view_grants: List[Tuple[ViewDef, Label]],
                 predicate_columns: Tuple[int, ...] = (),
                 needed: Optional[Tuple[int, ...]] = None):
        super().__init__(table, predicate, declass, view_grants,
                         predicate_columns, needed)
        self.index = index
        self.eq_fns = eq_fns
        self.low_fn = low_fn
        self.high_fn = high_fn
        self.include_low = include_low
        self.include_high = include_high

    def _segments(self, ctx):
        prefix = tuple(fn([], ctx) for fn in self.eq_fns)
        if None in prefix:
            return ()
        low = prefix if prefix else None
        include_low = True
        if self.low_fn is not None:
            value = self.low_fn([], ctx)
            if value is None:
                return ()
            low = prefix + (value,)
            include_low = self.include_low
        high = prefix if prefix else None
        include_high = True
        if self.high_fn is not None:
            value = self.high_fn([], ctx)
            if value is None:
                return ()
            high = prefix + (value,)
            include_high = self.include_high
        return map(Segment, _chunked(self.table.versions_for_tids(
            self.index.scan_range(low, high, include_low=include_low,
                                  include_high=include_high)),
            self.batch_size))


class Filter(Plan):
    """Residual predicate, batch-compiled
    (:meth:`repro.db.expressions.ExprCompiler.compile_batch`)."""

    CHILDREN = ("child",)

    def __init__(self, child: Plan, predicate: Callable):
        self.child = child
        self.predicate = predicate

    def batches(self, ctx):
        predicate = self.predicate
        for batch in self.child.batches(ctx):
            # Column-at-a-time evaluation: touches only the columns the
            # predicate reads.
            flags = predicate(batch, ctx)
            if all(flags):
                yield batch
                continue
            keep = [i for i, flag in enumerate(flags) if flag]
            if keep:
                yield batch.select(keep)


class _Join:
    """What the three joins share (a mixin, not an operator): the join
    ``kind``, the batch-compiled ``residual`` evaluated over the
    combined batch, and the tail that turns one left batch and its
    candidate right rows into output batches (:meth:`_join_batches`).

    A join's right side is a :class:`~repro.db.spill.JoinSide` —
    columns plus row numbers, never a row object per build row — and
    a candidate is a right *row number*; the output columns are
    gathered by left row index and right row number
    (:func:`_gather_join`).
    """

    def _join_batches(self, ctx, left: RowBatch, found,
                      side: JoinSide) -> Iterator[RowBatch]:
        """One left batch's join output, column-native.  ``found``
        yields each left row's candidate row numbers in ``side`` (None:
        the row was spooled for the partition phase).  Pairs are
        flushed (:meth:`_join_batch`) at the first left-row boundary
        past ``batch_size``, so an output batch — and the memory a
        ``LIMIT`` above can leave unread — is bounded by ``batch_size``
        plus one row's fanout, however skewed the key.
        """
        size = self.batch_size
        li, ri, skip, lo, last = [], [], [], 0, len(left)
        for i, matches in enumerate(found, 1):
            if matches is None:
                skip.append(i - 1)
            elif matches:
                li.extend(repeat(i - 1, len(matches)))
                ri.extend(matches)
            if len(li) >= size or i == last:
                out = self._join_batch(ctx, left, li, side, ri,
                                       range(lo, i), skip)
                if out is not None:
                    yield out
                li, ri, skip, lo = [], [], [], i

    def _join_batch(self, ctx, left: RowBatch, li: list, side: JoinSide,
                    ri: list, owed, skip) -> Optional[RowBatch]:
        """Finish one slice of a left batch: ``li[k]``/``ri[k]`` are its
        candidate pairs (left row index, right row number) in left-row
        order.  The ``residual`` is evaluated once over the combined
        batch; for a LEFT join every ``owed`` left row left without a
        match — and not in ``skip`` — is paired in place with the
        side's all-NULL row (:data:`~repro.db.spill.NULL_ROW`), so rows
        come out in left-row order whatever the batch size.  Returns
        None for no output.
        """
        out = None
        if li and self.residual is not None:
            out = _gather_join(left, li, side, ri)
            keep = [k for k, flag in enumerate(self.residual(out, ctx))
                    if flag]
            if len(keep) < len(li):
                li = [li[k] for k in keep]
                ri = [ri[k] for k in keep]
                out = out.select(keep)
        if self.kind == "left":
            missing = set(owed).difference(li, skip)
            if missing:
                li = li + sorted(missing)
                ri = ri + [NULL_ROW] * len(missing)
                order = sorted(range(len(li)), key=li.__getitem__)  # stable
                li = [li[k] for k in order]
                ri = [ri[k] for k in order]
                out = None
        if not li:
            return None
        return out if out is not None else _gather_join(left, li, side, ri)


def _gather_join(left: RowBatch, li: list, side: JoinSide,
                 ri: list) -> RowBatch:
    """The columnar join of left rows ``li`` with ``side``'s rows
    ``ri``, pairwise: every column gathered by row index (a
    projected-away one stays ``None``), and each pair's labels
    unioned (:func:`_union_pairs`)."""
    columns, labels, ilabels = take_rows(left.columns(), left.labels,
                                         left.ilabels, li)
    right, rlabels, rilabels = take_rows(side.columns, side.labels,
                                         side.ilabels, ri)
    return RowBatch(columns + right, _union_pairs(labels, rlabels),
                    _union_pairs(ilabels, rilabels))


def _union_pairs(a: list, b: list) -> list:
    """Pair by pair, the union of two label columns: a column of empty
    labels adds nothing (checked at C speed — a label is a
    ``frozenset``), and otherwise a side that covers the other is the
    union."""
    if not any(b):
        return a
    if not any(a):
        return b
    return [x if y.issubset(x) else y if x.issubset(y) else x.union(y)
            for x, y in zip(a, b)]


class NestedLoopJoin(_Join, Plan):
    """Generic join; materializes the right side once per execution.

    ``on``, the batch-compiled join predicate, is the join's residual:
    the cross product of a slice of outer rows with the materialized
    inner side is built as one columnar batch and the predicate
    evaluated over it in one call (:meth:`_Join._join_batches`).
    """

    CHILDREN = ("left", "right")

    def __init__(self, left: Plan, right: Plan, kind: str,
                 on: Optional[Callable], right_width: int):
        self.left = left
        self.right = right
        self.kind = kind
        self.residual = on
        self.right_width = right_width

    def batches(self, ctx):
        side = JoinSide(self.right_width)
        for batch in self.right.batches(ctx):
            side.add((), batch.columns(), batch.labels, batch.ilabels)
        rows = range(NULL_ROW + 1, len(side.labels))
        for batch in self.left.batches(ctx):
            yield from self._join_batches(ctx, batch,
                                          repeat(rows, len(batch)), side)


class IndexLoopJoin(_Join, Plan):
    """Join where the inner side is a base-table index lookup.

    The key functions reference only left-side columns (checked at plan
    time) and are batch-compiled over the outer batch, as is the
    residual ON condition over the combined batch.

    The probe keys of a batch of outer rows are computed
    column-at-a-time, deduped (sorted when the key type allows, for
    index locality), and the index probed **once per distinct key per
    batch** — visibility (:func:`_visible_segment`, one label memo per
    outer batch) and buffer-cache touches are charged once per
    candidate version per *probe*, not per duplicate outer row, so a
    duplicate-heavy foreign key stops multiplying the per-probe costs.
    A batch's probe results become one right side, a key's matches
    the range of row numbers its probe took.  Joined rows
    come out in outer-row order (:meth:`_Join._join_batches`).
    """

    CHILDREN = ("left",)

    def __init__(self, left: Plan, table: Table, index,
                 key_fns: List[Callable], residual: Optional[Callable],
                 kind: str, declass: Label,
                 view_grants: List[Tuple[ViewDef, Label]],
                 right_width: int):
        self.left = left
        self.table = table
        self.index = index
        self.key_fns = key_fns
        self.residual = residual
        self.kind = kind
        self.declass = declass
        self.view_grants = view_grants
        self.right_width = right_width

    def batches(self, ctx):
        if ctx.ifc_enabled and self.view_grants:
            _check_view_authority(ctx, self.view_grants)
        table = self.table
        for batch in self.left.batches(ctx):
            keys = list(zip(*[fn(batch, ctx) for fn in self.key_fns]))
            matches_of = dict.fromkeys(key for key in keys
                                       if None not in key)
            ordered = list(matches_of)
            try:
                ordered.sort()
            except TypeError:
                pass                  # incomparable key mix: keep order
            memo: Tuple[dict, dict] = ({}, {})
            side = JoinSide(self.right_width)
            base = len(side.labels)
            versions, labels = [], []
            for key in ordered:
                # One probe: the visible, label-covered inner versions.
                start = len(labels)
                for segment in _probe_segments(table, self.index, key,
                                               self.batch_size):
                    selectors, emitted = _visible_segment(
                        ctx, table, segment, self.declass, memo)
                    versions.extend(segment.kept(selectors))
                    labels.extend(emitted)
                matches_of[key] = range(base + start, base + len(labels))
            if versions:
                # The stored columns, then the emitted label as the
                # ``_label`` pseudo-column.
                columns = list(zip(*[version.values for version in versions]))
                columns.append(labels)
                side.add((), columns, labels,
                         [version.ilabel for version in versions])
            yield from self._join_batches(
                ctx, batch, map(matches_of.get, keys, repeat(())), side)


class HashJoin(_Join, Plan):
    """Equi-join: hash the right side, probe with left rows.

    The build is a :class:`~repro.db.spill.JoinSide`: the right
    batches' columns and labels appended as they arrive, and each key's
    row numbers in a bucket.  Build, probe and a spilled partition's
    replay all key rows by :func:`~repro.db.spill.column_keys`: a
    one-column equality's key is the column's value, not a 1-tuple
    per row; a wider key is the row's tuple.

    **Memory bound.**  The build is byte-estimated as it grows
    (:func:`repro.db.spill.estimate_batch_bytes`); when it exceeds the
    execution budget (``ctx.work_mem``, from ``Database(work_mem=…)`` /
    ``REPRO_WORK_MEM``; 0 = unbounded) the join switches to hybrid
    grace spilling (:class:`repro.db.spill.SpilledHashBuild`): build
    and probe rows are hash-partitioned to temp files, one partition
    stays memory-resident so its probes still stream, and oversized
    partitions re-partition recursively.  Spilling changes *where* a
    probe row meets its matches — never which matches exist: every
    spooled row already passed the scan-level MVCC and label checks
    under the statement's snapshot, and the snapshot cannot move while
    the statement runs (see ``_visible_segment``), so a spilled and an
    in-memory execution see exactly the same rows.
    """

    CHILDREN = ("left", "right")

    def __init__(self, left: Plan, right: Plan, left_key_fns: List[Callable],
                 right_key_fns: List[Callable], residual: Optional[Callable],
                 kind: str, right_width: int):
        self.left = left
        self.right = right
        #: Batch-compiled keys, each over its own side's batch; the
        #: residual runs over the combined batch.
        self.left_key_fns = left_key_fns
        self.right_key_fns = right_key_fns
        self.residual = residual
        self.kind = kind
        self.right_width = right_width

    def _keyed(self, ctx, batch: RowBatch) -> Tuple[list, RowBatch]:
        """A build batch's key columns, and the batch — both without the
        rows whose key holds a NULL, which can never match."""
        key_columns = [fn(batch, ctx) for fn in self.right_key_fns]
        if any(None in column for column in key_columns):
            keep = [i for i, row in enumerate(zip(*key_columns))
                    if None not in row]
            batch = batch.select(keep)
            key_columns = [[column[i] for i in keep]
                           for column in key_columns]
        return key_columns, batch

    def _build(self, ctx) -> Tuple[JoinSide, Optional[SpilledHashBuild]]:
        """Hash the right side under the byte budget.

        Returns ``(side, spill)``: ``spill`` is None while the build
        fits in memory, and ``side`` holds it.  Otherwise ``spill`` is
        a :class:`~repro.db.spill.SpilledHashBuild` that absorbed every
        build row, and ``side`` is its resident partition (an empty
        side once that was demoted too).  The build overflows at the
        row whose weight takes it past the budget
        (:meth:`~repro.db.spill.JoinSide.fill`), and the rows built up
        to it move to the partitions bucket by bucket.
        """
        side = JoinSide(self.right_width)
        spill = None
        try:
            for batch in self.right.batches(ctx):
                key_columns, batch = self._keyed(ctx, batch)
                block = batch.columns(), batch.labels, batch.ilabels
                if spill is None:
                    cut = side.fill(column_keys(key_columns, len(batch)),
                                    *block, ctx.work_mem)
                    if cut is None:
                        continue
                    spill = SpilledHashBuild(ctx.work_mem, ctx.spools,
                                             self.right_width)
                    spill.take(side, len(key_columns))
                    side = None                 # its rows live in spill
                    block = take_rows(*block, range(cut, len(batch)))
                    key_columns = [column[cut:] for column in key_columns]
                spill.add_build(key_columns, *block)
        except BaseException:
            # The spill never reaches a caller who could close it.
            if spill is not None:
                spill.close()
            raise
        if spill is not None:
            side = spill.resident or JoinSide(self.right_width)
        return side, spill

    def batches(self, ctx):
        side, spill = self._build(ctx)
        try:
            for batch in self.left.batches(ctx):
                key_columns = [fn(batch, ctx) for fn in self.left_key_fns]
                if spill is None:
                    # A key holding a NULL was never built: it misses.
                    found = map(side.buckets.get,
                                column_keys(key_columns, len(batch)),
                                repeat(()))
                else:
                    found = spill.probe(key_columns, batch.columns(),
                                        batch.labels, batch.ilabels)
                yield from self._join_batches(ctx, batch, found, side)
            if spill is None:
                return
            # Partition phase: a spooled probe block is a batch again,
            # joined against its partition's side like a streamed one.
            for (key_columns, columns, labels, ilabels), side \
                    in spill.joined():
                yield from self._join_batches(
                    ctx, RowBatch(columns, labels, ilabels),
                    map(side.buckets.get, column_keys(key_columns,
                                                      len(labels)),
                        repeat(())),
                    side)
        finally:
            # Mid-iteration error or abandoned iterator: release the
            # partition spools deterministically (close is idempotent).
            if spill is not None:
                spill.close()


class _Kernel:
    """One aggregate's state over a fold: ``held[gid]``, one slot per
    group id, grown as groups are created (:meth:`grow`).

    A kernel only ever sees non-NULL arguments.  :meth:`fold` folds a
    batch of them into the groups ``gids`` names, pairwise, in input
    order; :meth:`whole` folds a whole column into group 0 (the global
    aggregate); :meth:`results` is every group's final value.

    A step SQL gives no meaning raises the ``ExpressionError`` naming
    the first failing ``(held, value)`` pair in row order, through the
    kernel's ``form``; :meth:`whole` redoes a failing column by
    :meth:`fold`, so where batches end — which hidden tuples move —
    never changes the message."""

    __slots__ = ("held",)
    #: What a new group's slot holds.
    start = None

    def __init__(self):
        self.held: list = []

    def grow(self, size: int) -> None:
        self.held.extend(repeat(self.start, size - len(self.held)))

    def results(self) -> list:
        return self.held


class _CountKernel(_Kernel):
    """COUNT: the arguments seen (``COUNT(*)`` feeds :data:`_STAR` for
    every row); a whole column counts by its length."""

    __slots__ = ()
    start = 0

    def fold(self, gids, values) -> None:
        held = self.held
        for gid in gids:
            held[gid] += 1

    def whole(self, values) -> None:
        self.held[0] += len(values)


class _SumKernel(_Kernel):
    """SUM: a left fold with ``+`` in input order from each group's
    first value (never from 0), so results and errors are exactly
    those of adding row by row; ``reduce`` over a whole column is that
    same fold at C speed."""

    __slots__ = ()
    form = "SUM({} + {})"

    def fold(self, gids, values) -> None:
        held = self.held
        try:
            for gid, value in zip(gids, values):
                total = held[gid]
                held[gid] = value if total is None else total + value
        except TypeError as exc:
            raise evaluation_error(self.form, (total, value), exc) from None

    def whole(self, values) -> None:
        if values:
            total = self.held[0]
            try:
                self.held[0] = reduce(_add, values) if total is None \
                    else reduce(_add, values, total)
            except TypeError:
                self.fold(repeat(0), values)


class _AvgKernel(_SumKernel):
    """AVG: the SUM fold beside a COUNT of the same arguments."""

    __slots__ = ("counts",)
    form = "AVG({} + {})"

    def __init__(self):
        super().__init__()
        self.counts = _CountKernel()

    def grow(self, size: int) -> None:
        super().grow(size)
        self.counts.grow(size)

    def fold(self, gids, values) -> None:
        super().fold(gids, values)
        self.counts.fold(gids, values)

    def whole(self, values) -> None:
        super().whole(values)
        self.counts.whole(values)

    def results(self) -> list:
        out = []
        try:
            for total, n in zip(self.held, self.counts.held):
                out.append(None if not n else total / n)
        except TypeError as exc:
            raise evaluation_error("AVG({} / {})", (total, n), exc) from None
        return out


class _ExtremeKernel(_Kernel):
    """MIN/MAX: ``beats`` is the strict comparison, so ties keep the
    value seen first; a whole column is one ``pick`` (``min``/``max``,
    which keep the first of equals too)."""

    __slots__ = ("pick", "beats", "form")

    def __init__(self, pick: Callable, beats: Callable, form: str):
        super().__init__()
        self.pick = pick
        self.beats = beats
        self.form = form

    def fold(self, gids, values) -> None:
        held, beats = self.held, self.beats
        try:
            for gid, value in zip(gids, values):
                best = held[gid]
                if best is None or beats(value, best):
                    held[gid] = value
        except TypeError as exc:
            raise evaluation_error(self.form, (value, best), exc) from None

    def whole(self, values) -> None:
        if values:
            held = self.held
            try:
                best = self.pick(values)
                if held[0] is None or self.beats(best, held[0]):
                    held[0] = best
            except TypeError:
                self.fold(repeat(0), values)


class _DistinctKernel:
    """``AGG(DISTINCT x)``: hands ``inner`` each group's distinct
    values once, in first-seen order; ``seen`` holds the ``(group id,
    value)`` pairs already handed on."""

    __slots__ = ("inner", "seen")

    def __init__(self, inner: _Kernel):
        self.inner = inner
        self.seen: set = set()

    def grow(self, size: int) -> None:
        self.inner.grow(size)

    def fold(self, gids, values) -> None:
        fresh = list(filterfalse(self.seen.__contains__,
                                 dict.fromkeys(zip(gids, values))))
        if fresh:
            self.seen.update(fresh)
            self.inner.fold(*zip(*fresh))

    def whole(self, values) -> None:
        self.fold([0] * len(values), values)

    def results(self) -> list:
        return self.inner.results()


#: The aggregate kernels, by function; ``AGG(DISTINCT x)`` wraps one in
#: :class:`_DistinctKernel` (:class:`AggSpec`).
_KERNELS: Dict[str, Callable] = {
    "COUNT": _CountKernel, "SUM": _SumKernel, "AVG": _AvgKernel,
    "MIN": partial(_ExtremeKernel, min, _lt, "MIN({} < {})"),
    "MAX": partial(_ExtremeKernel, max, _gt, "MAX({} > {})")}

#: The argument every row feeds a ``COUNT(*)`` (any non-NULL constant
#: that survives the spill codec).
_STAR = True


class _GroupLabels:
    """One label column of a fold — its labels or its ilabels — unioned
    per group.

    ``held`` is each group's label, by group id: an interned
    :class:`Label`, so groups that met the same labels share one object
    and the state is one pointer per group, however many distinct
    labels the fold meets.  ``unions`` remembers the union of every
    distinct ``(group label, row label)`` pair the fold has formed, so
    a pair met again costs one dict probe, not a :meth:`Label.union`
    call; it grows with the distinct pairs, never with the rows that
    repeat one.  :meth:`fold` drops, at C speed, every row whose label
    its group's already covers (a label is a ``frozenset``), so only a
    label new to its group costs a Python step — and a batch whose
    every row opens a group of its own (a DISTINCT's) costs none."""

    __slots__ = ("held", "unions")

    def __init__(self):
        self.held: List[Label] = []
        self.unions: Dict[Tuple[Label, Label], Label] = {}

    def fold(self, gids: list, labels, size: int) -> None:
        """Union each row's label into its group's (``gids``), the
        groups grown to ``size``."""
        held = self.held
        if size - len(held) == len(gids):
            # Every row opened a group of its own (``gids`` is the range
            # of new ids, as in a DISTINCT): each group is its row's
            # label, and nothing is left to screen.
            held.extend(labels)
            return
        distinct = set(labels)
        if len(held) < size:
            # A group new to the batch starts from its first row's label.
            if len(distinct) == 1:
                held.extend(repeat(*distinct, size - len(held)))
            else:
                first = dict(zip(reversed(gids), reversed(labels)))
                held.extend(map(first.__getitem__, range(len(held), size)))
        if not any(distinct):
            return                           # a batch of public rows
        # Lazily screened, so a row reads its group's label as the rows
        # before it left it: a label is added once per group.
        new = map(_not, map(Label.issubset, labels,
                            map(held.__getitem__, gids)))
        unions = self.unions
        for gid, label in compress(zip(gids, labels), new):
            pair = held[gid], label
            joined = unions.get(pair)
            if joined is None:
                unions[pair] = joined = pair[0].union(label)
            held[gid] = joined


class AggSpec:
    """One aggregate computation: function, argument, distinct flag.

    ``arg_fn`` is the batch-compiled argument (None for ``COUNT(*)``);
    ``kernel`` — resolved here from :data:`_KERNELS`, once per plan —
    makes the aggregate's state for one fold.
    """

    __slots__ = ("func", "arg_fn", "distinct", "kernel")

    def __init__(self, func: str, arg_fn: Optional[Callable], distinct: bool):
        self.func = func
        self.arg_fn = arg_fn
        self.distinct = distinct
        kernel = _KERNELS[func]
        self.kernel = kernel if not (distinct and arg_fn is not None) \
            else lambda: _DistinctKernel(kernel())


class AggregateNode(Plan):
    """GROUP BY + aggregate evaluation — every collapse of several
    input rows into one result row, ``SELECT DISTINCT`` included (its
    group keys are the select list and it has no aggregates).

    Output rows are ``group_key_values + aggregate_results``; downstream
    expressions were rewritten by the planner to slot references.

    **Label union.**  Collapsing rows *reads* every one of them, so
    under the tuple-granularity label model a result row carries the
    union of all collapsed rows' labels and ilabels.  That makes this a
    blocking operator: a late duplicate can still raise the label of a
    group already seen, so nothing is emitted until the input is
    drained.

    **One fold, two sources, a batch at a time.**  :meth:`_fold`
    consumes ``(keys, args, labels, ilabels)`` per batch — every row's
    group key, one argument column per aggregate, the rows' labels —
    which is all aggregation needs of a row: :meth:`_keyed` reads them
    from the batch-compiled key and argument columns (no row is ever
    built), and a spilled partition replays each block's key and value
    columns as exactly that.  Every row gets a dense group id in
    first-seen order (one ``map`` per batch over a dict whose misses
    number the next group, in C); each aggregate keeps one state list
    indexed by group id (:data:`_KERNELS`) and folds the batch's
    argument column into it.  A group key is
    :func:`~repro.db.spill.column_keys`' — a one-column key is the
    column's value, a wider one the row's tuple — live and replayed
    alike.  Labels and ilabels fold into a :class:`_GroupLabels` each:
    a group holds its interned label, a row its group's label already
    covers is dropped at C speed, and each distinct ``(group label, row
    label)`` pair is unioned once per fold.  The resident groups
    leave as batches sliced from the key columns and the state lists.
    A **global** aggregate is the same kernels' whole-column forms over
    one group (:meth:`_fold_columns`).

    **Memory bound (grace hash aggregation).**  Group state is charged
    against ``ctx.work_mem`` as groups are created, in row order (key
    bytes + :data:`AGG_STATE_BYTES` per spec — a slot in each state
    list — + hash-entry overhead): a batch's new keys are charged
    through running totals, and the first whose charge overflows is
    found by ``bisect`` (:meth:`_admit`).  From there, already-resident
    groups keep accumulating in memory — they absorb their remaining
    input rows at full speed — while rows for *new* keys hash-partition
    to disk through :class:`GroupSpill`; each partition is then
    re-aggregated recursively (fresh salt per level, same
    fanout/termination scheme as the grace join).  A key is therefore
    either entirely resident or entirely spooled, so no group is ever
    counted twice.  Resident groups emit in first-seen order; spilled
    partitions follow, so *output order changes when an aggregate
    spills* — SQL makes no promise here, and ORDER BY sits above this
    node (for DISTINCT too: its sort keys are functions of the distinct
    row).  Global aggregates never spill: their state is one row.
    """

    CHILDREN = ("child",)

    def __init__(self, child: Plan, group_fns: List[Callable],
                 specs: List[AggSpec], global_agg: bool):
        self.child = child
        self.group_fns = group_fns           # batch-compiled
        self.specs = specs
        self.global_agg = global_agg

    def _fold(self, ctx, source, depth: int):
        """Fold ``(key_columns, args, labels, ilabels)`` batches into
        per-group state — ids in first-seen order, a label and an
        ilabel per group, one kernel per aggregate — grace-spilling
        new groups past the budget; yields the result batches.

        This is the one place a result row comes to stand for several
        input rows, so the one place their labels union.  Once
        admitting one more group would overflow, ``spill`` opens and
        every row of a *new* key is spooled, in input order; resident
        groups keep absorbing their rows."""
        # A miss is the next group (a counter, not the dict's own size:
        # a factory bound to the dict would make it a cycle).
        groups: dict = defaultdict(count().__next__)
        kernels = [spec.kernel() for spec in self.specs]
        labels, ilabels = _GroupLabels(), _GroupLabels()
        mem, spill = 0, None
        try:
            for key_columns, args, row_labels, row_ilabels in source:
                n = len(row_labels)
                keys = column_keys(key_columns, n)
                if ctx.work_mem and spill is None:
                    mem, spill = self._admit(ctx, groups, keys, mem, depth)
                if spill is None:
                    gids = list(map(groups.__getitem__, keys))
                else:
                    gids = list(map(groups.get, keys))
                    resident = [gid is not None for gid in gids]
                    if not all(resident):
                        rows = zip(column_rows(key_columns, n),
                                   column_rows(args, n), row_labels,
                                   row_ilabels)
                        spill.add(compress(rows, map(_not, resident)))
                        gids, row_labels, row_ilabels, *args = [
                            list(compress(column, resident)) for column
                            in (gids, row_labels, row_ilabels, *args)]
                size = len(groups)
                labels.fold(gids, row_labels, size)
                ilabels.fold(gids, row_ilabels, size)
                for kernel, column in zip(kernels, args):
                    kernel.grow(size)
                    if None in column:
                        keep = [value is not None for value in column]
                        column = list(compress(column, keep))
                        kernel.fold(list(compress(gids, keep)), column)
                    else:
                        kernel.fold(gids, column)
            done = RowBatch([*key_columns_of(groups, len(self.group_fns)),
                             *(k.results() for k in kernels)],
                            labels.held, ilabels.held)
            for lo in range(0, len(done), self.batch_size):
                yield done.select(range(lo, lo + self.batch_size))
            if spill is not None:
                yield from self._spilled_groups(ctx, spill, depth)
        finally:
            # A kernel's error (or an abandoned iterator) must not leak
            # the partition spools; close is idempotent.
            if spill is not None:
                spill.close()

    def _admit(self, ctx, groups: dict, keys: list, mem: int, depth: int):
        """Give a batch's new keys group ids, in first-seen order, while
        the budget holds: ``(mem, spill)`` after charging each
        ``estimate_row_bytes(key)`` + :data:`AGG_STATE_BYTES` per spec
        + :data:`BUCKET_ENTRY_BYTES`.  The first key whose charge takes
        the running total past ``ctx.work_mem`` opens ``spill`` and gets
        no id, nor does any key after it — unless it would be the first
        group, or the fold is :data:`MAX_RECURSION` deep."""
        fresh = list(filterfalse(groups.__contains__, dict.fromkeys(keys)))
        overhead = AGG_STATE_BYTES * len(self.specs) + BUCKET_ENTRY_BYTES
        rows = column_rows(key_columns_of(fresh, len(self.group_fns)),
                           len(fresh))
        totals = list(accumulate(
            [estimate_row_bytes(key) + overhead for key in rows],
            initial=mem))
        admitted = len(fresh)
        if totals[-1] > ctx.work_mem and depth < MAX_RECURSION:
            # The first group is admitted whatever it weighs.
            overflow = bisect_right(totals, ctx.work_mem) - 1
            admitted = max(overflow, 0 if groups else 1)
        for key in fresh[:admitted]:
            groups[key]                      # numbered by the factory
        return totals[admitted], None if admitted == len(fresh) \
            else GroupSpill(ctx.spools, salt=depth, depth=depth)

    def _fold_columns(self, ctx):
        """Global aggregate: the kernels' whole-column forms over one
        group (``COUNT`` is the batch length, ``SUM`` a ``reduce``,
        ``MIN``/``MAX`` one ``min``/``max``), labels unioned once per
        distinct label per batch."""
        kernels = [spec.kernel() for spec in self.specs]
        for kernel in kernels:
            kernel.grow(1)
        label = ilabel = EMPTY_LABEL
        for batch in self.child.batches(ctx):
            label = reduce(Label.union, set(batch.labels), label)
            ilabel = reduce(Label.union, set(batch.ilabels), ilabel)
            for kernel, column in zip(kernels, self._arg_columns(batch, ctx)):
                kernel.whole([value for value in column if value is not None]
                             if None in column else column)
        yield RowBatch([k.results() for k in kernels], [label], [ilabel])

    def _arg_columns(self, batch: RowBatch, ctx) -> List[list]:
        return [[_STAR] * len(batch) if spec.arg_fn is None
                else spec.arg_fn(batch, ctx) for spec in self.specs]

    def _spilled_groups(self, ctx, spill, depth):
        """Result batches of every grace partition, each folded on its
        own (its keys are disjoint from every other's).  A partition
        replays its blocks as they are: a block's key columns are the
        group key columns and its value columns the argument columns
        :meth:`_keyed` fed the fold."""
        for spool in spill.spools:
            if spool.count:
                yield from self._fold(ctx, spool.blocks(), depth + 1)
            else:
                spool.close()

    def _keyed(self, ctx):
        """The fold's input, straight from columns: the key and
        argument columns and the labels, a batch at a time."""
        for batch in self.child.batches(ctx):
            yield ([fn(batch, ctx) for fn in self.group_fns],
                   self._arg_columns(batch, ctx), batch.labels, batch.ilabels)

    def batches(self, ctx):
        if self.global_agg:
            return self._fold_columns(ctx)
        return self._fold(ctx, self._keyed(ctx), 0)


class Project(Plan):
    """Output projection: ``fns`` are the batch-compiled column
    evaluators (one per output column) — each runs over the whole
    batch, columnar style, and the results *are* the output batch's
    columns (no per-row zip-back; rows are built at the cursor)."""

    CHILDREN = ("child",)

    def __init__(self, child: Plan, fns: List[Callable]):
        self.child = child
        self.fns = fns

    def batches(self, ctx):
        fns = self.fns
        for batch in self.child.batches(ctx):
            yield RowBatch([fn(batch, ctx) for fn in fns], batch.labels,
                           batch.ilabels)


class _MixedKey:
    """Total-order wrapper for values from a mixed-type column.

    Comparison is natural when the values are mutually comparable and
    falls back to ``(type name, str(value))`` tags across incomparable
    types — the same family of order :class:`DeterministicOrder`
    imposes.  In the SQL value domain (numbers, strings, ``None``
    handled one level up) mutual comparability partitions the values
    into classes whose type names agree on the cross-class direction
    (every number sorts before every string), so this is a consistent
    total order: within a class it *is* the natural order, which is
    what makes runs sorted naturally safe to merge under mixed keys.
    """

    __slots__ = ("value",)
    __hash__ = None

    def __init__(self, value):
        self.value = value

    def _tag(self):
        value = self.value
        return (type(value).__name__, str(value))

    def __lt__(self, other):
        try:
            return self.value < other.value
        except TypeError:
            return self._tag() < other._tag()

    def __eq__(self, other):
        # ``==`` never raises across types, so no fallback is needed —
        # and incomparable values are never spuriously equal.
        return self.value == other.value


class _Desc:
    """Inverts comparisons for one DESC component of a composite sort
    key (tuple comparison probes ``==`` before ``<``, so both must
    flip through to the wrapped key) — for the DESC columns negation
    cannot key: text, NULL-bearing and mixed ones."""

    __slots__ = ("key",)
    __hash__ = None

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return other.key == self.key


#: Key-column type sets whose values all compare with each other (so
#: they need no type-tagged order), and the numeric ones, whose DESC
#: key is the negated value.
_NUMERIC = frozenset((int, float, bool))
_NULL_NUMERIC = _NUMERIC | {type(None)}
_NULL_TEXT = frozenset((type(None), str))


class Sort(Plan):
    """ORDER BY; NULLs sort last ascending, first descending.

    **Memory bound (external merge sort).**  Under ``ctx.work_mem``
    the input is consumed in byte-estimated chunks: each full chunk is
    ordered in memory and spooled as one run of columnar blocks that
    carry the rows' sort keys (:class:`~repro.db.spill.SortRuns`;
    labels re-intern on reload, so the covers/strip memos survive),
    then all runs k-way merge through a heap in a single pass — the
    merge holds one block per run, never the input, and compares the
    stored keys instead of re-evaluating them.  Unbounded
    (``work_mem=0``) sorts fully in memory.

    **Keys follow the value types.**  Each ORDER BY column is keyed by
    the set of types its values hold, decided before any comparison
    (:meth:`_keys`): a NULL-free ascending column is its own key
    and a NULL-free numeric DESC column its negation; any other column
    of one comparable family (numbers or text, with NULLs) is keyed by
    ``(value is None, value)`` pairs — :class:`_Desc`-wrapped for DESC,
    as is a NULL-free text DESC value — and a column mixing
    incomparable types (legal in untyped storage —
    ``DeterministicOrder`` already handles it) by :class:`_MixedKey`'s
    type-tagged total order instead of raising.  A buffer is ordered a
    column at a time (:meth:`_order`) and keyed by its own types; a
    merge compares one key per row, the columns' keys zipped, each
    keyed by the types of all its runs
    (``SortRuns.key_types``), so every run of one merge gets the same
    encoding — and a run ordered under its own types is in order under
    the merge's, because wherever values compare the encodings agree.
    """

    CHILDREN = ("child",)

    def __init__(self, child: Plan, key_fns: List[Callable],
                 descending: List[bool]):
        self.child = child
        self.key_fns = key_fns               # batch-compiled
        self.descending = descending

    def _keys(self, key_columns: list, kinds: list) -> list:
        """Per ORDER BY column, one comparable key per row, chosen by
        the column's value types in ``kinds`` (see the class
        docstring)."""
        keys = []
        for column, desc, types in zip(key_columns, self.descending, kinds):
            if not (types <= _NULL_NUMERIC or types <= _NULL_TEXT):
                part = [(v is None, _MixedKey(v)) for v in column]
            elif type(None) in types:
                part = [(v is None, v) for v in column]
            elif desc and types <= _NUMERIC:
                keys.append(list(map(_neg, column)))
                continue
            else:
                part = column
            keys.append([_Desc(p) for p in part] if desc else part)
        return keys

    def _order(self, key_columns: list, top: Optional[int]) -> list:
        """The stable ORDER BY permutation of buffered rows from their
        key columns (the best ``top`` only, when given): one stable
        sort of the row indexes per column, the last column first — so
        each column only reorders rows the columns before it tie on —
        and no key tuple per row."""
        order = range(len(key_columns[0]))
        for keys in reversed(self._keys(key_columns, [
                set(map(type, column)) for column in key_columns])):
            order = sorted(order, key=keys.__getitem__)
        return order[:top]

    def _spool_run(self, runs: SortRuns, buffer: list, width: int) -> None:
        """Order the buffered columns (``width`` value columns, the two
        label columns, then the key columns) and spool them as one run
        of blocks, each carrying its rows' keys."""
        order = self._order(buffer[width + 2:], None)
        run = runs.new_run(buffer[width + 2:])
        first = order[0]
        step = runs.spools.block_rows(estimate_row_bytes(
            [column[first] for column in buffer[:width]],
            buffer[width][first]))
        for lo in range(0, len(order), step):
            chunk = order[lo:lo + step]
            block = [[column[i] for i in chunk] for column in buffer]
            run.write_block(block[width + 2:], block[:width],
                            block[width], block[width + 1])

    def _merged(self, runs: SortRuns):
        """K-way merge of the spooled runs on their stored keys, as
        ``(values, label, ilabel)`` rows, every run's keys encoded from
        the key types of all of them.  Heap entries are ``(key, run,
        position, row)``: ties resolve to the earlier run, then the
        earlier row, so the merge is stable and never compares rows.
        """
        kinds = runs.key_types

        def entries(index, run):
            positions = count()
            for key_columns, columns, labels, ilabels in run.blocks():
                keys = self._keys(key_columns, kinds)
                yield from zip(
                    keys[0] if len(keys) == 1 else zip(*keys),
                    repeat(index), positions,
                    zip(column_rows(columns, len(labels)), labels, ilabels))

        try:
            yield from map(itemgetter(3), heapq.merge(
                *[entries(index, run)
                  for index, run in enumerate(runs.runs)]))
        finally:
            # A consumer that stops early (LIMIT above the sort) or
            # dies mid-merge must not leak the run descriptors.
            runs.close()

    def _bounds(self, ctx) -> Tuple[int, Optional[int]]:
        """``(offset, stop)`` of the sorted rows to emit (all of them)."""
        return 0, None

    def _sorted_columns(self, ctx, offset: int, stop: Optional[int]):
        """Rows ``[offset, stop)`` of the sorted input, as batches,
        without building a row in memory.

        The input is buffered as columns — values, the two label
        columns, then the batch-compiled key columns — ordered by
        permutation (:meth:`_order`) and emitted by gathering each
        column.  A ``stop`` bound cuts the buffer back to the best
        ``stop`` rows whenever it doubles, so a small LIMIT never holds
        the input.  Under a budget (and when a heap of ``stop`` rows
        could not fit it) arriving rows are weighed a column at a time;
        the buffer is cut at each row that takes it past the budget,
        and the rows before the cut are ordered and spooled as a run
        with their key columns (:meth:`_spool_run`), the runs then
        merged on those keys.
        """
        if stop is not None and stop <= 0:
            return
        budget = ctx.work_mem
        size = self.batch_size
        top = stop
        buffer: Optional[list] = None
        width = mem = 0
        runs = None
        try:
            for batch in self.child.batches(ctx):
                if not len(batch):
                    continue
                incoming = batch.filled()
                incoming += [batch.labels, batch.ilabels]
                incoming += [fn(batch, ctx) for fn in self.key_fns]
                if buffer is None:
                    width = batch.width
                    if top and budget and top * estimate_row_bytes(
                            [column[0] for column in incoming[:width]],
                            batch.labels[0]) > budget:
                        top = None        # the heap cannot fit: full sort
                buffer = _buffered(buffer, incoming)
                if top:
                    if len(buffer[width]) > 2 * top + size:
                        order = self._order(buffer[width + 2:], top)
                        buffer = [[column[i] for i in order]
                                  for column in buffer]
                elif budget:
                    totals = list(accumulate(estimate_batch_bytes(
                        incoming[:width], batch.labels), initial=mem))
                    while totals[-1] > budget:
                        # A run ends with the row that overflows.
                        over = bisect_right(totals, budget)
                        cut = len(buffer[width]) - len(totals) + 1 + over
                        runs = runs or SortRuns(ctx.spools,
                                                len(self.key_fns))
                        self._spool_run(
                            runs, [column[:cut] for column in buffer], width)
                        buffer = [column[cut:] for column in buffer]
                        totals = [total - totals[over]
                                  for total in totals[over:]]
                    mem = totals[-1]
            if runs is not None and buffer[width]:
                self._spool_run(runs, buffer, width)
        except BaseException:
            # The runs never reach the merge that would close them.
            if runs is not None:
                runs.close()
            raise
        if runs is not None:
            yield from _row_batches(
                islice(self._merged(runs), offset, stop), size)
            return
        if buffer is None:
            return
        yield from _permuted(buffer[:width + 2],
                             self._order(buffer[width + 2:], top)[offset:stop],
                             size)

    def batches(self, ctx):
        return self._sorted_columns(ctx, *self._bounds(ctx))


def _limits(ctx, limit_fn: Optional[Callable],
            offset_fn: Optional[Callable]) -> Tuple[Optional[int], int]:
    """``(limit, offset)``, evaluated once per execution: an absent or
    NULL LIMIT is no limit (a negative one returns no rows), an absent,
    NULL or negative OFFSET skips nothing.  A value that is not an
    integer raises :class:`~repro.errors.DatabaseError` naming its
    clause and the value."""
    bounds = []
    for clause, fn in (("LIMIT", limit_fn), ("OFFSET", offset_fn)):
        value = None if fn is None else fn([], ctx)
        if value is not None and type(value) is not int:
            raise DatabaseError("%s must be an integer, not %r"
                                % (clause, value))
        bounds.append(value)
    limit, offset = bounds
    return limit, max(offset or 0, 0)


class TopN(Sort):
    """ORDER BY … LIMIT as a bounded buffer (optimizer rewrite).

    Streams the input keeping only the best ``limit + offset`` rows
    (the buffer is ordered and cut back whenever it doubles — a stable
    order, so ties keep arrival order exactly like the full sort),
    then discards the offset prefix.  A
    small limit thus never materializes, sorts, or spills the full
    input: this is ``Sort._sorted_columns`` under :meth:`_bounds`.

    Fallbacks preserve Sort+Limit semantics exactly: a NULL limit
    degenerates to the (possibly external) full sort with an offset
    skip, and when the heap itself could not fit ``work_mem`` the
    operator external-sorts instead of holding an over-budget heap.
    """

    def __init__(self, child: Plan, key_fns: List[Callable],
                 descending: List[bool], limit_fn: Optional[Callable],
                 offset_fn: Optional[Callable]):
        Sort.__init__(self, child, key_fns, descending)
        self.limit_fn = limit_fn
        self.offset_fn = offset_fn

    def _bounds(self, ctx):
        limit, offset = _limits(ctx, self.limit_fn, self.offset_fn)
        return offset, None if limit is None else limit + offset


class Limit(Plan):
    CHILDREN = ("child",)

    def __init__(self, child: Plan, limit_fn: Optional[Callable],
                 offset_fn: Optional[Callable]):
        self.child = child
        self.limit_fn = limit_fn
        self.offset_fn = offset_fn

    def batches(self, ctx):
        limit, offset = _limits(ctx, self.limit_fn, self.offset_fn)
        skipped = 0
        produced = 0
        for batch in self.child.batches(ctx):
            n = len(batch)
            start = 0
            if skipped < offset:
                take = min(offset - skipped, n)
                skipped += take
                start = take
                if start >= n:
                    continue
            end = n
            if limit is not None:
                remaining = limit - produced
                if remaining <= 0:
                    return
                end = min(n, start + remaining)
            if start == 0 and end == n:
                out = batch
            else:
                out = batch.select(range(start, end))
            produced += end - start
            yield out
            if limit is not None and produced >= limit:
                return


class DeterministicOrder(Plan):
    """Countermeasure for the tuple-allocation channel (section 7.3).

    Orders rows by a deterministic function of their values so heap
    placement cannot leak the relative order of modifications.  The
    prototype leaves this off by default; the engine exposes it as the
    ``deterministic_order`` flag.  The input is buffered as columns and
    emitted through a permutation, as :class:`Sort` does.
    """

    CHILDREN = ("child",)

    def __init__(self, child: Plan):
        self.child = child

    def batches(self, ctx):
        held = None
        for batch in self.child.batches(ctx):
            held = _buffered(held, batch.filled() + [batch.labels,
                                                     batch.ilabels])
        if held is None:
            return
        n = len(held[-1])
        keys = list(column_rows(
            [[(v is None, type(v).__name__, str(v)) for v in column]
             for column in held[:-2]], n))
        yield from _permuted(held, sorted(range(n), key=keys.__getitem__),
                             self.batch_size)


class ViewPlan(Plan):
    """Adapts a planned view/subquery: appends the row label as the
    ``_label`` pseudo-column so outer scopes can reference it.

    This is the label-stripping boundary of a declassifying view: the
    inner plan's scans already emit stripped labels, so predicates the
    optimizer keeps *above* this node observe post-declassification
    labels.  The optimizer never pushes a predicate through it.
    """

    CHILDREN = ("inner",)

    def __init__(self, inner: Plan):
        self.inner = inner

    def batches(self, ctx):
        for batch in self.inner.batches(ctx):
            # Columnar append: the label list *is* the _label column
            # (no per-row copy; projected-away inner columns stay
            # unmaterialized).
            cols = batch.columns()
            cols.append(batch.labels)
            yield RowBatch(cols, batch.labels, batch.ilabels)


class PreparedSelect:
    """A planned SELECT: the plan tree plus output column names.

    Every prepared statement also carries ``slot_values``, the literals
    its plan's literal slots read (``ExecContext.slot_values``): empty
    for a plan of literals, a text's own for a plan shared by every
    text of its plan key (``Database._prepare``)."""

    def __init__(self, plan: Plan, columns: List[str]):
        self.plan = plan
        self.columns = columns
        self.slot_values = ()


class PreparedDML:
    """A planned UPDATE/DELETE: the target scan (a :class:`Scan`
    subclass whose ``versions()`` drives execution) plus the compiled
    ``SET`` assignments (UPDATE only; empty for DELETE)."""

    __slots__ = ("plan", "assignments", "slot_values")

    def __init__(self, plan: Scan, assignments: List[Tuple[int, Callable]]):
        self.plan = plan
        self.assignments = assignments
        self.slot_values = ()


def _explain_line(plan: Plan) -> str:
    """One operator's EXPLAIN summary (no indent, no children).

    The text is the operator's ``explain`` annotation (attached by the
    planner during lowering) or the bare class name, followed by the
    optimizer's cost/row estimates when it attached them.  Shared by
    :func:`explain_plan` and EXPLAIN ANALYZE
    (:class:`repro.db.metrics.PlanRecorder`), which appends the
    measured actuals to the same line.
    """
    line = plan.explain or type(plan).__name__
    if plan.est_rows is not None:
        line += "  (cost=%.2f rows=%d)" % (plan.est_cost or 0.0,
                                           round(plan.est_rows))
    # Projection pushed into a scan: the stored columns it materializes.
    needed_names = getattr(plan, "needed_names", None)
    if needed_names is not None:
        line += "  cols=%s" % ",".join(needed_names)
    # Memory estimates for materializing operators: expected grace
    # partitions (0 omitted — the build fits work_mem) and the peak
    # resident bytes (per-partition share when spilling).
    if plan.est_spill_partitions:
        line += "  spill_partitions=%d" % plan.est_spill_partitions
    # External-sort runs the optimizer expects to spool (0 omitted —
    # the sort fits its budget).
    if plan.est_runs:
        line += "  runs=%d" % plan.est_runs
    if plan.est_mem is not None:
        line += "  mem=%dB" % round(plan.est_mem)
    return line


def explain_plan(plan: Plan, indent: int = 0) -> List[str]:
    """Render a physical plan tree as indented one-line operator
    summaries, so the output always reflects the tree — and the
    costing — that execution would run under."""
    lines = ["  " * indent + _explain_line(plan)]
    for child in plan.children():
        lines.extend(explain_plan(child, indent + 1))
    return lines


def stamp_batch_size(plan: Plan, size: int) -> Plan:
    """Stamp one ``batch_size`` (at least 1) over a plan tree; called
    at lowering.  Subquery plans compiled into expression closures are
    not part of the tree: they are stamped (to 1) where they are
    compiled."""
    plan.batch_size = size
    for child in plan.children():
        stamp_batch_size(child, size)
    return plan


def plan_tables(plan: Plan) -> frozenset:
    """Names of the base tables a plan tree reads (scans and index-join
    inner sides).  Used to evict only the cached plans reading a table
    ``ANALYZE`` names.  Subqueries compiled into expressions are
    not walked — a plan missing from an eviction stays merely stale in
    its *estimates*; DDL still invalidates every plan via the catalog
    version."""
    names = set()
    pending = [plan]
    while pending:
        node = pending.pop()
        table = getattr(node, "table", None)
        if isinstance(table, Table):
            names.add(table.name)
        pending.extend(node.children())
    return frozenset(names)
