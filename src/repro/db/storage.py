"""Heap storage: tables as version chains with page accounting.

A :class:`Table` owns its tuple versions (the heap), its page allocator,
and its indexes.  All reads and writes of versions flow through
:meth:`Table.touch`, which charges the engine's buffer cache — the hook
the on-disk benchmark configuration (Figure 6) relies on.

**Segments.**  A scan reads the heap a :class:`HeapSegment` at a time:
the live versions of one aligned slice of the version array, plus what
every scan of that slice would otherwise re-derive from them — the labels and
integrity labels as parallel sequences, the distinct labels (Query by
Label is decided once per distinct label), the newest ``xmin`` and
whether any ``xmax`` is set (the MVCC bound check), the page runs the
buffer cache is charged by, and per-column value arrays built on first
use.  None of that changes between statements, so :meth:`Table.segments`
memoizes the segments of the one slice length the database scans with,
and the only three heap mutations drop the slice they touch with one
``dict.pop``: :meth:`Table.append` (the tail slice), :meth:`Table.stamp`
(a deletion, the one writer of ``xmax``) and :meth:`Table.unlink`.  A
summary holds cells and labels of tuples a reader may not see; it is a
cache of the heap, never an observable: what a scan emits from it is
decided by the leaf (:mod:`repro.db.physical`) from the reader's
snapshot and label — for a segment the snapshot finds frozen, kept as
one :class:`LabelCut` per segment, a function of the heap and the
reader's key alone — and a rebuilt summary or cut is equal to a kept
one, so nothing a reader can see — rows, labels, errors, low counts —
depends on whether one was cached.  An
index probe's candidates are a plain :class:`Segment`: the same
interface, summarized for the one scan and keeping nothing.

Reclamation (the PostgreSQL garbage collector, which section 7.1 notes is
exempt from the information flow rules) physically removes versions that
are dead to every possible snapshot: :meth:`Table.unlink` is the one
primitive, driven by :class:`~repro.db.transactions.TransactionManager`.
"""

from __future__ import annotations

from itertools import compress, groupby
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.labels import EMPTY_LABEL, Label
from ..errors import CatalogError
from .indexes import HashIndex, OrderedIndex
from .pages import BufferCache, HeapPageAllocator
from .schema import TableSchema
from .tuples import TupleVersion


#: The scan leaf's fork (:func:`repro.db.physical._visible_segment`): a
#: segment of at least this many versions is filtered set-at-a-time
#: from its summary, a shorter one by the per-version loop, which reads
#: the versions themselves.  The set routines cost a fixed handful of
#: passes per segment whatever its length (~4 µs), which a one-row
#: primary-key probe cannot amortize (1.6 µs in the loop) and a heap
#: slice repays many times over; measured on all-visible chunks the
#: two cross between 3 versions (4.1 vs 4.2 µs) and 4 (5.9 vs 4.3),
#: and on chains of dead versions they tie at every length.  A heap
#: sliced shorter than this is never summarized, so never memoized.
SET_AT_A_TIME_MIN = 4


def _take(sequence, selectors: list):
    """``sequence`` — parallel to a segment's versions — cut down by
    each of the scan leaf's flag lists in turn (every list is parallel
    to what the one before it kept), at C speed; the sequence itself
    when nothing was dropped."""
    if not selectors:
        return sequence
    for flags in selectors:
        sequence = compress(sequence, flags)
    return list(sequence)


class Segment:
    """The candidate versions of one index probe — or, as a
    :class:`HeapSegment`, the live versions of one heap slice — with
    the summary a scan filters them by.

    ``versions`` is all a segment is built from; :meth:`summarize`
    derives ``labels`` (parallel to ``versions``), ``stamped`` (is any
    ``xmax`` set) and — where none is, for the MVCC bound check and
    the segment it finds frozen — ``hi_xmin`` and ``distinct`` (each
    label once); ``page_runs`` is built by its first reader.  What a
    scan emits of a segment it asks for by the leaf's ``selectors``
    (:func:`_take`): :meth:`kept`, :meth:`columns`, :meth:`ilabels`.
    A probe's segment is read by the one scan that made it, so it
    builds those from the surviving versions and keeps nothing.
    """

    #: Not built yet (class defaults: a probe's segment is made once
    #: per probe, so construction stores ``versions`` and nothing else).
    labels = _page_runs = None

    def __init__(self, versions: Sequence[TupleVersion]):
        self.versions = versions

    def summarize(self) -> None:
        versions = self.versions
        self.labels = labels = tuple([v.label for v in versions])
        self.stamped = \
            [v.xmax for v in versions].count(None) < len(versions)
        if not self.stamped:    # else MVCC is per row: neither is read
            self.distinct = frozenset(labels)
            self.hi_xmin = max([v.xmin for v in versions])

    @property
    def page_runs(self) -> tuple:
        """``(page id, versions on it)`` per run of heap neighbours."""
        if self._page_runs is None:
            self._page_runs = tuple(
                [(page_id, len(list(run))) for page_id, run
                 in groupby([v.page_id for v in self.versions])])
        return self._page_runs

    def kept(self, selectors: list) -> Sequence[TupleVersion]:
        """The versions ``selectors`` keep."""
        return _take(self.versions, selectors)

    def columns(self, positions, selectors: list, width: int) -> list:
        """``width`` column slots over the versions ``selectors`` keep:
        the value arrays of the stored columns at ``positions``, the
        rest ``None``."""
        columns: list = [None] * width
        versions = self.kept(selectors)
        for p in positions:
            columns[p] = [version.values[p] for version in versions]
        return columns

    def ilabels(self, selectors: list) -> Sequence[Label]:
        """Integrity labels of the versions ``selectors`` keep."""
        return [version.ilabel for version in self.kept(selectors)]


class LabelCut:
    """Query by Label's answer for a frozen heap segment under one
    reader ``key`` — ``(read label, declassified tags, registry
    version)``: the ``flags`` that keep the covered versions (``None``
    when all are), the ``labels`` those emit, how many were
    ``suppressed``, and the segment's column arrays and integrity labels
    cut down by ``flags`` — kept only once a scan has reused the cut
    (``columns`` is ``None`` until then), so a cut no scan reuses, on a
    heap being written, costs no copy."""

    __slots__ = ("key", "flags", "labels", "suppressed", "columns",
                 "ilabels")

    def __init__(self, key: tuple, flags: Optional[tuple], labels: tuple,
                 suppressed: int):
        self.key = key
        self.flags = flags
        self.labels = labels
        self.suppressed = suppressed
        self.columns: Optional[Dict[int, tuple]] = None
        self.ilabels: Optional[tuple] = None


class HeapSegment(Segment):
    """A heap slice the table keeps between scans
    (:meth:`Table.segments`): its integrity labels and per-column
    arrays are built by their first reader and cut down for every
    later one — or handed out whole where nothing was dropped.  Every
    sequence is a tuple: the same arrays reach every scan, so an
    operator that mutated one in place must fail, not corrupt the next
    scan.

    ``cut`` is one slot: the :class:`LabelCut` of the last reader the
    scan leaf found the segment frozen for.  Once it has been reused,
    selectors that start with its ``flags`` (by identity) are answered
    from its arrays; another reader's key replaces it whole, in one
    assignment.
    """

    _ilabels = _columns = cut = None

    def _cut_of(self, selectors: list):
        """The reused cut ``selectors`` start with, or ``None``, and the
        selectors left after it."""
        cut = self.cut
        if (cut is not None and cut.columns is not None and selectors
                and selectors[0] is cut.flags):
            return cut, selectors[1:]
        return None, selectors

    def column(self, position: int) -> tuple:
        """Stored column ``position`` of every version, in order."""
        columns = self._columns
        if columns is None:
            columns = self._columns = {}
        column = columns.get(position)
        if column is None:
            column = columns[position] = tuple(
                [v.values[position] for v in self.versions])
        return column

    def columns(self, positions, selectors, width):
        columns: list = [None] * width
        cut, rest = self._cut_of(selectors)
        for p in positions:
            if cut is None:
                columns[p] = _take(self.column(p), selectors)
                continue
            column = cut.columns.get(p)
            if column is None:
                column = cut.columns[p] = tuple(compress(self.column(p),
                                                         cut.flags))
            columns[p] = _take(column, rest)
        return columns

    def ilabels(self, selectors):
        if self._ilabels is None:
            self._ilabels = tuple([v.ilabel for v in self.versions])
        cut, rest = self._cut_of(selectors)
        if cut is None:
            return _take(self._ilabels, selectors)
        if cut.ilabels is None:
            cut.ilabels = tuple(compress(self._ilabels, cut.flags))
        return _take(cut.ilabels, rest)


class Table:
    """A stored table: schema + heap + indexes."""

    def __init__(self, schema: TableSchema, *, page_size: int,
                 buffer_cache: BufferCache, store_labels: bool,
                 segment_size: int):
        self.schema = schema
        self.name = schema.name
        self._versions: List[Optional[TupleVersion]] = []
        #: The slice length the database scans with, and the memoized
        #: segment per slice index — dropped by append/stamp/unlink.
        self._segment_size = segment_size
        self._segments: Dict[int, HeapSegment] = {}
        self._allocator = HeapPageAllocator(schema.name, page_size)
        self._buffer_cache = buffer_cache
        self._store_labels = store_labels
        self.indexes: Dict[str, object] = {}
        self.unique_indexes: List[Tuple] = []   # (constraint, index)
        self.polyinstantiation_count = 0
        self._heap_count = 0                    # non-None versions, O(1)
        # Auto-create a unique hash index per uniqueness constraint.
        for unique in schema.uniques:
            index = HashIndex(
                name="%s_%s_idx" % (schema.name, unique.name),
                columns=unique.columns,
                positions=schema.positions_of(unique.columns),
                unique=True)
            self.indexes[index.name] = index
            self.unique_indexes.append((unique, index))

    # ------------------------------------------------------------------
    # index management
    # ------------------------------------------------------------------
    def create_index(self, name: str, columns: Sequence[str],
                     *, ordered: bool = False) -> object:
        if name in self.indexes:
            raise CatalogError("index %r already exists" % name)
        positions = self.schema.positions_of(columns)
        cls = OrderedIndex if ordered else HashIndex
        index = cls(name=name, columns=columns, positions=positions)
        # Backfill existing versions (all of them; indexes are
        # version-blind, visibility filters at lookup time).
        for version in self._versions:
            if version is not None:
                index.insert(version.values, version.tid)
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise CatalogError("index %r does not exist" % name)
        if any(index.name == name for _u, index in self.unique_indexes):
            raise CatalogError(
                "index %r backs a unique constraint and cannot be dropped"
                % name)
        del self.indexes[name]

    def find_index(self, columns: Sequence[str],
                   *, prefix_ok: bool = False):
        """An index whose column list matches ``columns`` (or a prefix)."""
        wanted = tuple(columns)
        for index in self.indexes.values():
            if index.columns == wanted:
                return index
        if prefix_ok:
            for index in self.indexes.values():
                if index.columns[:len(wanted)] == wanted:
                    return index
        return None

    # ------------------------------------------------------------------
    # heap operations
    # ------------------------------------------------------------------
    def touch(self, version: TupleVersion) -> None:
        """Charge a page access for examining this version."""
        self._buffer_cache.touch_run(self.name, version.page_id, 1)

    def touch_segment(self, segment: Segment) -> None:
        """Charge a segment to the buffer cache by page run.

        Counter for counter identical to calling :meth:`touch` on every
        version in order (heap neighbours share pages, so a segment
        collapses to a handful of runs — see
        :meth:`~repro.db.pages.BufferCache.touch_run`).  An unbounded
        cache holds every page, so there the whole segment is one run
        of hits, however scattered its pages."""
        touch_run = self._buffer_cache.touch_run
        name = self.name
        if self._buffer_cache.capacity is None:
            return touch_run(name, 0, len(segment.versions))
        for page_id, count in segment.page_runs:
            touch_run(name, page_id, count)

    def append(self, values: Tuple, label: Label, ilabel: Label,
               xid: int, tid: Optional[int] = None) -> TupleVersion:
        """Write a new version into the heap and all indexes, at the end
        of the heap or — replay naming the tid it was logged at — in
        the empty slot ``tid``, padding the heap with empty slots up to
        it (as :meth:`unlink` leaves them)."""
        versions = self._versions
        tid = len(versions) if tid is None else tid
        while len(versions) <= tid:
            versions.append(None)
        data_size = self.schema.row_data_size(values)
        version = TupleVersion(
            tid=tid, xmin=xid, values=values,
            label=label if self._store_labels else EMPTY_LABEL,
            ilabel=ilabel if self._store_labels else EMPTY_LABEL,
            data_size=data_size, store_label=self._store_labels)
        version.page_id = self._allocator.place(version.size)
        versions[tid] = version
        self._segments.pop(tid // self._segment_size, None)
        self._heap_count += 1
        self.touch(version)
        for index in self.indexes.values():
            index.insert(values, tid)
        return version

    def version(self, tid: int) -> Optional[TupleVersion]:
        """The version in slot ``tid``; ``None`` for an empty slot or
        one past the end of the heap."""
        return self._versions[tid] if 0 <= tid < len(self._versions) else None

    def all_versions(self) -> Iterator[TupleVersion]:
        for version in self._versions:
            if version is not None:
                yield version

    def stamp(self, version: TupleVersion, xid: Optional[int]) -> None:
        """Mark ``version`` deleted (or superseded) by ``xid`` — the one
        writer of ``xmax``.  ``xid=None`` clears the mark of a deleter
        that rolled back: no change in visibility (an aborted ``xmax``
        hides nothing), but the slice's summary is rebuilt unstamped."""
        version.xmax = xid
        self._segments.pop(version.tid // self._segment_size, None)

    def segments(self, size: int) -> Iterator[Segment]:
        """The heap as one :class:`Segment` per aligned ``size``-slot
        slice that holds a live version.

        Slices of the database's own scan length are memoized, as
        :class:`HeapSegment` (an emptied slice too, so skipping it is
        one dict probe); any other length — a subquery's one-row
        batches, the reference executor — is sliced afresh into
        segments that keep nothing, as is a length under
        :data:`SET_AT_A_TIME_MIN`, whose segments no summary would ever
        be read from.  The loop re-reads ``len()`` so versions appended
        mid-scan are still reached, matching :meth:`all_versions`
        semantics.
        """
        versions = self._versions
        memo = self._segments if size == self._segment_size \
            and size >= SET_AT_A_TIME_MIN else None
        start = 0
        while start < len(versions):
            segment = None if memo is None else memo.get(start // size)
            if segment is None:
                live = [v for v in versions[start:start + size]
                        if v is not None]
                if memo is None:
                    segment = Segment(live)
                else:
                    segment = memo[start // size] = HeapSegment(tuple(live))
            start += size
            if segment.versions:
                yield segment

    def versions_for_tids(self, tids) -> Iterator[TupleVersion]:
        versions = self._versions
        for tid in tids:
            version = versions[tid]
            if version is not None:
                yield version

    @property
    def version_count(self) -> int:
        return self._heap_count

    @property
    def approx_rows(self) -> int:
        """The optimizer's one cardinality source, O(1): the heap's
        versions, which overcounts live rows by the dead versions not
        yet reclaimed."""
        return self._heap_count

    @property
    def pages(self) -> int:
        return self._allocator.pages_allocated

    # ------------------------------------------------------------------
    # version reclamation
    # ------------------------------------------------------------------
    def unlink(self, tid: int) -> None:
        """Physically remove one version: out of every index, and its
        heap slot emptied rather than compacted, so tids stay stable
        for write records and for the log, whose replay writes every
        version at the tid it was logged at.  The caller
        (:meth:`TransactionManager.reclaim`) has established that no
        snapshot can see it."""
        version = self._versions[tid]
        for index in self.indexes.values():
            index.remove(version.values, tid)
        self._versions[tid] = None
        self._segments.pop(tid // self._segment_size, None)
        self._heap_count -= 1

    def vacuum(self, txn_manager) -> int:
        """``VACUUM``: offer every version to the reclaimer instead of
        waiting for the doomed queue to reach it.  Returns how many
        were dead."""
        horizon = txn_manager.horizon()
        return sum(txn_manager.reclaim(self, tid, horizon)
                   for tid in range(len(self._versions)))
