"""Heap storage: tables as version chains with page accounting.

A :class:`Table` owns its tuple versions (the heap), its page allocator,
and its indexes.  All reads and writes of versions flow through
:meth:`Table.touch`, which charges the engine's buffer cache — the hook
the on-disk benchmark configuration (Figure 6) relies on.

Reclamation (the PostgreSQL garbage collector, which section 7.1 notes is
exempt from the information flow rules) physically removes versions that
are dead to every possible snapshot: :meth:`Table.unlink` is the one
primitive, driven by :class:`~repro.db.transactions.TransactionManager`.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.labels import EMPTY_LABEL, Label
from ..errors import CatalogError
from .indexes import HashIndex, OrderedIndex
from .pages import BufferCache, HeapPageAllocator
from .schema import TableSchema
from .tuples import TupleVersion


class Table:
    """A stored table: schema + heap + indexes."""

    def __init__(self, schema: TableSchema, *, page_size: int,
                 buffer_cache: BufferCache, store_labels: bool):
        self.schema = schema
        self.name = schema.name
        self._versions: List[Optional[TupleVersion]] = []
        self._allocator = HeapPageAllocator(schema.name, page_size)
        self._buffer_cache = buffer_cache
        self._store_labels = store_labels
        self.indexes: Dict[str, object] = {}
        self.unique_indexes: List[Tuple] = []   # (constraint, index)
        self.polyinstantiation_count = 0
        #: Monotonic write counter (inserts, update versions, deletes);
        #: the statistics subsystem compares it against the value seen
        #: at ANALYZE time to decide when histograms have gone stale.
        self.modifications = 0
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
        self._buffer_cache.touch(self.name, version.page_id)

    def touch_versions(self, versions: List[TupleVersion]) -> None:
        """Charge a candidate chunk to the buffer cache by page run.

        Counter for counter identical to calling :meth:`touch` on every
        version in order (heap neighbours share pages, so a batch
        collapses to a handful of runs — see
        :meth:`~repro.db.pages.BufferCache.touch_run`); the runs are
        found by ``groupby`` over the page-id column, not a per-version
        loop.  An unbounded cache holds every page, so there the whole
        chunk is one run of hits, however scattered its pages."""
        touch_run = self._buffer_cache.touch_run
        name = self.name
        if self._buffer_cache.capacity is None:
            return touch_run(name, 0, len(versions))
        for page_id, run in groupby([v.page_id for v in versions]):
            touch_run(name, page_id, len(list(run)))

    def append(self, values: Tuple, label: Label, ilabel: Label,
               xid: int) -> TupleVersion:
        """Write a new version into the heap and all indexes."""
        data_size = self.schema.row_data_size(values)
        version = TupleVersion(
            tid=len(self._versions), xmin=xid, values=values,
            label=label if self._store_labels else EMPTY_LABEL,
            ilabel=ilabel if self._store_labels else EMPTY_LABEL,
            data_size=data_size, store_label=self._store_labels)
        version.page_id = self._allocator.place(version.size)
        self._versions.append(version)
        self.modifications += 1
        self._heap_count += 1
        self.touch(version)
        for index in self.indexes.values():
            index.insert(values, version.tid)
        return version

    def version(self, tid: int) -> Optional[TupleVersion]:
        return self._versions[tid]

    def all_versions(self) -> Iterator[TupleVersion]:
        for version in self._versions:
            if version is not None:
                yield version

    def all_versions_batched(self, size: int
                             ) -> Iterator[List[TupleVersion]]:
        """Live heap versions in lists of up to ``size``.

        The batch granularity of the scan: slicing the version array
        and filtering the vacuumed holes in one list comprehension is
        markedly cheaper than driving a per-version generator, which is
        the point of batch-at-a-time execution.  The loop re-reads
        ``len()`` so versions appended mid-scan are still reached,
        matching :meth:`all_versions` semantics.
        """
        versions = self._versions
        start = 0
        while start < len(versions):
            chunk = [v for v in versions[start:start + size]
                     if v is not None]
            start += size
            if chunk:
                yield chunk

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
        """Cheap (O(1)) row-count estimate for un-analyzed tables: live
        heap versions, which overcounts by the dead versions not yet
        reclaimed."""
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
        for write records and the WAL tid maps.  The caller
        (:meth:`TransactionManager.reclaim`) has established that no
        snapshot can see it."""
        version = self._versions[tid]
        for index in self.indexes.values():
            index.remove(version.values, tid)
        self._versions[tid] = None
        self._heap_count -= 1

    def vacuum(self, txn_manager) -> int:
        """``VACUUM``: offer every version to the reclaimer instead of
        waiting for the doomed queue to reach it.  Returns how many
        were dead."""
        horizon = txn_manager.horizon()
        return sum(txn_manager.reclaim(self, tid, horizon)
                   for tid in range(len(self._versions)))
