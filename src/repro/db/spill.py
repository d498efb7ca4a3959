"""Spill files for memory-bounded (grace) hash joins.

The batched executor's :class:`~repro.db.physical.HashJoin` builds an
in-memory hash table of its right input.  Under a ``work_mem`` budget
(``Database(work_mem=…)`` / ``REPRO_WORK_MEM``) the build is
byte-estimated as it grows; on overflow the join degrades to the
classic *hybrid grace* scheme this module implements the storage for:

* build rows are hash-partitioned by join key into ``SPILL_FANOUT``
  partitions; partition 0 stays **resident** in memory (the hybrid
  part) unless it alone overflows the budget, every other partition
  spools to an anonymous temp file;
* probe rows whose key routes to the resident partition join
  immediately (streaming); the rest spool to per-partition probe
  files;
* each spilled partition is then joined independently — and a
  partition whose build side *still* exceeds the budget is recursively
  re-partitioned with a fresh hash salt, terminating when the
  partition holds a single distinct key (re-partitioning cannot split
  it; it is processed in memory over budget) or at
  :data:`MAX_RECURSION`.

Rows are serialized with the labeled-row codec shared with the
dump/restore tooling (:func:`encode_labeled_row`, which
:mod:`repro.db.dump` also uses per tuple): labels are stored as plain
tag tuples and re-enter the intern table on decode, so a reloaded
label is *identical* (``is``) to the live one and the scan-level label
memos keep working across a spill.

Spilling never moves enforcement: every spooled row already passed the
scan-level MVCC and Query-by-Label checks under the statement's
snapshot, and a temp-file round trip cannot resurrect a tuple the
process may not see.  Temp files never touch the buffer cache — heap
pages were charged once, when the scans read them.
"""

from __future__ import annotations

import pickle
import tempfile
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.counters import CounterGroup
from ..core.labels import Label

#: Partitions per spill level (the grace-join fanout).
SPILL_FANOUT = 8
#: Hard cap on recursive re-partitioning depth; a partition that still
#: overflows at this depth is processed in memory over budget (likely
#: extreme skew that even re-salting cannot split).
MAX_RECURSION = 6
#: Estimated dict-entry overhead per build row (bucket list slot, key
#: tuple, hash-table share), on top of :func:`estimate_row_bytes`.
BUCKET_ENTRY_BYTES = 96
#: Estimated footprint of one per-group aggregate accumulator
#: (``physical._Count``/``_Sum``/``_Best``: a slotted object plus a few
#: boxed fields, or a distinct-tracking set seed).  Charged per aggregate spec per
#: group by both the runtime budget check and the optimizer's
#: grace-aggregation estimate, so they agree on what group state
#: weighs.
AGG_STATE_BYTES = 120


class SpillStats(CounterGroup):
    """Process-wide spill counters (diff before/after, like
    ``rules.COUNTERS``).  ``spills`` counts top-level build-side
    overflow events (one per join that spilled, however deep the
    recursion), ``repartitions`` recursive splits — both grace-join
    partitions and re-partitioned aggregation state — and
    ``partitions_created`` build spools that actually received rows;
    bytes are accounted when a spool switches from writing to
    reading.  ``sort_spills``/``sort_runs`` count external merge
    sorts and the sorted runs they spooled; ``agg_spills``/
    ``agg_partitions`` the grace hash aggregations (and DISTINCTs)
    whose group state overflowed and the partitions that received
    rows.  Registered as the ``spill`` group of the unified
    :data:`repro.db.metrics.REGISTRY`; ``bytes_spilled`` also feeds
    the per-statement stats (``Database.stats()["statements"]``) and
    EXPLAIN ANALYZE's ``spill_*`` columns."""

    FIELDS = ("spills", "partitions_created", "repartitions",
              "rows_spilled", "bytes_spilled", "sort_spills",
              "sort_runs", "agg_spills", "agg_partitions")


#: The module-wide counter instance.
SPILL_STATS = SpillStats()


# ---------------------------------------------------------------------------
# the labeled-row codec (shared with db.dump)
# ---------------------------------------------------------------------------

def encode_labeled_row(values, label: Label, ilabel: Label) -> tuple:
    """Serialize one labeled row as ``(values, label_tags, ilabel_tags)``.

    The same representation the label-preserving dump format stores per
    tuple (:mod:`repro.db.dump`): labels flatten to plain tag tuples so
    the payload is stable pickle regardless of intern-table state.
    """
    return values, tuple(label.tags), tuple(ilabel.tags)


def decode_labeled_row(record: tuple):
    """Inverse of :func:`encode_labeled_row`; labels re-enter the
    intern table, so a decoded label is identical (``is``) to the live
    interned instance for the same tag set."""
    values, label_tags, ilabel_tags = record
    return values, Label(label_tags), Label(ilabel_tags)


def estimate_value_bytes(value) -> int:
    """Approximate in-memory footprint of one column value — the
    per-value half of :func:`estimate_row_bytes`.  ANALYZE uses the
    same accounting to measure average column widths
    (:attr:`~repro.db.stats.ColumnStats.avg_width`), so the optimizer's
    planning-time byte estimates and the executor's runtime budget
    checks agree on what a row weighs.  Note a projected-away column
    rides along as ``None`` at 8 bytes, which is why a narrow build
    side earns a real memory credit."""
    if value is None:
        return 8
    if isinstance(value, (int, float)):
        return 28
    if isinstance(value, str):
        return 49 + len(value)
    if isinstance(value, Label):
        return 64 + 4 * len(value)
    return 64


def estimate_row_bytes(values, label: Optional[Label] = None) -> int:
    """Approximate in-memory footprint of one execution row.

    Deliberately coarse (CPython object headers rounded to friendly
    constants): the budget decides *when to switch algorithms*, not an
    allocator invariant.  Strings count their length, labels 4 bytes a
    tag plus object overhead — the same per-tag accounting the page
    model uses (section 8.3).
    """
    total = 64                               # the list + its pointer slots
    for value in values:
        total += estimate_value_bytes(value)
    if label is not None:
        total += 16 + 4 * len(label)
    return total


def estimated_tuple_bytes(n_columns: int) -> int:
    """Planning-time row-width guess when only the column count is
    known (the optimizer's spill costing; see ``Optimizer``)."""
    return 72 + 30 * n_columns


class SpillFile:
    """Append-only spool of pickled records on an anonymous temp file.

    Records are written with ``pickle`` (self-delimiting, so no length
    framing is needed) and read back exactly once.  The backing
    ``TemporaryFile`` is opened lazily on the first write — a grace
    join creates ``2 × fanout`` spools per level and many (the hybrid
    resident pair, lightly-hit partitions) are never written — and is
    unlinked by the OS, so an abandoned spool cannot outlive the
    process.
    """

    __slots__ = ("_file", "count", "_reading")

    def __init__(self):
        self._file = None
        self.count = 0
        self._reading = False

    def write(self, record) -> None:
        assert not self._reading, "spill file already switched to reading"
        if self._file is None:
            self._file = tempfile.TemporaryFile(prefix="repro-spill-")
        pickle.dump(record, self._file, pickle.HIGHEST_PROTOCOL)
        self.count += 1
        SPILL_STATS.rows_spilled += 1

    def records(self) -> Iterator:
        """Yield every record in write order, then close the file."""
        self._reading = True
        if self._file is None:
            return
        SPILL_STATS.bytes_spilled += self._file.tell()
        self._file.seek(0)
        try:
            for _ in range(self.count):
                yield pickle.load(self._file)
        finally:
            self._file.close()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()

    # -- labeled execution rows (the join spools) ----------------------
    def write_row(self, key: tuple, row) -> None:
        """Spool one keyed ``(values, label, ilabel)`` execution row."""
        values, label, ilabel = row
        self.write((key,) + encode_labeled_row(values, label, ilabel))

    def rows(self) -> Iterator[Tuple[tuple, tuple]]:
        """Yield ``(key, (values, label, ilabel))`` in write order."""
        for key, values, label_tags, ilabel_tags in self.records():
            yield key, decode_labeled_row((values, label_tags,
                                           ilabel_tags))

    def write_labeled(self, row) -> None:
        """Spool one keyless ``(values, label, ilabel)`` execution row
        (the external-sort run format — order carries the information,
        so no routing key is stored)."""
        values, label, ilabel = row
        self.write(encode_labeled_row(values, label, ilabel))

    def labeled_rows(self) -> Iterator[tuple]:
        """Yield ``(values, label, ilabel)`` triples in write order;
        labels re-enter the intern table on decode."""
        for record in self.records():
            yield decode_labeled_row(record)


class _Partition:
    """One grace partition: a build spool and a probe spool."""

    __slots__ = ("build", "probe")

    def __init__(self):
        self.build = SpillFile()
        self.probe = SpillFile()

    def close(self) -> None:
        self.build.close()
        self.probe.close()


class SpilledHashBuild:
    """Partitioned overflow state for one hash-join build side.

    Rows are opaque to this class (the join layer passes
    ``(values, label, ilabel)`` triples); only the key participates in
    routing.  With ``keep_resident`` (the top level) partition 0 lives
    as an in-memory bucket dict so probes against it stream with no
    extra I/O; recursion levels disable it — their input is already a
    single partition's worth of rows.
    """

    __slots__ = ("budget", "fanout", "salt", "depth", "partitions",
                 "resident", "resident_bytes")

    def __init__(self, budget: int, *, salt: int = 0, depth: int = 0,
                 keep_resident: bool = True, fanout: int = SPILL_FANOUT):
        self.budget = budget
        self.fanout = fanout
        self.salt = salt
        self.depth = depth
        self.partitions: List[_Partition] = [_Partition()
                                             for _ in range(fanout)]
        self.resident: Optional[Dict[tuple, list]] = \
            {} if keep_resident else None
        self.resident_bytes = 0
        if depth == 0:
            SPILL_STATS.spills += 1

    def route(self, key: tuple) -> int:
        return hash((self.salt, key)) % self.fanout

    @staticmethod
    def _write_build(spool: SpillFile, key: tuple, row) -> None:
        if spool.count == 0:
            SPILL_STATS.partitions_created += 1
        spool.write_row(key, row)

    # -- build side ----------------------------------------------------
    def take_buckets(self, buckets: Dict[tuple, list]) -> None:
        """Migrate the in-memory buckets accumulated before overflow."""
        for key, rows in buckets.items():
            for row in rows:
                self.add_build(key, row)

    def add_build(self, key: tuple, row) -> None:
        index = self.route(key)
        if index == 0 and self.resident is not None:
            self.resident.setdefault(key, []).append(row)
            self.resident_bytes += (estimate_row_bytes(row[0], row[1])
                                    + BUCKET_ENTRY_BYTES)
            if self.resident_bytes > self.budget:
                # The hybrid partition alone overflows: demote it to a
                # spool like the others (build phase only — by probe
                # time the resident dict is frozen).
                spool = self.partitions[0].build
                for spilled_key, rows in self.resident.items():
                    for spilled_row in rows:
                        self._write_build(spool, spilled_key, spilled_row)
                self.resident = None
            return
        self._write_build(self.partitions[index].build, key, row)

    # -- probe side ----------------------------------------------------
    def probe(self, key: tuple, row) -> Optional[list]:
        """Immediate matches when ``key`` routes to the resident
        partition (possibly ``[]`` — a definitive miss), else ``None``
        after spooling the probe row for the partition phase.

        The build side is always complete before probing starts, so a
        partition whose build spool is empty is also a definitive miss
        — the probe row skips the spool round trip.  (Top level only:
        recursion levels re-spool via :meth:`spool_probe`, where the
        row must surface in the partition phase regardless, for LEFT
        JOIN NULL extension.)"""
        index = self.route(key)
        if index == 0 and self.resident is not None:
            return self.resident.get(key, [])
        partition = self.partitions[index]
        if partition.build.count == 0:
            return []
        partition.probe.write_row(key, row)
        return None

    def spool_probe(self, key: tuple, row) -> None:
        self.partitions[self.route(key)].probe.write_row(key, row)

    # -- partition phase ------------------------------------------------
    def results(self) -> Iterator[Tuple[object, list]]:
        """Yield ``(probe_row, build_matches)`` for every spooled probe
        row, re-partitioning build sides that still exceed the budget.

        Each partition's spools close as soon as that partition is
        done *or dies* (the inner ``finally``); consumers should still
        call :meth:`close` in their own ``finally`` — it is idempotent
        — so an exception raised between partitions, or an abandoned
        iterator, cannot leak the remaining descriptors.
        """
        for index, partition in enumerate(self.partitions):
            if index == 0 and self.resident is not None:
                # Resident probes were answered online; nothing spooled.
                partition.close()
                continue
            try:
                yield from _join_partition(partition.build.rows(),
                                           partition.probe.rows(),
                                           self.budget, self.depth + 1)
            finally:
                partition.close()

    def close(self) -> None:
        """Release every partition's temp files (idempotent)."""
        for partition in self.partitions:
            partition.close()


def _join_partition(build_records, probe_records, budget: int,
                    depth: int) -> Iterator[Tuple[object, list]]:
    """Join one partition's spooled build and probe rows.

    Loads the build side into buckets under the byte budget; if it
    overflows *and* holds more than one distinct key *and* the
    recursion cap is not reached, the partition is split again with a
    fresh salt (both sides re-spooled) — otherwise it finishes in
    memory over budget, which is the termination guarantee for
    all-equal-key (unsplittable) partitions.
    """
    buckets: Dict[tuple, list] = {}
    mem = 0
    child: Optional[SpilledHashBuild] = None
    for key, row in build_records:
        if child is not None:
            child.add_build(key, row)
            continue
        buckets.setdefault(key, []).append(row)
        mem += estimate_row_bytes(row[0], row[1]) + BUCKET_ENTRY_BYTES
        if (mem > budget and len(buckets) > 1 and depth < MAX_RECURSION):
            child = SpilledHashBuild(budget, salt=depth, depth=depth,
                                     keep_resident=False)
            child.take_buckets(buckets)
            buckets = {}
            SPILL_STATS.repartitions += 1
    if child is None:
        empty: list = []
        for key, row in probe_records:
            yield row, buckets.get(key, empty)
        return
    try:
        for key, row in probe_records:
            child.spool_probe(key, row)
        yield from child.results()
    finally:
        child.close()


class SortRuns:
    """Spooled sorted runs for one external merge sort.

    Each run is a :class:`SpillFile` of keyless labeled rows
    (:meth:`SpillFile.write_labeled`) in sorted order; the sort
    operator k-way merges ``runs`` with a heap, so the merge fan-in is
    unbounded — every run is merged in a single pass regardless of how
    many the input produced.  Constructing the object marks the sort
    as spilled (``sort_spills``); each spooled run bumps
    ``sort_runs``.
    """

    __slots__ = ("runs",)

    def __init__(self):
        self.runs: List[SpillFile] = []
        SPILL_STATS.sort_spills += 1

    def spool(self, rows_in_order) -> None:
        """Write one fully-sorted chunk of execution rows as a run."""
        spool = SpillFile()
        for row in rows_in_order:
            spool.write_labeled(row)
        self.runs.append(spool)
        SPILL_STATS.sort_runs += 1

    def close(self) -> None:
        """Release every run's temp file (idempotent); the merge phase
        calls this in a ``finally`` so a comparison TypeError mid-merge
        cannot leak the remaining run descriptors."""
        for run in self.runs:
            run.close()


class GroupSpill:
    """Grace partitioner for overflowing hash-aggregation (and
    DISTINCT) group state.

    Rows whose group key is not already memory-resident are
    hash-routed by ``(salt, key)`` into ``fanout`` spools; each
    partition is later re-aggregated independently, and a partition
    that *still* overflows is split again with a fresh salt — the same
    fanout/salt/recursion scheme as :class:`SpilledHashBuild`, with
    the same termination guarantee (a partition holding one distinct
    key never creates a second group, so it never re-spills).  The
    top-level overflow counts as ``agg_spills``; recursive splits as
    ``repartitions``; a spool counts toward ``agg_partitions`` when it
    first receives a row.
    """

    __slots__ = ("salt", "spools")

    def __init__(self, *, salt: int = 0, depth: int = 0,
                 fanout: int = SPILL_FANOUT):
        self.salt = salt
        self.spools: List[SpillFile] = [SpillFile() for _ in range(fanout)]
        if depth == 0:
            SPILL_STATS.agg_spills += 1
        else:
            SPILL_STATS.repartitions += 1

    def add(self, key: tuple, row) -> None:
        spool = self.spools[hash((self.salt, key)) % len(self.spools)]
        if spool.count == 0:
            SPILL_STATS.agg_partitions += 1
        spool.write_row(key, row)

    def partitions(self) -> Iterator[Iterator[Tuple[tuple, tuple]]]:
        """Yield one ``(key, row)`` iterator per non-empty partition;
        empty spools are closed without counting."""
        for spool in self.spools:
            if spool.count:
                yield spool.rows()
            else:
                spool.close()

    def close(self) -> None:
        """Release every spool's temp file (idempotent); consumers call
        this in a ``finally`` so a mid-aggregation error cannot leak
        the unread partitions' descriptors."""
        for spool in self.spools:
            spool.close()


def estimate_spill_plan(build_bytes: float, work_mem: int,
                        fanout: int = SPILL_FANOUT
                        ) -> Tuple[int, float, int]:
    """Planning-time estimate:
    ``(leaf_partitions, bytes_per_partition, levels)``.

    Zero partitions means the build is expected to fit.  Partition
    counts grow by whole levels of ``fanout`` (the runtime splits a
    level at a time), so the estimated per-partition memory — what
    EXPLAIN reports as the operator's peak — is ``build_bytes /
    fanout**levels``, the first level count that fits the budget.
    ``levels`` is how many times each spilled row is expected to be
    written and re-read, which is what the optimizer charges.

    Past :data:`MAX_RECURSION` levels (a build estimated beyond
    ``work_mem × fanout**MAX_RECURSION``) the estimate stops splitting,
    mirroring the runtime's recursion cap: the returned per-partition
    bytes then honestly exceed the budget, and EXPLAIN shows the
    over-budget peak the capped execution would actually reach.
    """
    if not work_mem or build_bytes <= work_mem:
        return 0, build_bytes, 0
    partitions = 1
    levels = 0
    while build_bytes / partitions > work_mem and levels < MAX_RECURSION:
        partitions *= fanout
        levels += 1
    return partitions, build_bytes / partitions, levels
