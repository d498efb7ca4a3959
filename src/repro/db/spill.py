"""Spill files for the memory-bounded operators.

The executor's :class:`~repro.db.physical.HashJoin` builds an
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

**Blocks.**  A spool's unit is the block, not the row
(:func:`encode_block`): the key columns (routing keys, or a sort run's
key columns), the value columns, and the two label columns
dictionary-coded against a small per-block label table — one pickle
per block.  A block read back *is* a columnar batch plus its key
columns, and its labels re-enter the intern table once per distinct
label of the block, so a reloaded label is *identical* (``is``) to the
live one and the scan-level label memos keep working across a spill.
Write buffers are sized out of the budget (:class:`Spools`): a
statement's ``fanout`` open spools together buffer at most one
partition's share of ``work_mem``, so at a budget of a few rows the
blocks degenerate to one row.  The durable format — the WAL
(:mod:`repro.db.wal`), whose images are also the dumps
(:mod:`repro.db.dump`) — keeps the per-row :func:`encode_labeled_row`.

Partitions are drained one after another on the statement's own
thread: the engine runs a query in one process, as the paper's
prototype runs it in one backend.

Spilling never moves enforcement: every spooled row already passed the
scan-level MVCC and Query-by-Label checks under the statement's
snapshot, and a temp-file round trip cannot resurrect a tuple the
process may not see.  Temp files never touch the buffer cache — heap
pages were charged once, when the scans read them.
"""

from __future__ import annotations

import pickle
import tempfile
from bisect import bisect_right
from collections import defaultdict, deque
from itertools import accumulate, count, repeat
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.counters import tally
from ..core.labels import EMPTY_LABEL, Label
from ..errors import SpillError

#: Partitions per spill level (the grace-join fanout).
SPILL_FANOUT = 8
#: Hard cap on recursive re-partitioning depth; a partition that still
#: overflows at this depth is processed in memory over budget (likely
#: extreme skew that even re-salting cannot split).
MAX_RECURSION = 6
#: Estimated dict-entry overhead per build row (bucket list slot, key
#: tuple, hash-table share), on top of :func:`estimate_row_bytes`.
BUCKET_ENTRY_BYTES = 96
#: Estimated footprint of one aggregate's state for one group: its slot
#: in each of the aggregate's per-group state lists (a pointer and the
#: boxed value it holds — a count, a running sum, a best value), plus a
#: share of the ``(group, value)`` set of a DISTINCT aggregate.  Charged
#: per aggregate spec per group by both the runtime budget check and
#: the optimizer's grace-aggregation estimate, so they agree on what
#: group state weighs.
AGG_STATE_BYTES = 120


# ---------------------------------------------------------------------------
# the labeled-row codec (the durable format: db.wal records and dumps)
# ---------------------------------------------------------------------------

def encode_labeled_row(values, label: Label, ilabel: Label) -> tuple:
    """Serialize one labeled row as ``(values, label_tags, ilabel_tags)``.

    The representation write-ahead log records store per tuple
    (:mod:`repro.db.wal`; a :mod:`repro.db.dump` image is such a log):
    labels flatten to plain tag tuples so the payload is stable pickle
    regardless of intern-table state.
    """
    return values, tuple(label.tags), tuple(ilabel.tags)


def decode_labeled_row(record: tuple):
    """Inverse of :func:`encode_labeled_row`; labels re-enter the
    intern table, so a decoded label is identical (``is``) to the live
    interned instance for the same tag set."""
    values, label_tags, ilabel_tags = record
    return values, Label(label_tags), Label(ilabel_tags)


# ---------------------------------------------------------------------------
# the block codec (spools)
# ---------------------------------------------------------------------------

def _distinct(labels):
    """``(ids, by_id)``: the identity of every label of a column and
    the distinct labels by identity — labels are interned, and ``id``
    is C speed where a label's own hash is a Python method."""
    ids = list(map(id, labels))
    return ids, dict(zip(ids, labels))


def _code_labels(labels, codes: Dict[int, int], tags: list):
    """Dictionary-code one label column against the block's table
    (``tags``, indexed through ``codes`` by label identity): a bare
    code when the column holds one label, else one code per row."""
    ids, by_id = _distinct(labels)
    for ident, label in by_id.items():
        if ident not in codes:
            codes[ident] = len(tags)
            tags.append(tuple(label.tags))
    if len(by_id) == 1:
        return codes[ids[0]]
    column = list(map(codes.__getitem__, ids))
    return bytes(column) if len(tags) <= 256 else column


def encode_block(key_columns, columns, labels, ilabels) -> tuple:
    """Serialize one block of labeled rows, column by column.

    ``key_columns`` and ``columns`` are sequences of equally long
    column sequences (a ``None`` value column was projected away and
    stays ``None``).  The two label columns share one per-block table
    of tag tuples — labels are interned, so coding them is a lookup by
    identity — and the payload is stable pickle regardless of
    intern-table state.
    """
    tags: list = []
    codes: Dict[int, int] = {}
    label_codes = _code_labels(labels, codes, tags)
    ilabel_codes = _code_labels(ilabels, codes, tags)
    return (tuple(map(tuple, key_columns)),
            tuple([None if column is None else tuple(column)
                   for column in columns]),
            len(labels), tags, label_codes, ilabel_codes)


def decode_block(record: tuple):
    """Inverse of :func:`encode_block`: ``(key_columns, columns,
    labels, ilabels)`` with every column a list.  Each distinct label
    of the block re-enters the intern table once, so the decoded
    labels are identical (``is``) to the live interned instances."""
    key_columns, columns, n, tags, label_codes, ilabel_codes = record
    table = [Label(tag_tuple) for tag_tuple in tags]

    def column(codes):
        if isinstance(codes, int):
            return [table[codes]] * n
        return list(map(table.__getitem__, codes))

    return (list(map(list, key_columns)),
            [None if held is None else list(held) for held in columns],
            column(label_codes), column(ilabel_codes))


def column_rows(columns, n: int):
    """Row tuples zipped out of ``n``-row columns at C speed (a
    ``None`` column was projected away and reads NULL)."""
    if not columns:
        return repeat((), n)
    return zip(*[repeat(None, n) if column is None else column
                 for column in columns])


def column_keys(key_columns, n: int):
    """The join or group key of each of ``n`` rows, from its key
    columns: a one-column key is the column's value itself, a wider
    one the row's tuple of values (:func:`column_rows`).  What every
    hash build, probe and fold keys by, live or replayed from a spool."""
    if len(key_columns) == 1:
        return key_columns[0]
    return list(column_rows(key_columns, n))


def key_columns_of(keys, width: int) -> list:
    """The ``width`` key columns of :func:`column_keys`' ``keys`` — its
    inverse (no column when there is no key of several columns)."""
    return [list(keys)] if width == 1 else list(zip(*keys))


def take_rows(columns, labels, ilabels, rows) -> tuple:
    """``(columns, labels, ilabels)`` of the rows at positions ``rows``,
    in order, each gathered in C — sliced, when ``rows`` is a
    unit-step ``range``; a ``None`` column stays ``None``.  A gathered
    sequence may be a tuple: a batch's sequences are never mutated."""
    if type(rows) is range and rows.step == 1 and rows.start >= 0:
        take = itemgetter(slice(rows.start, rows.start + len(rows)))
    elif len(rows) > 1:
        take = itemgetter(*rows)
    else:                                  # itemgetter(i) is not a tuple
        def take(sequence):
            return [sequence[i] for i in rows]
    return ([None if column is None else take(column) for column in columns],
            take(labels), take(ilabels))


#: The row number of a :class:`JoinSide`'s all-NULL row.
NULL_ROW = 0


class JoinSide:
    """A join's right side, held as columns: what a hash build, a
    nested loop's materialized inner side, an index join's probe
    results and a grace partition are, in memory.

    ``columns`` are the value columns (a ``None`` slot was projected
    away and reads NULL), ``labels``/``ilabels`` the per-row labels,
    all appended a block at a time (:meth:`add`); ``buckets`` maps a
    join key (:func:`column_keys`) to the row numbers holding it, in
    arrival order.  Row :data:`NULL_ROW` is the all-NULL, unlabelled
    row a LEFT join extends its unmatched rows with, so every side has
    one and no key names it.  A joined row is gathered by row number:
    nothing is built per build row but its slot in each column and its
    number in its bucket.  ``bytes`` is what the rows added under a budget
    (:meth:`fill`) weigh.
    """

    __slots__ = ("columns", "labels", "ilabels", "buckets", "bytes")

    def __init__(self, width: int):
        self.columns: list = [None] * width
        self.labels: list = [EMPTY_LABEL]
        self.ilabels: list = [EMPTY_LABEL]
        self.buckets: dict = defaultdict(list)
        self.bytes = 0

    def add(self, keys, columns, labels, ilabels) -> None:
        """Append a block of rows; ``keys`` (one per row, or empty for
        an unkeyed side) enter the buckets."""
        base, n = len(self.labels), len(labels)
        held = self.columns
        for j, column in enumerate(columns):
            if held[j] is not None:
                held[j].extend(repeat(None, n) if column is None else column)
            elif column is not None:       # read from here on: backfill
                held[j] = [None] * base
                held[j].extend(column)
        self.labels.extend(labels)
        self.ilabels.extend(ilabels)
        # ``buckets[key].append(row)`` per row, driven at C speed.
        deque(map(list.append, map(self.buckets.__getitem__, keys),
                  count(base)), 0)

    def fill(self, keys, columns, labels, ilabels, budget: int
             ) -> Optional[int]:
        """:meth:`add` a keyed block under a byte budget (0: none), each
        row weighing :func:`estimate_row_bytes` plus
        :data:`BUCKET_ENTRY_BYTES` (a column at a time,
        :func:`estimate_batch_bytes`).  Returns None when every row
        fit; otherwise the number of rows added, the last of which took
        the side past the budget — found in the block's running totals,
        not by a per-row check."""
        cut = None
        if budget:
            totals = list(accumulate(estimate_batch_bytes(
                columns, labels, BUCKET_ENTRY_BYTES), initial=self.bytes))
            if totals[-1] > budget:
                cut = bisect_right(totals, budget)
                keys = keys[:cut]
                columns, labels, ilabels = take_rows(columns, labels,
                                                     ilabels, range(cut))
            self.bytes = totals[-1 if cut is None else cut]
        self.add(keys, columns, labels, ilabels)
        return cut


# ---------------------------------------------------------------------------
# byte accounting
# ---------------------------------------------------------------------------

#: Footprint of the fixed-width value types, by exact type.
_FIXED_BYTES = {type(None): 8, int: 28, float: 28, bool: 28}


def estimate_value_bytes(value) -> int:
    """Approximate in-memory footprint of one column value — the
    per-value half of :func:`estimate_row_bytes`, which the executor's
    runtime budget checks charge (the optimizer plans with the
    width-only :func:`estimated_tuple_bytes`).  Note a projected-away
    column rides along as ``None`` at 8 bytes, which is why a narrow
    build side earns a real memory credit."""
    fixed = _FIXED_BYTES.get(type(value))
    if fixed is not None:
        return fixed
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
    fixed = _FIXED_BYTES.get
    for value in values:
        size = fixed(type(value))
        if size is None:
            size = 49 + len(value) if type(value) is str \
                else estimate_value_bytes(value)
        total += size
    if label is not None:
        total += 16 + 4 * len(label)
    return total


def estimate_batch_bytes(columns, labels, extra: int = 0) -> List[int]:
    """:func:`estimate_row_bytes` (plus ``extra``) for every row of a
    columnar batch, a column at a time: a column of one fixed width
    weighs by table lookup, strings by ``len``, labels by tag count
    (once per distinct label — the ``labels`` argument and a column of
    labels, such as the ``_label`` pseudo-column, alike).
    Byte-identical, row for row, to the per-row estimate.  ``labels``
    is the batch's label column (always charged, and what gives the
    row count)."""
    n = len(labels)
    if not n:
        return []
    fixed = 64 + extra
    varying = []

    def weigh_labels(column, overhead: int) -> None:
        nonlocal fixed
        ids, by_id = _distinct(column)
        sizes = {ident: overhead + 4 * len(label)
                 for ident, label in by_id.items()}
        if len(sizes) == 1:
            fixed += sizes[ids[0]]
        else:
            varying.append(map(sizes.__getitem__, ids))

    weigh_labels(labels, 16)
    for column in columns:
        if column is None:                   # projected away: NULLs
            fixed += 8
            continue
        kinds = set(map(type, column))
        widths = set(map(_FIXED_BYTES.get, kinds))
        if len(widths) == 1 and None not in widths:
            fixed += widths.pop()
        elif kinds == {str}:
            varying.append([49 + size for size in map(len, column)])
        elif kinds == {Label}:
            weigh_labels(column, 64)
        else:
            varying.append(map(estimate_value_bytes, column))
    if not varying:
        return [fixed] * n
    return [fixed + weight for weight in map(sum, zip(*varying))]


def estimated_tuple_bytes(n_columns: int) -> int:
    """Planning-time row-width guess when only the column count is
    known (the optimizer's spill costing; see ``Optimizer``)."""
    return 72 + 30 * n_columns


# ---------------------------------------------------------------------------
# spools
# ---------------------------------------------------------------------------

class Spools:
    """What one statement's spill files share: how big their write
    buffers may grow, and the fault schedule.

    The buffers are charged to the budget rather than configured: the
    ``fanout`` spools a partitioner holds open share one partition's
    worth of ``work_mem``, so one buffer gets ``work_mem / fanout²``
    bytes — never more than a batch of rows, never less than one row
    (at ``REPRO_WORK_MEM=1024`` every block is a single row).
    ``faults`` is the fault-injection schedule
    (:class:`repro.db.faultinject.SpoolFaults`), None outside tests.
    """

    __slots__ = ("buffer_bytes", "max_rows", "faults")

    def __init__(self, work_mem: int, batch_size: int, faults=None):
        self.buffer_bytes = work_mem // (SPILL_FANOUT * SPILL_FANOUT)
        self.max_rows = max(1, batch_size)
        self.faults = faults

    def block_rows(self, row_bytes: int) -> int:
        """Rows per block for rows of about ``row_bytes``."""
        return max(1, min(self.max_rows,
                          self.buffer_bytes // max(1, row_bytes)))


class SpillFile:
    """Append-only spool of pickled blocks on an anonymous temp file.

    Rows arrive one at a time (:meth:`append`, buffered and transposed
    into a block every ``block_rows`` rows) or as ready columns
    (:meth:`write_block`); :meth:`blocks` reads them back exactly once.
    The backing ``TemporaryFile`` is opened lazily on the first block
    — a grace join creates ``2 × fanout`` spools per level and many
    (the hybrid resident pair, lightly-hit partitions) are never
    written — unbuffered, since every block is one ``write`` (so a
    full disk surfaces at the block that hit it), and is unlinked by
    the OS, so an abandoned spool cannot outlive the process.  I/O
    failures raise :class:`~repro.errors.SpillError`.
    """

    __slots__ = ("_spools", "_file", "_pending", "_block_rows", "_sizes",
                 "_reading", "count")

    def __init__(self, spools: Spools):
        self._spools = spools
        self._file = None
        self._pending: list = []
        self._block_rows = 0             # sized from the first row
        self._sizes: List[int] = []      # bytes of each block written
        self._reading = False
        #: Rows appended or written so far.
        self.count = 0

    def append(self, key: tuple, values, label: Label, ilabel: Label) -> None:
        """Spool one keyed execution row."""
        if not self.count:               # first row: size the buffer
            self._block_rows = self._spools.block_rows(
                estimate_row_bytes(values, label))
        self._pending.append((key, values, label, ilabel))
        self.count += 1
        if len(self._pending) >= self._block_rows:
            self._write_pending()

    def _write_pending(self) -> None:
        keys, values, labels, ilabels = zip(*self._pending)
        self._pending = []
        self._write(list(zip(*keys)), list(zip(*values)), labels, ilabels)

    def write_block(self, key_columns, columns, labels, ilabels) -> None:
        """Spool one block of ready columns (the sort-run path)."""
        self._write(key_columns, columns, labels, ilabels)
        self.count += len(labels)

    def _write(self, key_columns, columns, labels, ilabels) -> None:
        if self._reading:
            raise SpillError("spill file already switched to reading")
        data = pickle.dumps(
            encode_block(key_columns, columns, labels, ilabels),
            pickle.HIGHEST_PROTOCOL)
        faults = self._spools.faults
        try:
            if self._file is None:
                self._file = tempfile.TemporaryFile(prefix="repro-spill-",
                                                    buffering=0)
            if faults is not None:
                faults.block_write()
            written = self._file.write(data)
        except OSError as exc:
            raise SpillError("spill write failed: %s" % exc) from exc
        if written != len(data):
            raise SpillError("spill write failed: %d of %d bytes written"
                             % (written, len(data)))
        self._sizes.append(len(data))
        counts = tally()
        counts.rows_spilled += len(labels)
        counts.bytes_spilled += len(data)

    def blocks(self) -> Iterator[tuple]:
        """Yield every block as ``(key_columns, columns, labels,
        ilabels)`` in write order — the partial tail block last — then
        close the file."""
        if self._pending:
            self._write_pending()
        self._reading = True
        if self._file is None:
            return
        faults = self._spools.faults
        try:
            for index, size in enumerate(self._sizes):
                try:
                    if not index:
                        self._file.seek(0)
                    if faults is not None:
                        faults.block_read()
                    data = self._file.read(size)
                except OSError as exc:
                    raise SpillError("spill read failed: %s" % exc) from exc
                if len(data) != size:
                    raise SpillError("spill read failed: %d of %d bytes "
                                     "read" % (len(data), size))
                yield decode_block(pickle.loads(data))
        finally:
            self._file.close()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()


class _Partition:
    """One grace partition: a build spool and a probe spool."""

    __slots__ = ("build", "probe")

    def __init__(self, spools: Spools):
        self.build = SpillFile(spools)
        self.probe = SpillFile(spools)

    def close(self) -> None:
        self.build.close()
        self.probe.close()


class SpilledHashBuild:
    """Partitioned overflow state for one hash-join build side.

    Both sides arrive a keyed block at a time — the rows' key columns
    beside their ``(columns, labels, ilabels)`` — and only the key
    participates in routing.  A row routes by, and a spool writes, its
    key's row tuple; a side's buckets are keyed by :func:`column_keys`,
    as the join probes them.  With ``keep_resident`` (the top level)
    partition 0 is a :class:`JoinSide` of ``width`` columns held in
    memory, so probes against it stream with no extra I/O; recursion
    levels disable it — their input is already a single partition's
    worth of rows.  Every partition is joined through a
    :class:`JoinSide` loaded from its build spool.
    """

    __slots__ = ("budget", "spools", "width", "fanout", "salt", "depth",
                 "partitions", "resident")

    def __init__(self, budget: int, spools: Spools, width: int, *,
                 salt: int = 0, depth: int = 0, keep_resident: bool = True,
                 fanout: int = SPILL_FANOUT):
        self.budget = budget
        self.spools = spools
        self.width = width
        self.fanout = fanout
        self.salt = salt
        self.depth = depth
        self.partitions: List[_Partition] = [_Partition(spools)
                                             for _ in range(fanout)]
        self.resident: Optional[JoinSide] = \
            JoinSide(width) if keep_resident else None
        if depth == 0:
            tally().spills += 1

    def route(self, keys) -> List[int]:
        """The partition index of every key (row tuple) of a chunk."""
        fanout = self.fanout
        return [h % fanout
                for h in map(hash, zip(repeat(self.salt), keys))]

    # -- build side ----------------------------------------------------
    def take(self, side: JoinSide, key_width: int) -> None:
        """Route the rows of an in-memory side built before overflow,
        keyed by ``key_width`` columns: bucket by bucket, each bucket's
        rows in arrival order."""
        buckets = side.buckets
        keys = [key for key, rows in buckets.items() for _ in rows]
        self.add_build(key_columns_of(keys, key_width),
                       *take_rows(side.columns, side.labels, side.ilabels,
                                  [row for rows in buckets.values()
                                   for row in rows]))

    def add_build(self, key_columns, columns, labels, ilabels) -> None:
        n = len(labels)
        rows = list(column_rows(key_columns, n))
        routes = self.route(rows)
        # Rows routed to partition 0 before ``resident_end`` joined the
        # resident side; every other row spools.
        resident_end = 0
        if self.resident is not None:
            resident_end = self._add_resident(
                routes, key_columns, columns, labels, ilabels)
        partitions = self.partitions
        for i, (index, key, values, label, ilabel) in enumerate(zip(
                routes, rows, column_rows(columns, n), labels, ilabels)):
            if index == 0 and i < resident_end:
                continue
            spool = partitions[index].build
            if not spool.count:
                tally().partitions_created += 1
            spool.append(key, values, label, ilabel)

    def _add_resident(self, routes, key_columns, columns, labels,
                      ilabels) -> int:
        """Add a block's partition-0 rows to the resident side while it
        fits the budget (:meth:`JoinSide.fill`); the row that takes it
        past is the last one added, and the hybrid partition alone
        overflowing is demoted to a spool like the others (build phase
        only — by probe time the resident side is frozen).  Returns the
        block position after the last row the resident side took."""
        here = [i for i, index in enumerate(routes) if not index]
        keys = column_keys(key_columns, len(routes))
        cut = self.resident.fill([keys[i] for i in here],
                                 *take_rows(columns, labels, ilabels, here),
                                 self.budget)
        if cut is None:
            return len(routes)
        side, self.resident = self.resident, None
        self.take(side, len(key_columns))
        return here[cut - 1] + 1

    # -- probe side ----------------------------------------------------
    def probe(self, key_columns, columns, labels, ilabels) -> list:
        """Per probe row of a block: the resident side's row numbers
        matching it when the key routes to the resident partition
        (possibly none — a definitive miss, as is a key holding a
        NULL), else ``None`` after spooling the row for the partition
        phase.

        The build side is always complete before probing starts, so a
        partition whose build spool is empty is also a definitive miss
        — the probe row skips the spool round trip.  (Top level only:
        recursion levels re-spool via :meth:`spool_probe`, where the
        row must surface in the partition phase regardless, for LEFT
        JOIN NULL extension.)"""
        resident = self.resident
        partitions = self.partitions
        n = len(labels)
        rows = list(column_rows(key_columns, n))
        found = []
        for index, key, row, values, label, ilabel in zip(
                self.route(rows), column_keys(key_columns, n), rows,
                column_rows(columns, n), labels, ilabels):
            if None in row:
                found.append(())
            elif index == 0 and resident is not None:
                found.append(resident.buckets.get(key, ()))
            elif not partitions[index].build.count:
                found.append(())
            else:
                partitions[index].probe.append(row, values, label, ilabel)
                found.append(None)
        return found

    def spool_probe(self, key_columns, columns, labels, ilabels) -> None:
        partitions = self.partitions
        n = len(labels)
        rows = list(column_rows(key_columns, n))
        for index, row, values, label, ilabel in zip(
                self.route(rows), rows, column_rows(columns, n), labels,
                ilabels):
            partitions[index].probe.append(row, values, label, ilabel)

    # -- partition phase ------------------------------------------------
    def joined(self) -> Iterator[Tuple[tuple, JoinSide]]:
        """Join every partition: yields ``(probe_block, side)`` — a
        spooled probe block and its partition's build rows loaded into
        a :class:`JoinSide` — re-partitioning build sides that still
        exceed the budget.

        Each partition's spools close as soon as that partition is
        done *or dies* (the inner ``finally``); consumers should still
        call :meth:`close` in their own ``finally`` — it is idempotent
        — so an exception raised between partitions, or an abandoned
        iterator, cannot leak the remaining descriptors.
        """
        for index, partition in enumerate(self.partitions):
            try:
                # Resident probes were answered online; nothing spooled.
                if index or self.resident is None:
                    yield from self._join_partition(partition)
            finally:
                partition.close()

    def _join_partition(self, partition: _Partition):
        """Join one partition's spooled build and probe blocks.

        Loads the build blocks into a :class:`JoinSide` under the byte
        budget; if a block leaves it over budget *and* holding more
        than one distinct key *and* the recursion cap is not reached,
        the partition is split again with a fresh salt (both sides
        re-spooled) — otherwise it finishes in memory over budget,
        which is the termination guarantee for all-equal-key
        (unsplittable) partitions.
        """
        depth = self.depth + 1
        side = JoinSide(self.width)
        mem = 0
        child: Optional[SpilledHashBuild] = None
        try:
            for key_columns, columns, labels, ilabels in \
                    partition.build.blocks():
                if child is not None:
                    child.add_build(key_columns, columns, labels, ilabels)
                    continue
                side.add(column_keys(key_columns, len(labels)), columns,
                         labels, ilabels)
                mem += sum(estimate_batch_bytes(columns, labels,
                                                BUCKET_ENTRY_BYTES))
                if (mem > self.budget and len(side.buckets) > 1
                        and depth < MAX_RECURSION):
                    child = SpilledHashBuild(
                        self.budget, self.spools, self.width, salt=depth,
                        depth=depth, keep_resident=False)
                    child.take(side, len(key_columns))
                    side = None
                    tally().repartitions += 1
            if child is None:
                for block in partition.probe.blocks():
                    yield block, side
                return
            for block in partition.probe.blocks():
                child.spool_probe(*block)
            yield from child.joined()
        finally:
            if child is not None:
                child.close()

    def close(self) -> None:
        """Release every partition's temp files (idempotent)."""
        for partition in self.partitions:
            partition.close()


class SortRuns:
    """Spooled sorted runs for one external merge sort.

    Each run is a :class:`SpillFile` of blocks in sorted order whose
    key columns are the rows' sort keys (:meth:`SpillFile.write_block`),
    so the merge compares stored keys and never re-evaluates one; the
    sort operator k-way merges ``runs`` with a heap, so the merge
    fan-in is unbounded — every run is merged in a single pass
    regardless of how many the input produced.  ``key_types`` collects,
    per key column, every value type any run holds (what decides
    whether the merge may compare keys plainly).  Constructing the
    object marks the sort as spilled (``sort_spills``); each spooled
    run bumps ``sort_runs``.
    """

    __slots__ = ("spools", "runs", "key_types")

    def __init__(self, spools: Spools, n_keys: int):
        self.spools = spools
        self.runs: List[SpillFile] = []
        self.key_types: List[set] = [set() for _ in range(n_keys)]
        tally().sort_spills += 1

    def new_run(self, key_columns) -> SpillFile:
        """Open the next run, for rows with these key columns."""
        for kinds, column in zip(self.key_types, key_columns):
            kinds.update(map(type, column))
        run = SpillFile(self.spools)
        self.runs.append(run)
        tally().sort_runs += 1
        return run

    def close(self) -> None:
        """Release every run's temp file (idempotent); the merge phase
        calls this in a ``finally`` so a comparison TypeError mid-merge
        cannot leak the remaining run descriptors."""
        for run in self.runs:
            run.close()


class GroupSpill:
    """Grace partitioner for overflowing hash-aggregation group state
    (DISTINCT is the aggregation with no aggregates).

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

    def __init__(self, spools: Spools, *, salt: int = 0, depth: int = 0,
                 fanout: int = SPILL_FANOUT):
        self.salt = salt
        self.spools: List[SpillFile] = [SpillFile(spools)
                                        for _ in range(fanout)]
        if depth == 0:
            tally().agg_spills += 1
        else:
            tally().repartitions += 1

    def add(self, rows) -> None:
        """Spool ``(key, values, label, ilabel)`` rows, in order."""
        for key, values, label, ilabel in rows:
            spool = self.spools[hash((self.salt, key)) % len(self.spools)]
            if not spool.count:
                tally().agg_partitions += 1
            spool.append(key, values, label, ilabel)

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
