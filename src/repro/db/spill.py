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
A spool is written one way (:meth:`SpillFile.write`): the caller's
columns and the positions of the rows to spool, gathered a block at a
time — a sort run in its sort order, a partition's rows as routed
(:class:`Partitions`, the one partitioner of the grace join and the
grace aggregate).  Nothing is buffered between writes, so a block
never spans two of them.  Block sizes come out of the budget
(:class:`Spools`): a block weighs at most ``work_mem / SPILL_FANOUT``,
since what is resident is one block per stream being read and at most
``SPILL_FANOUT`` runs are merged at once (:meth:`SortRuns.merged`), so
at a budget of a few rows every block is one row.  The durable
format — the WAL (:mod:`repro.db.wal`), whose images are also the
dumps (:mod:`repro.db.dump`) — keeps the per-row
:func:`encode_labeled_row`.

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
from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from functools import partial, reduce
from itertools import accumulate, count, repeat
from operator import add, is_, itemgetter
from typing import Dict, Iterator, List, Optional, Tuple
from zlib import crc32

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

def _code_labels(labels, codes: Dict[Label, int], tags: list):
    """Dictionary-code one label column against the block's table
    (``tags``, indexed through ``codes`` by label — a ``frozenset``'s
    cached hash, and an interned label meets itself first): a bare
    code when the column holds one label, else one code per row."""
    distinct = dict.fromkeys(labels)
    for label in distinct:
        if label not in codes:
            codes[label] = len(tags)
            tags.append(tuple(label.tags))
    if len(distinct) == 1:
        return codes[labels[0]]
    column = list(map(codes.__getitem__, labels))
    return bytes(column) if len(tags) <= 256 else column


def encode_block(key_columns, columns, labels, ilabels) -> tuple:
    """Serialize one block of labeled rows, column by column.

    ``key_columns`` and ``columns`` are sequences of equally long
    column sequences (a ``None`` value column was projected away and
    stays ``None``).  The two label columns share one per-block table
    of tag tuples — coding them is one dict lookup per row, in C — and
    the payload is stable pickle regardless of
    intern-table state.
    """
    tags: list = []
    codes: Dict[Label, int] = {}
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
    inverse (no column when there is no key of several columns), one
    C-level gather per column."""
    if width == 1:
        return [list(keys)]
    return [list(map(itemgetter(j), keys)) for j in range(width)] \
        if keys else []


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


#: A TEXT-or-NULL column's value as its length is read: NULL as "".
_NULL_TEXT = {None: ""}
_TEXT_KINDS = frozenset((str, type(None)))


def estimate_batch_bytes(columns, labels, extra: int = 0) -> List[int]:
    """:func:`estimate_row_bytes` (plus ``extra``) for every row of a
    columnar batch, a column at a time and with no Python call per row:
    a column of one fixed width weighs by table lookup, fixed widths
    that vary by a type lookup per value, TEXT (with or without NULLs)
    by ``len``, and labels by tag count once per distinct label, looked
    up by the label (a ``frozenset``'s cached hash; an interned label
    meets itself first).  A column that holds the batch's own labels — the
    ``_label`` pseudo-column, the same object or an equal sequence, as
    after a spool round trip — shares the ``labels`` lookup.  The parts
    that vary by row are summed by nested C-level ``map`` calls.
    Byte-identical, row for row, to the per-row estimate.  ``labels``
    is the batch's label column (always charged, and what gives the row
    count); ``None`` charges no label and counts the first column."""
    n = len(columns[0]) if labels is None else len(labels)
    if not n:
        return []
    fixed = 64 + extra
    varying = []
    copies = 0                            # columns equal to ``labels``

    def weigh_labels(column, overhead: int, per_tag: int) -> None:
        nonlocal fixed
        sizes = {label: overhead + per_tag * len(label)
                 for label in set(column)}
        if len(sizes) == 1:
            fixed += sizes[column[0]]
        else:
            varying.append(map(sizes.__getitem__, column))

    for column in columns:
        if column is None:                   # projected away: NULLs
            fixed += 8
            continue
        kinds = set(map(type, column))
        widths = set(map(_FIXED_BYTES.get, kinds))
        if None not in widths:
            if len(widths) == 1:
                fixed += widths.pop()
            else:
                varying.append(map(_FIXED_BYTES.__getitem__,
                                   map(type, column)))
        elif kinds == {str}:
            fixed += 49
            varying.append(map(len, column))
        elif kinds <= _TEXT_KINDS:           # TEXT and NULLs: 8 or 49+len
            varying.append(map(_FIXED_BYTES.get, map(type, column),
                               repeat(49)))
            varying.append(map(len, map(_NULL_TEXT.get, column, column)))
        elif kinds == {Label}:
            if labels is not None and (column is labels or all(
                    map(is_, column, labels))):
                copies += 1
            else:
                weigh_labels(column, 64, 4)
        else:
            varying.append(map(estimate_value_bytes, column))
    if labels is not None:
        weigh_labels(labels, 16 + 64 * copies, 4 + 4 * copies)
    if not varying:
        return [fixed] * n
    return list(reduce(partial(map, add), varying, repeat(fixed, n)))


def estimated_tuple_bytes(n_columns: int) -> int:
    """Planning-time row-width guess when only the column count is
    known (the optimizer's spill costing; see ``Optimizer``)."""
    return 72 + 30 * n_columns


# ---------------------------------------------------------------------------
# spools
# ---------------------------------------------------------------------------

class Spools:
    """What one statement's spill files share: how many rows a block
    may hold, and the fault schedule.

    Block sizes are charged to the budget rather than configured.  A
    spool buffers nothing (:meth:`SpillFile.write` gathers a block and
    writes it at once), so what is resident is one block per stream
    being read — a partition's, or one per run in a sort's merge, which
    reads at most ``SPILL_FANOUT`` runs at a time — and one block gets
    ``work_mem / SPILL_FANOUT`` bytes: never more than a batch of rows,
    never less than one row (at ``REPRO_WORK_MEM=1024`` a block gets
    128 bytes, so every block is a single row).  ``faults`` is the
    fault-injection schedule (:class:`repro.db.faultinject.SpoolFaults`),
    None outside tests.
    """

    __slots__ = ("block_bytes", "max_rows", "faults")

    def __init__(self, work_mem: int, batch_size: int, faults=None):
        self.block_bytes = work_mem // SPILL_FANOUT
        self.max_rows = max(1, batch_size)
        self.faults = faults

    def block_rows(self, row_bytes: int) -> int:
        """Rows per block for rows of about ``row_bytes``."""
        return max(1, min(self.max_rows,
                          self.block_bytes // max(1, row_bytes)))


class SpillFile:
    """Append-only spool of pickled blocks on an anonymous temp file.

    Rows arrive as positions into the caller's columns (:meth:`write`)
    and are gathered a block at a time; :meth:`blocks` reads them back
    exactly once.  The backing ``TemporaryFile`` is opened lazily on
    the first block — a grace join creates ``2 × SPILL_FANOUT`` spools
    per level and many (the hybrid resident pair, lightly-hit
    partitions) are never written — unbuffered, since every block is
    one ``write`` (so a full disk surfaces at the block that hit it),
    and is unlinked by the OS, so an abandoned spool cannot outlive the
    process.  I/O failures raise :class:`~repro.errors.SpillError`.
    """

    __slots__ = ("_spools", "_file", "_block_rows", "_sizes", "_reading",
                 "count")

    def __init__(self, spools: Spools):
        self._spools = spools
        self._file = None
        self._block_rows = 0             # sized from the first row
        self._sizes: List[int] = []      # bytes of each block written
        self._reading = False
        #: Rows written so far.
        self.count = 0

    def write(self, rows, key_columns, columns, labels, ilabels) -> None:
        """Spool the rows at positions ``rows`` (in that order) of a
        keyed block — its key columns beside its ``(columns, labels,
        ilabels)`` — gathered (:func:`take_rows`) in blocks of at most
        :meth:`Spools.block_rows` rows, sized from the first row this
        spool ever receives.  A block never spans two calls."""
        if self._reading:
            raise SpillError("spill file already switched to reading")
        if not rows:
            return
        if not self.count:
            first = rows[0]
            self._block_rows = self._spools.block_rows(estimate_row_bytes(
                [None if column is None else column[first]
                 for column in columns], labels[first]))
        step, split = self._block_rows, len(key_columns)
        for lo in range(0, len(rows), step):
            gathered, block_labels, block_ilabels = take_rows(
                [*key_columns, *columns], labels, ilabels, rows[lo:lo + step])
            self._write(gathered[:split], gathered[split:], block_labels,
                        block_ilabels)
        self.count += len(rows)

    def _write(self, key_columns, columns, labels, ilabels) -> None:
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
        ilabels)`` in write order, then close the file."""
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


#: The key values whose ``hash`` differs between processes: a ``str``'s
#: is salted per process, NULL's (before Python 3.12) is its address.
_UNSTABLE_TYPES = frozenset((str, type(None)))


def _routed(column):
    """A key column as :meth:`Partitions.route` hashes it: each TEXT
    value as its CRC-32 and each NULL as 0, every other value — an
    int, float, bool or label, whose hash is the same in every process
    — as itself; the column itself when it holds neither (one type test
    per value)."""
    if _UNSTABLE_TYPES.isdisjoint(set(map(type, column))):
        return column
    return [crc32(v.encode("utf-8", "surrogatepass")) if type(v) is str
            else 0 if v is None else v for v in column]


class Partitions:
    """One level of a grace partitioning: ``SPILL_FANOUT`` spools and
    the salt (the level's depth) that routes a row to one of them by
    its key row — ``hash((salt, key row))`` over :func:`_routed` key
    columns, so at one depth a grace join and a grace aggregate send a
    key to the same spool index in every process, and a fresh salt per
    level splits what the level above could not.  What the hash join's
    build and probe sides and the aggregate's overflow rows are spooled
    through."""

    __slots__ = ("spools", "salt")

    def __init__(self, spools: Spools, salt: int):
        self.spools: List[SpillFile] = [SpillFile(spools)
                                        for _ in range(SPILL_FANOUT)]
        self.salt = salt

    def route(self, key_columns, n: int) -> List[int]:
        """The spool index of each of a block's ``n`` rows."""
        return [h % SPILL_FANOUT for h in map(
            hash, zip(repeat(self.salt), column_rows(
                list(map(_routed, key_columns)), n)))]

    def write(self, routes, rows, key_columns, columns, labels,
              ilabels) -> int:
        """Spool the rows at positions ``rows`` of a keyed block, in
        order, each to the spool ``routes[row]`` names — one gathered
        write per spool.  Returns how many spools this opened (received
        their first rows)."""
        chosen: List[list] = [[] for _ in self.spools]
        # ``chosen[routes[row]].append(row)`` per row, driven at C speed.
        deque(map(list.append, map(chosen.__getitem__,
                                   map(routes.__getitem__, rows)), rows), 0)
        opened = 0
        for spool, positions in zip(self.spools, chosen):
            if positions:
                opened += not spool.count
                spool.write(positions, key_columns, columns, labels, ilabels)
        return opened

    def close(self) -> None:
        """Release every spool's temp file (idempotent); consumers call
        this in a ``finally`` so a mid-statement error cannot leak the
        unread spools' descriptors."""
        for spool in self.spools:
            spool.close()


class SpilledHashBuild:
    """Partitioned overflow state for one hash-join build side.

    Both sides arrive a keyed block at a time — the rows' key columns
    beside their ``(columns, labels, ilabels)`` — and only the key
    participates in routing: each side is one :class:`Partitions`
    (``builds``, ``probes``) salted with the level's ``depth``; a
    side's buckets are keyed by :func:`column_keys`, as the join probes
    them.  At the top level (``depth`` 0) partition 0 is a
    :class:`JoinSide` of ``width`` columns held in memory, so probes
    against it stream with no extra I/O; recursion levels have none —
    their input is already a single partition's worth of rows.  Every
    partition is joined through a :class:`JoinSide` loaded from its
    build spool.
    """

    __slots__ = ("budget", "spools", "width", "depth", "builds", "probes",
                 "resident")

    def __init__(self, budget: int, spools: Spools, width: int,
                 depth: int = 0):
        self.budget = budget
        self.spools = spools
        self.width = width
        self.depth = depth
        self.builds = Partitions(spools, depth)
        self.probes = Partitions(spools, depth)
        self.resident = None if depth else JoinSide(width)
        if not depth:
            tally().spills += 1

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
        routes = self.builds.route(key_columns, n)
        rows = range(n)
        if self.resident is not None:
            rows = self._add_resident(routes, key_columns, columns, labels,
                                      ilabels)
        tally().partitions_created += self.builds.write(
            routes, rows, key_columns, columns, labels, ilabels)

    def _add_resident(self, routes, key_columns, columns, labels,
                      ilabels) -> list:
        """Add a block's partition-0 rows to the resident side while it
        fits the budget (:meth:`JoinSide.fill`); the row that takes it
        past is the last one added, and the hybrid partition alone
        overflowing is demoted to a spool like the others (build phase
        only — by probe time the resident side is frozen).  Returns the
        block positions left to spool: every other partition's, and
        partition 0's after the last row the resident side took."""
        here = [i for i, index in enumerate(routes) if not index]
        keys = column_keys(key_columns, len(routes))
        cut = self.resident.fill([keys[i] for i in here],
                                 *take_rows(columns, labels, ilabels, here),
                                 self.budget)
        end = len(routes)
        if cut is not None:
            side, self.resident = self.resident, None
            self.take(side, len(key_columns))
            end = here[cut - 1] + 1
        return [i for i, index in enumerate(routes) if index or i >= end]

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
        built = [spool.count for spool in self.builds.spools]
        n = len(labels)
        routes = self.probes.route(key_columns, n)
        found = []
        spooled = []
        for i, index, key, row in zip(count(), routes,
                                      column_keys(key_columns, n),
                                      column_rows(key_columns, n)):
            if None in row:
                found.append(())
            elif index == 0 and resident is not None:
                found.append(resident.buckets.get(key, ()))
            elif not built[index]:
                found.append(())
            else:
                spooled.append(i)
                found.append(None)
        self.probes.write(routes, spooled, key_columns, columns, labels,
                          ilabels)
        return found

    def spool_probe(self, key_columns, columns, labels, ilabels) -> None:
        n = len(labels)
        self.probes.write(self.probes.route(key_columns, n), range(n),
                          key_columns, columns, labels, ilabels)

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
        for index, (build, probe) in enumerate(zip(self.builds.spools,
                                                   self.probes.spools)):
            try:
                # Resident probes were answered online; nothing spooled.
                if index or self.resident is None:
                    yield from self._join_partition(build, probe)
            finally:
                build.close()
                probe.close()

    def _join_partition(self, build: SpillFile, probe: SpillFile):
        """Join one partition's spooled build and probe blocks.

        Loads the build blocks into a :class:`JoinSide` under the byte
        budget; if a block leaves it over budget *and* holding more
        than one distinct key *and* the recursion cap is not reached,
        the partition is split again one level down, with a fresh salt
        (both sides re-spooled) — otherwise it finishes in memory over
        budget, which is the termination guarantee for all-equal-key
        (unsplittable) partitions.
        """
        depth = self.depth + 1
        side = JoinSide(self.width)
        mem = 0
        child: Optional[SpilledHashBuild] = None
        try:
            for key_columns, columns, labels, ilabels in build.blocks():
                if child is not None:
                    child.add_build(key_columns, columns, labels, ilabels)
                    continue
                side.add(column_keys(key_columns, len(labels)), columns,
                         labels, ilabels)
                mem += sum(estimate_batch_bytes(columns, labels,
                                                BUCKET_ENTRY_BYTES))
                if (mem > self.budget and len(side.buckets) > 1
                        and depth < MAX_RECURSION):
                    child = SpilledHashBuild(self.budget, self.spools,
                                             self.width, depth)
                    child.take(side, len(key_columns))
                    side = None
                    tally().repartitions += 1
            if child is None:
                for block in probe.blocks():
                    yield block, side
                return
            for block in probe.blocks():
                child.spool_probe(*block)
            yield from child.joined()
        finally:
            if child is not None:
                child.close()

    def close(self) -> None:
        """Release every partition's temp files (idempotent)."""
        self.builds.close()
        self.probes.close()


class SortRuns:
    """Spooled sorted runs for one external merge sort.

    Each run is a :class:`SpillFile` of blocks in sorted order whose
    key columns are the rows' sort keys (the run's one
    :meth:`SpillFile.write`, in sort order), so the merge compares
    stored keys and never re-evaluates one.  :meth:`merged` merges
    them a block at a time with fan-in at most :data:`SPILL_FANOUT`:
    with more runs than that, each pass first merges consecutive groups
    of :data:`SPILL_FANOUT` runs into longer runs (a cascade —
    ``ceil(log_F runs)`` passes in all, each writing and reading every
    row once), so no more than :data:`SPILL_FANOUT` blocks, one per run
    being read, are ever held (a round adds one transient copy of the
    rows it emits, see :func:`_merge`).  ``key_types`` collects, per key
    column, every value type any run holds (what decides whether the
    merge may compare keys plainly).  Constructing the object marks the
    sort as spilled (``sort_spills``); each spooled run, a cascade's
    too, bumps ``sort_runs``.
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

    def merged(self, encode) -> Iterator[tuple]:
        """Every run's rows in ``(key, run, position)`` order — stable —
        as ``(columns, labels, ilabels)`` pieces; ``encode(key_columns)``
        is a block's list of comparable row keys."""
        split = len(self.key_types)
        runs = list(self.runs)
        while len(runs) > SPILL_FANOUT:
            cascaded = []
            for lo in range(0, len(runs), SPILL_FANOUT):
                group = runs[lo:lo + SPILL_FANOUT]
                if len(group) > 1:
                    run = self.new_run(())
                    for columns, labels, ilabels in _merge(group, encode):
                        run.write(range(len(labels)), columns[:split],
                                  columns[split:], labels, ilabels)
                    for merged in group:         # its temp file is spent
                        merged.close()
                    group = [run]
                cascaded += group
            runs = cascaded
        for columns, labels, ilabels in _merge(runs, encode):
            yield columns[split:], labels, ilabels

    def close(self) -> None:
        """Release every run's temp file (idempotent); the merge phase
        calls this in a ``finally`` so a comparison TypeError mid-merge
        cannot leak the remaining run descriptors."""
        for run in self.runs:
            run.close()


def _merge(runs: List[SpillFile], encode) -> Iterator[tuple]:
    """Merge sorted runs a block at a time, as ``(columns, labels,
    ilabels)`` pieces in ``(key, run, position)`` order, each block's
    key columns leading its value columns.

    One block per run is held.  A round's fence is the smallest ``(last
    key, run)`` of the held blocks, and every held row at or below it
    is emitted — the fence run's whole block, an earlier run's rows
    through the fence key, a later run's only below it — by one stable
    ``sorted`` over the runs' concatenated key prefixes (so ties keep
    run order, then row order) and a gather (:func:`take_rows`); the
    concatenation is the round's one transient copy of the rows it
    emits.  The fence run, its block spent, is refilled.  No unread row
    can precede an emitted one: a run's later blocks hold keys at or
    past its held block's last.  The fence block is taken whole, not
    bisected, so a run that a NaN leaves out of order (``sorted`` gives
    NaN no place) loses no row.  Keys are bisected as the ``encode``
    lists they are (no ``bisect(key=)``, which Python 3.9 lacks)."""
    held = [entry for entry in (_Held(run, encode) for run in runs)
            if entry.keys is not None]
    while len(held) > 1:
        at, fence = 0, held[0].keys[-1]
        for i in range(1, len(held)):
            if held[i].keys[-1] < fence:
                at, fence = i, held[i].keys[-1]
        parts = []
        for i, entry in enumerate(held):
            pos = entry.pos
            entry.pos = len(entry.keys) if i == at else (
                bisect_right if i < at else bisect_left)(
                    entry.keys, fence, pos)
            if entry.pos > pos:
                parts.append((entry, pos, entry.pos))
        if len(parts) == 1:
            entry, pos, cut = parts[0]
            yield take_rows(entry.columns, entry.labels, entry.ilabels,
                            range(pos, cut))
        else:
            keys, labels, ilabels = [], [], []
            columns = [[] for _ in held[0].columns]
            for entry, pos, cut in parts:
                keys += entry.keys[pos:cut]
                for column, part in zip(columns, entry.columns):
                    column += part[pos:cut]
                labels += entry.labels[pos:cut]
                ilabels += entry.ilabels[pos:cut]
            yield take_rows(columns, labels, ilabels,
                            sorted(range(len(keys)), key=keys.__getitem__))
        if not held[at].refill():
            del held[at]
    for entry in held:                       # the last run, as it is
        while True:
            yield take_rows(entry.columns, entry.labels, entry.ilabels,
                            range(entry.pos, len(entry.labels)))
            if not entry.refill():
                break


class _Held:
    """The block a merge holds of one run: its rows' encoded ``keys``,
    its key columns then its value columns, its labels, and ``pos``, the
    first row not yet emitted; ``keys`` is None once the run is done."""

    __slots__ = ("blocks", "encode", "keys", "columns", "labels",
                 "ilabels", "pos")

    def __init__(self, run: SpillFile, encode):
        self.blocks = run.blocks()
        self.encode = encode
        self.refill()

    def refill(self) -> bool:
        """Hold the run's next block; False when there is none."""
        block = next(self.blocks, None)
        if block is None:
            self.keys = None
            return False
        key_columns, columns, self.labels, self.ilabels = block
        self.keys = self.encode(key_columns)
        self.columns = key_columns + columns
        self.pos = 0
        return True


def estimate_spill_plan(build_bytes: float, work_mem: int
                        ) -> Tuple[int, float, int]:
    """Planning-time estimate:
    ``(leaf_partitions, bytes_per_partition, levels)``.

    Zero partitions means the build is expected to fit.  Partition
    counts grow by whole levels of :data:`SPILL_FANOUT` (the runtime
    splits a level at a time), so the estimated per-partition memory —
    what EXPLAIN reports as the operator's peak — is ``build_bytes /
    SPILL_FANOUT**levels``, the first level count that fits the budget.
    ``levels`` is how many times each spilled row is expected to be
    written and re-read, which is what the optimizer charges.

    Past :data:`MAX_RECURSION` levels (a build estimated beyond
    ``work_mem × SPILL_FANOUT**MAX_RECURSION``) the estimate stops
    splitting, mirroring the runtime's recursion cap: the returned
    per-partition bytes then honestly exceed the budget, and EXPLAIN
    shows the over-budget peak the capped execution would actually
    reach.
    """
    if not work_mem or build_bytes <= work_mem:
        return 0, build_bytes, 0
    partitions = 1
    levels = 0
    while build_bytes / partitions > work_mem and levels < MAX_RECURSION:
        partitions *= SPILL_FANOUT
        levels += 1
    return partitions, build_bytes / partitions, levels
