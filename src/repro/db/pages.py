"""Page and buffer-cache model.

The paper's Figure 6 experiment shows label overhead growing with label
size because labels add 4 bytes per tag to every tuple, reducing the
number of tuples per page and increasing I/O and buffer-cache pressure
(section 8.3).  To reproduce that mechanism we model storage as pages:

* every tuple version is appended to its table's current page until the
  page is full (PostgreSQL-style heap files, one per relation);
* reads go through a global LRU :class:`BufferCache` with a bounded
  number of page frames;
* each cache miss charges a configurable *I/O penalty* (simulated
  seconds) to the ``simulated_io_time`` counter.

Benchmarks compute throughput against ``wall_time + simulated_io_time``,
so the in-memory configuration (cache larger than the database) and the
on-disk configuration (cache much smaller) differ exactly the way the
paper's 10-warehouse and 150-warehouse databases did.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from ..core.counters import tally

PageKey = Tuple[str, int]


class HeapPageAllocator:
    """Assigns tuple versions of one table to pages, by byte fill."""

    def __init__(self, table: str, page_size: int):
        self.table = table
        self.page_size = page_size
        self._current_page = 0
        self._fill = 0
        self.pages_allocated = 1

    def place(self, size: int) -> int:
        """Return the page id for a new tuple of ``size`` bytes."""
        if self._fill and self._fill + size > self.page_size:
            self._current_page += 1
            self._fill = 0
            self.pages_allocated += 1
        self._fill += size
        return self._current_page


class BufferCache:
    """A global LRU cache of page frames.

    ``capacity=None`` models a database that fits in memory: every page
    is resident and every access a hit (the paper's in-memory DBT-2
    configuration is fully cached).  Hits, misses, evictions and the
    simulated I/O seconds the misses charge are counted on the calling
    thread's tally (``core/counters.py``).
    """

    def __init__(self, capacity: Optional[int] = None,
                 io_penalty: float = 0.0):
        self.capacity = capacity
        self.io_penalty = io_penalty
        self._frames: "OrderedDict[PageKey, None]" = OrderedDict()

    def touch_run(self, table: str, page_id: int, count: int) -> None:
        """Access the same page ``count`` times with one frame operation.

        Heap tuples are laid out consecutively, so a scan batch touches
        each page in a *run*; this charges the run with exactly the
        counters ``count`` one-page accesses would have produced — a
        resident page yields ``count`` hits, an absent page
        one miss (with its I/O penalty) followed by ``count - 1`` hits,
        and at most one insertion/eviction — while doing a single dict
        probe.  The hit rate is therefore identical whichever way the
        scan leaf charges a chunk.
        """
        if count <= 0:
            return
        counts = tally()
        if self.capacity is None:
            counts.buffer_hits += count
            return
        key = (table, page_id)
        frames = self._frames
        if key in frames:
            frames.move_to_end(key)
            counts.buffer_hits += count
            return
        counts.buffer_misses += 1
        counts.buffer_hits += count - 1
        counts.simulated_io_time += self.io_penalty
        frames[key] = None
        if len(frames) > self.capacity:
            frames.popitem(last=False)
            counts.buffer_evictions += 1

    def reset(self) -> None:
        """Drop every frame: the next access to any page misses."""
        self._frames.clear()

    def __len__(self) -> int:
        return len(self._frames)
