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
  seconds) to the engine's I/O clock.

Benchmarks compute throughput against ``wall_time + simulated_io_time``,
so the in-memory configuration (cache larger than the database) and the
on-disk configuration (cache much smaller) differ exactly the way the
paper's 10-warehouse and 150-warehouse databases did.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

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


class BufferCacheStats:
    """Hit/miss counters plus the simulated I/O clock."""

    __slots__ = ("hits", "misses", "evictions", "io_time")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.io_time = 0.0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 1.0


class BufferCache:
    """A global LRU cache of page frames.

    ``capacity=None`` models a database that fits in memory: every page
    is resident, no misses are charged after first touch is also free
    (the paper's in-memory DBT-2 configuration is fully cached).
    """

    def __init__(self, capacity: Optional[int] = None,
                 io_penalty: float = 0.0):
        self.capacity = capacity
        self.io_penalty = io_penalty
        self._frames: "OrderedDict[PageKey, None]" = OrderedDict()
        self.stats = BufferCacheStats()

    def touch(self, table: str, page_id: int) -> bool:
        """Access a page; returns True on a hit.

        With unbounded capacity the access is free (always a hit): the
        point of the unbounded mode is an in-memory database where page
        residency never changes behaviour.
        """
        if self.capacity is None:
            self.stats.hits += 1
            return True
        key = (table, page_id)
        frames = self._frames
        if key in frames:
            frames.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self.stats.io_time += self.io_penalty
        frames[key] = None
        if len(frames) > self.capacity:
            frames.popitem(last=False)
            self.stats.evictions += 1
        return False

    def touch_run(self, table: str, page_id: int, count: int) -> bool:
        """Access the same page ``count`` times with one frame operation.

        Heap tuples are laid out consecutively, so a scan batch touches
        each page in a *run*; this charges the run with exactly the
        counters ``count`` sequential :meth:`touch` calls would have
        produced — a resident page yields ``count`` hits, an absent page
        one miss (with its I/O penalty) followed by ``count - 1`` hits,
        and at most one insertion/eviction — while doing a single dict
        probe.  ``hit_rate()`` is therefore identical whichever way
        the scan leaf charges a chunk.
        """
        if count <= 0:
            return True
        if self.capacity is None:
            self.stats.hits += count
            return True
        key = (table, page_id)
        frames = self._frames
        if key in frames:
            frames.move_to_end(key)
            self.stats.hits += count
            return True
        self.stats.misses += 1
        self.stats.io_time += self.io_penalty
        self.stats.hits += count - 1
        frames[key] = None
        if len(frames) > self.capacity:
            frames.popitem(last=False)
            self.stats.evictions += 1
        return False

    def reset(self) -> None:
        """Drop all frames and zero the statistics."""
        self._frames.clear()
        self.stats.reset()

    def __len__(self) -> int:
        return len(self._frames)
