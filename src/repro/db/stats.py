"""Table statistics: ANALYZE, equi-depth histograms, and selectivity.

``ANALYZE [table]`` collects, per table, the row count and per-column
NDV (number of distinct values), min/max, null fraction, and an
equi-depth histogram.  The cost-based optimizer
(:mod:`repro.db.optimizer`) turns these into cardinality estimates:
equality selectivity from NDV, range selectivity from the histogram,
and join fan-out from the inner column's NDV.

**Freshness.**  Stats are keyed by table name and hold nothing else to
check: both paths that drop a table — ``DROP TABLE``
(``engine.execute_ddl``) and its replay from the WAL — call
:meth:`StatsManager.forget`, so a table recreated under the same name
(the only way a schema can change; there is no ALTER TABLE) starts
with none, and other DDL cannot change this table's data
distribution.  Each table carries a modification counter (inserts,
updates, deletes); once it drifts past a threshold relative to the
analyzed row count, the stats are refreshed automatically — on the
next planning pass that consults them, and by a periodic sweep the
engine runs every few hundred statements.  A refresh changes plan
*optimality*, never correctness, so instead of clearing the whole
prepared-plan cache (which measurably stalls steady-state workloads
like DBT-2 with replan storms) it evicts only the cached plans that
read the refreshed table
(:meth:`repro.db.engine.Database.invalidate_plans_for`).

**Information flow.**  Statistics collection reads every live tuple
version regardless of label.  The paper exempts the vacuum from the
flow rules (section 7.1), not the planner: what statistics steer —
plan shape and EXPLAIN's estimates — may depend on hidden tuples, and
is declared high (ARCHITECTURE.md, "Low and high").  They never decide
which tuples a query may return; Query by Label stays enforced in the
scans.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.counters import tally
from .spill import estimate_value_bytes


# ---------------------------------------------------------------------------
# default selectivities (used when stats are absent or bounds are
# parameters whose values are unknown at plan time)
# ---------------------------------------------------------------------------

#: ``col = constant`` on a column with no statistics.
DEFAULT_EQ_SEL = 0.005
#: One-sided inequality (``col > constant``) with no usable histogram.
DEFAULT_RANGE_SEL = 1.0 / 3.0
#: ``col LIKE pattern``.
DEFAULT_LIKE_SEL = 0.15
#: Any predicate the estimator cannot classify.
DEFAULT_SEL = 0.25
#: Output-row guess for a derived (view/subquery) FROM entry whose
#: inner query could not be estimated.
DEFAULT_DERIVED_ROWS = 100.0

#: Equi-depth histogram resolution.
HISTOGRAM_BUCKETS = 64

#: Auto-refresh: re-analyze once modifications since the last collection
#: exceed ``max(REFRESH_MIN_MODS, REFRESH_FRACTION * row_count)``.  The
#: thresholds are deliberately lazy: a growing table is re-collected
#: roughly once per 50% growth (logarithmically often), and a small but
#: update-heavy table (TPC-C's Stock) only once per ``REFRESH_MIN_MODS``
#: writes — unlike PostgreSQL's autoanalyze this collection runs
#: synchronously inside a planning pass, so its cost (and the replans
#: its evictions cause) must stay off steady-state hot paths.
REFRESH_FRACTION = 0.5
REFRESH_MIN_MODS = 2048

#: Collection samples at most this many rows per table (evenly strided);
#: histograms and fractions stay accurate while only O(sample) values
#: are ever materialized and sorted (the heap itself is walked without
#: copying, so a refresh of a large table stays cheap).
SAMPLE_ROWS = 10000


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class Histogram:
    """Equi-depth histogram: ``edges[i]..edges[i+1]`` holds ``counts[i]``
    values, each bucket covering roughly ``total / len(counts)`` rows.

    Built from the sorted non-null column values; estimation
    interpolates linearly inside numeric buckets and falls back to the
    bucket midpoint for non-numeric types.
    """

    __slots__ = ("edges", "counts", "total")

    def __init__(self, edges: List, counts: List[int], total: int):
        self.edges = edges
        self.counts = counts
        self.total = total

    @classmethod
    def build(cls, sorted_values: List,
              buckets: int = HISTOGRAM_BUCKETS) -> Optional["Histogram"]:
        n = len(sorted_values)
        if n == 0:
            return None
        b = max(1, min(buckets, n))
        edges = [sorted_values[0]]
        counts: List[int] = []
        prev = 0
        for i in range(1, b + 1):
            hi = round(i * n / b)
            if hi <= prev:
                continue
            edges.append(sorted_values[hi - 1])
            counts.append(hi - prev)
            prev = hi
        return cls(edges, counts, n)

    def fraction_below(self, value, inclusive: bool = True) -> Optional[float]:
        """Estimated fraction of values ``<= value`` (or ``< value``).

        Returns ``None`` when ``value`` is not comparable with the
        histogram's type (mixed-type data); callers fall back to the
        default selectivities.
        """
        if not self.total:
            return 0.0
        edges = self.edges
        try:
            if value < edges[0]:
                return 0.0
            if value > edges[-1] or (inclusive and value == edges[-1]):
                return 1.0
        except TypeError:
            return None
        cum = 0.0
        for i, count in enumerate(self.counts):
            lo, hi = edges[i], edges[i + 1]
            if value > hi or (inclusive and value == hi):
                cum += count
                continue
            if value < lo or (not inclusive and value == lo):
                break
            frac = 0.5
            if _numeric(value) and _numeric(lo) and _numeric(hi) and hi > lo:
                frac = (value - lo) / (hi - lo)
            cum += frac * count
            break
        return min(max(cum / self.total, 0.0), 1.0)


class ColumnStats:
    """Statistics for one column of an analyzed table."""

    __slots__ = ("ndv", "null_frac", "min_value", "max_value", "histogram",
                 "avg_width")

    def __init__(self, ndv: int, null_frac: float, min_value, max_value,
                 histogram: Optional[Histogram],
                 avg_width: Optional[float] = None):
        self.ndv = ndv
        self.null_frac = null_frac
        self.min_value = min_value
        self.max_value = max_value
        self.histogram = histogram
        #: Average in-memory bytes of one value, measured over the
        #: ANALYZE sample with the spill estimator's accounting
        #: (:func:`~repro.db.spill.estimate_value_bytes`); ``None``
        #: when the table was empty at collection time.
        self.avg_width = avg_width

    def eq_selectivity(self) -> float:
        """``col = constant``: assume the distinct values are uniform."""
        if self.ndv <= 0:
            return 0.0
        return (1.0 - self.null_frac) / self.ndv

    def range_selectivity(self, low, high, include_low: bool = True,
                          include_high: bool = True) -> float:
        """``low <op> col <op> high`` with either bound optional.

        NULLs never satisfy a range predicate, so every path — the
        histogram estimate *and* the defaults used when there is no
        histogram (all-null column, incomparable types) — scales by the
        non-null fraction; an all-null column estimates 0.
        """
        default = (DEFAULT_RANGE_SEL if low is None or high is None
                   else DEFAULT_RANGE_SEL ** 2) * (1.0 - self.null_frac)
        hist = self.histogram
        if hist is None:
            return default
        hi_frac = 1.0
        if high is not None:
            hi_frac = hist.fraction_below(high, inclusive=include_high)
        lo_frac = 0.0
        if low is not None:
            # Fraction strictly below the lower bound (or <= for an
            # exclusive bound) is what the range excludes.
            lo_frac = hist.fraction_below(low, inclusive=not include_low)
        if hi_frac is None or lo_frac is None:
            return default
        return max(hi_frac - lo_frac, 0.0) * (1.0 - self.null_frac)

    def __repr__(self):
        return ("ColumnStats(ndv=%d, null_frac=%.3f, min=%r, max=%r)"
                % (self.ndv, self.null_frac, self.min_value, self.max_value))


class TableStats:
    """Everything ANALYZE collected for one table, plus its freshness
    anchor: the table's modification counter at collection."""

    __slots__ = ("table_name", "row_count", "columns", "mods_at_collect")

    def __init__(self, table_name: str, row_count: int,
                 columns: Dict[str, ColumnStats], mods_at_collect: int):
        self.table_name = table_name
        self.row_count = row_count
        self.columns = columns
        self.mods_at_collect = mods_at_collect

    def avg_row_bytes(self, columns=None) -> Optional[float]:
        """Measured average bytes of one execution row built from the
        given columns (every analyzed column when ``None``).

        Sums the per-column :attr:`~ColumnStats.avg_width` values over
        a 64-byte row container — the same shape
        :func:`~repro.db.spill.estimate_row_bytes` charges at run time
        — so the optimizer's spill costing can budget what ANALYZE
        actually saw instead of guessing from the column count.
        Returns ``None`` when any requested column lacks a measured
        width (empty table at collection, unknown name); callers fall
        back to :func:`~repro.db.spill.estimated_tuple_bytes`.
        """
        names = self.columns if columns is None else columns
        total = 64.0                     # the row list + pointer slots
        for name in names:
            cs = self.columns.get(name)
            if cs is None or cs.avg_width is None:
                return None
            total += cs.avg_width
        return total

    def __repr__(self):
        return "TableStats(%s, rows=%d)" % (self.table_name, self.row_count)


def _live(version, txn_manager) -> bool:
    """Live for estimation purposes: the creating transaction did not
    abort, and any deleting/superseding transaction did (an aborted
    ``xmax`` leaves the version visible — the same notion MVCC
    visibility applies, approximated for concurrent writers)."""
    if txn_manager.is_aborted(version.xmin):
        return False
    return version.xmax is None or txn_manager.is_aborted(version.xmax)


def collect_table_stats(table, txn_manager,
                        buckets: int = HISTOGRAM_BUCKETS) -> TableStats:
    """Scan a table's live versions and build its statistics.

    Two passes over the heap: the first counts live versions (no
    copying), the second materializes an evenly strided sample of at
    most ``SAMPLE_ROWS`` rows — fractions and histogram shapes stay
    representative while memory and sort cost stay O(sample).  NDV is
    taken from the sample and therefore underestimates very-high-
    cardinality columns; selectivities only get *less* aggressive from
    that, which is the safe direction.
    """
    row_count = 0
    for version in table.all_versions():
        if _live(version, txn_manager):
            row_count += 1
    stride = 1 if row_count <= SAMPLE_ROWS else -(-row_count // SAMPLE_ROWS)
    rows: List[Tuple] = []
    seen = 0
    for version in table.all_versions():
        if not _live(version, txn_manager):
            continue
        if seen % stride == 0:
            rows.append(version.values)
        seen += 1
    sampled = len(rows)
    columns: Dict[str, ColumnStats] = {}
    for position, name in enumerate(table.schema.column_names):
        values = [r[position] for r in rows]
        non_null = [v for v in values if v is not None]
        null_frac = (1.0 - len(non_null) / sampled) if sampled else 0.0
        ndv = len(set(non_null))
        avg_width = (sum(estimate_value_bytes(v) for v in values) / sampled
                     if sampled else None)
        try:
            ordered = sorted(non_null)
        except TypeError:
            # Mixed incomparable types: keep NDV/null/width info, skip
            # the order-dependent pieces.
            columns[name] = ColumnStats(ndv, null_frac, None, None, None,
                                        avg_width)
            continue
        min_value = ordered[0] if ordered else None
        max_value = ordered[-1] if ordered else None
        histogram = Histogram.build(ordered, buckets)
        columns[name] = ColumnStats(ndv, null_frac, min_value, max_value,
                                    histogram, avg_width)
    return TableStats(table.name, row_count, columns, table.modifications)


class StatsManager:
    """Holds per-table statistics and keeps them fresh.

    Each (re)collection evicts the cached plans reading that table so
    they are replanned against the new estimates.  Only tables that
    were ANALYZEd at least once participate in auto-refresh — an
    un-analyzed table simply has no stats and the optimizer uses its
    default selectivities.
    """

    def __init__(self, db):
        self._db = db
        self._stats: Dict[str, TableStats] = {}

    # ------------------------------------------------------------------
    def analyze(self, table_name: Optional[str] = None) -> List[str]:
        """Collect statistics for one table (or every table)."""
        catalog = self._db.catalog
        if table_name is not None:
            tables = [catalog.get_table(table_name)]
        else:
            tables = list(catalog.tables.values())
        for table in tables:
            self._stats[table.name] = collect_table_stats(
                table, self._db.txn_manager)
            tally().tables_collected += 1
            self._db.invalidate_plans_for(table.name)
        return [t.name for t in tables]

    def get(self, table) -> Optional[TableStats]:
        """Fresh statistics for ``table``, or ``None`` if never analyzed.

        Stats past the modification drift threshold are re-collected on
        the spot, evicting the cached plans built from the old numbers.
        """
        stats = self._stats.get(table.name)
        if stats is not None and self._drifted(table, stats):
            return self._refresh(table)
        return stats

    def refresh_drifted(self) -> List[str]:
        """Refresh every analyzed table whose modification counter has
        drifted past the threshold (the engine's periodic sweep; cheap
        when nothing drifted: one counter compare per analyzed table)."""
        refreshed = []
        for name, stats in list(self._stats.items()):
            table = self._db.catalog.tables.get(name)
            if table is None:
                # Dropped on another thread between the catalog and
                # forget(): the sweep must not fail a statement for it.
                self.forget(name)
                continue
            if self._drifted(table, stats):
                self._refresh(table)
                refreshed.append(name)
        return refreshed

    def _drifted(self, table, stats: TableStats) -> bool:
        mods = table.modifications - stats.mods_at_collect
        return mods > max(REFRESH_MIN_MODS,
                          REFRESH_FRACTION * stats.row_count)

    def _refresh(self, table) -> TableStats:
        stats = collect_table_stats(table, self._db.txn_manager)
        counts = tally()
        counts.tables_collected += 1
        counts.drift_refreshes += 1
        if self._db.catalog.tables.get(table.name) is table:
            # A planner still holding a dropped table keeps no entry.
            self._stats[table.name] = stats
        self._db.invalidate_plans_for(table.name)
        return stats

    def forget(self, table_name: str) -> None:
        """Drop a table's statistics (``DROP TABLE``, live or replayed)."""
        self._stats.pop(table_name, None)

    def analyzed(self) -> List[str]:
        return sorted(self._stats)

    def peek(self, table_name: str) -> Optional[TableStats]:
        """The stored stats without freshness checks (introspection)."""
        return self._stats.get(table_name)
