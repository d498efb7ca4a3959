"""The cost-based optimizer: the middle of the three planner layers.

Takes a :class:`~repro.db.logical.LogicalQuery` and annotates it with
execution strategy, applying these rule families in order:

1. **Constant folding** — literal-only subexpressions of WHERE and join
   conditions are evaluated at plan time (``1 = 1`` disappears from
   conjunct lists, ``2 + 3`` becomes ``5``).
2. **Join ordering** — for all-inner joins, ON and WHERE conjuncts merge
   into one pool and the entries are greedily reordered by *estimated
   filtered cardinality*: the smallest entry leads, and each next pick
   prefers an entry equi-joinable to what is already placed (avoiding
   cross products), smallest first.  A table's cardinality is its
   heap's version count (:attr:`~repro.db.storage.Table.approx_rows`,
   O(1)) scaled by a default selectivity per predicate; there are no
   collected statistics, so one count per table is all that a hidden
   tuple can move a plan through.
   Queries with LEFT JOINs keep their written order (reordering would
   change NULL-extension semantics), and an unqualified ``*`` pins the
   order too, because its output columns follow entry order.
3. **Predicate pushdown** — each WHERE conjunct is classified by the
   FROM entries it references: single-entry conjuncts are pushed into
   that entry's scan, multi-entry conjuncts become extra join
   conditions on the latest entry they touch, and everything else
   (subqueries, outer references) stays as a residual filter.  A
   conjunct is **never** pushed below a LEFT JOIN's nullable side, and
   never through a derived (view/subquery) boundary — predicates on a
   declassifying view are evaluated above its label-stripping
   :class:`~repro.db.physical.ViewPlan` node, so they observe stripped
   labels only.
4. **Access-path selection** — for each base-table entry the optimizer
   enumerates a full heap scan, the best equality-index probe
   (``col = constant`` conjuncts against hash or ordered indexes), and
   ordered-index **range scans** (an equality prefix plus ``<``, ``<=``,
   ``>``, ``>=`` or ``BETWEEN`` bounds on the next index column, served
   by :meth:`~repro.db.indexes.OrderedIndex.scan_range`), then picks
   the cheapest by estimated cost.
5. **Join-strategy selection** — equi-join conditions (``right.col =
   expr(left)``) can be executed as an index-nested-loop join or a hash
   join; the optimizer costs both (probe count × fan-out vs build +
   probe) and picks the cheaper.  Joins with no equi-pairs fall back to
   a nested-loop join.

Every annotation carries estimated rows and cost (``est_rows`` /
``est_cost``), which the planner copies onto the physical operators so
``EXPLAIN`` can show them.  The annotations are plain data
(``AccessPath``/``JoinChoice``); the lowering to physical operators
lives in :mod:`repro.db.planner`.  Costs are for one process: a
spilled join, aggregate or sort is charged its spill traffic once,
since its partitions and runs are drained one after another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import CatalogError, DatabaseError
from . import expressions as ex
from .logical import LogicalDML, LogicalQuery, SourceEntry, \
    collect_columns, collect_slots, relayout, split_conjuncts
from .spill import (AGG_STATE_BYTES, BUCKET_ENTRY_BYTES,
                    estimate_spill_plan, estimated_tuple_bytes)
from .storage import Table

# ---------------------------------------------------------------------------
# cost model constants
# ---------------------------------------------------------------------------

#: Cost of examining one heap row.
COST_ROW = 1.0
#: Fixed cost of one index lookup (bisection / hash probe).
COST_PROBE = 1.2
#: Cost of inserting one row into a hash-join build table.
COST_BUILD_ROW = 1.5
#: Cost of spilling one row through one grace-partition level: a write
#: to the spool plus the read back (both build and probe rows pay it).
#: Charging it makes a budget-breaking hash join visibly expensive, so
#: the optimizer prefers an index-nested-loop (no build memory) — or a
#: smaller build side — when ``work_mem`` is tight.
COST_SPILL_ROW = 0.4
#: Tables are never costed below this many rows: a plan cached while a
#: table is still empty must not lock in a full scan that a few inserts
#: later would be wrong (inserts do not bump the plan-cache epoch).
ROW_FLOOR = 10.0

# ---------------------------------------------------------------------------
# default selectivities: the only per-predicate estimates there are
# ---------------------------------------------------------------------------

#: ``col = constant`` (per item of an ``IN`` list).
DEFAULT_EQ_SEL = 0.005
#: One-sided inequality (``col > constant``); ``BETWEEN`` is its square.
DEFAULT_RANGE_SEL = 1.0 / 3.0
#: ``col LIKE pattern``.
DEFAULT_LIKE_SEL = 0.15
#: ``col IS NULL``.
DEFAULT_NULL_SEL = 0.05
#: Any predicate the estimator cannot classify.
DEFAULT_SEL = 0.25
#: Output-row guess for a derived (view/subquery) FROM entry whose
#: inner query could not be estimated.
DEFAULT_DERIVED_ROWS = 100.0


def estimate_sort_spill(input_rows: float, input_bytes: float,
                        work_mem: int) -> Tuple[int, float, float]:
    """External-merge-sort estimate: ``(runs, est_mem, extra_cost)``.

    Zero runs means the sort is expected to fit ``work_mem`` and
    ``est_mem`` is the full materialized input; otherwise the input
    spools in budget-sized sorted runs (``ceil(bytes / work_mem)``),
    the peak resident footprint is one chunk (the budget itself — the
    k-way heap merge holds one row per run), and every row is charged
    one :data:`COST_SPILL_ROW` write+read cycle: the merge fan-in is
    unbounded, so a single merge pass always suffices.
    """
    partitions, _part_bytes, _levels = estimate_spill_plan(
        input_bytes, work_mem)
    if not partitions:
        return 0, input_bytes, 0.0
    runs = max(2, -int(-input_bytes // work_mem))
    return runs, float(work_mem), COST_SPILL_ROW * input_rows


def estimate_group_spill(input_rows: float, groups: float,
                         group_width: int, n_states: int,
                         work_mem: int) -> Tuple[int, float, float]:
    """Grace-aggregation estimate: ``(partitions, est_mem,
    extra_cost)`` for hash-aggregation group state under ``work_mem``
    (``SELECT DISTINCT`` is the aggregation with ``n_states=0``: the
    planner builds and costs both through ``Planner._aggregate``).

    Group state is costed like the runtime charges it: key bytes
    (:func:`estimated_tuple_bytes` over the grouping columns) plus
    :data:`AGG_STATE_BYTES` per aggregate spec — the group's slot in
    that aggregate's state lists — plus hash-entry overhead, times the
    expected group count.  Overflow
    partitions the *state* via :func:`estimate_spill_plan`; each level
    re-spools the input rows routed past the resident groups, so the
    cost charge is per input row per level.
    """
    state_bytes = groups * (estimated_tuple_bytes(group_width)
                            + AGG_STATE_BYTES * n_states
                            + BUCKET_ENTRY_BYTES)
    partitions, part_bytes, levels = estimate_spill_plan(
        state_bytes, work_mem)
    if not partitions:
        return 0, state_bytes, 0.0
    return partitions, part_bytes, COST_SPILL_ROW * levels * input_rows

# ---------------------------------------------------------------------------
# constant folding
# ---------------------------------------------------------------------------

_FOLD_SCOPE = ex.Scope()


def _eval_const(node: ex.Expr):
    return ex.ExprCompiler(_FOLD_SCOPE).compile(node)([], None)


def _literal(node: ex.Expr) -> bool:
    return isinstance(node, ex.Literal)


def fold_constants(node: ex.Expr) -> ex.Expr:
    """Bottom-up constant folding with TRUE/FALSE simplification.

    ``None`` literals (SQL UNKNOWN) are preserved — dropping them from
    AND/OR would change three-valued results that projections can
    observe.  Expressions that raise when evaluated (e.g. ``1/0``) are
    left unfolded so the error surfaces at execution time, as before.
    """
    children = node.children()
    if not children:
        return node
    folded = [fold_constants(child) for child in children]
    if isinstance(node, (ex.And, ex.Or)):
        absorbing = isinstance(node, ex.Or)     # x OR TRUE, x AND FALSE
        if any(_literal(item) and item.value is absorbing
               for item in folded):
            return ex.Literal(absorbing)
        folded = [item for item in folded
                  if not (_literal(item) and item.value is (not absorbing))]
        if not folded:
            return ex.Literal(not absorbing)
        return folded[0] if len(folded) == 1 else node.rebuilt(folded)
    rebuilt = node.rebuilt(folded)
    if isinstance(node, ex.FOLDABLE) and all(map(_literal, folded)):
        try:
            return ex.Literal(_eval_const(rebuilt))
        except Exception:
            pass
    return rebuilt


# ---------------------------------------------------------------------------
# access paths and join strategies (optimizer output)
# ---------------------------------------------------------------------------

@dataclass
class FullScanAccess:
    """Heap scan with the pushed conjuncts as the scan predicate."""

    conjuncts: List[ex.Expr]


@dataclass
class IndexEqAccess:
    """Index probe on ``key_columns``; the rest filters the result."""

    index: object
    key_columns: Tuple[str, ...]
    key_exprs: List[ex.Expr]
    residual: List[ex.Expr]


@dataclass
class IndexRangeAccess:
    """Ordered-index range scan: an equality prefix on ``eq_columns``
    plus bounds on ``range_column`` (the next index column), served by
    :meth:`~repro.db.indexes.OrderedIndex.scan_range`.  Either bound may
    be absent; the rest of the pushed conjuncts filter the result."""

    index: object
    eq_columns: Tuple[str, ...]
    eq_exprs: List[ex.Expr]
    range_column: str
    low_expr: Optional[ex.Expr]
    high_expr: Optional[ex.Expr]
    include_low: bool
    include_high: bool
    residual: List[ex.Expr]


@dataclass
class IndexJoinChoice:
    """Inner side probed through a base-table index per left row."""

    index: object
    key_columns: Tuple[str, ...]
    key_exprs: List[ex.Expr]
    residual: List[ex.Expr]                  # on the combined row
    est_rows: Optional[float] = None         # cumulative join output
    est_cost: Optional[float] = None         # cumulative cost


@dataclass
class HashJoinChoice:
    """Equi-join: build on right columns, probe with left expressions.

    ``est_mem`` is the expected peak resident build size in bytes (the
    per-partition share when the build is expected to spill) and
    ``est_spill_partitions`` the expected grace leaf-partition count
    (0: fits ``work_mem``); both are planner annotations for EXPLAIN.
    """

    left_exprs: List[ex.Expr]
    right_columns: List[str]
    residual: List[ex.Expr]
    est_rows: Optional[float] = None
    est_cost: Optional[float] = None
    est_mem: Optional[float] = None
    est_spill_partitions: int = 0


@dataclass
class NestedJoinChoice:
    residual: List[ex.Expr]
    est_rows: Optional[float] = None
    est_cost: Optional[float] = None
    est_mem: Optional[float] = None              # materialized inner side


# ---------------------------------------------------------------------------
# shared matching helpers (also used by the engine's DML planner)
# ---------------------------------------------------------------------------

_FLIP_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _const_side(value_expr: ex.Expr, local_scope) -> bool:
    """True when the expression references no local columns and no
    subqueries, so it is constant per execution of this scan."""
    refs, opaque = collect_columns(value_expr)
    if opaque:
        return False
    for ref in refs:
        try:
            depth, _ = local_scope.resolve_depth(ref.name, ref.table)
        except CatalogError:
            return False           # unresolvable: play safe, don't push
        if depth == 0:
            return False
    return True


def constant_comparison(conjunct, alias, local_scope):
    """Match ``col <op> constant-expr`` for ``=``, ``<``, ``<=``, ``>``,
    ``>=`` with the column on either side.  Returns ``(column, op,
    value_expr)`` with the operator normalized to column-on-the-left,
    or ``(None, None, None)``."""
    if not isinstance(conjunct, ex.Compare) or \
            conjunct.op not in ("=", "<", "<=", ">", ">="):
        return None, None, None
    sides = ((conjunct.left, conjunct.right, conjunct.op),
             (conjunct.right, conjunct.left,
              _FLIP_OP.get(conjunct.op, conjunct.op)))
    for col_side, val_side, op in sides:
        if not isinstance(col_side, ex.ColumnRef):
            continue
        if col_side.name == "_label":
            continue
        if col_side.table is not None and col_side.table != alias:
            continue
        try:
            local_scope.resolve(col_side.name, col_side.table)
        except CatalogError:
            continue
        if _const_side(val_side, local_scope):
            return col_side.name, op, val_side
    return None, None, None


def constant_equality(conjunct, alias, local_scope):
    """Match ``col = constant-expr``; returns (column_name, value_expr)
    or (None, None)."""
    col, op, value = constant_comparison(conjunct, alias, local_scope)
    if op == "=":
        return col, value
    return None, None


def _between_bounds(conjunct, alias, local_scope):
    """Match ``col BETWEEN const AND const`` (not negated); returns
    (column, low_expr, high_expr) or None."""
    if not isinstance(conjunct, ex.Between) or conjunct.negated:
        return None
    operand = conjunct.operand
    if not isinstance(operand, ex.ColumnRef) or operand.name == "_label":
        return None
    if operand.table is not None and operand.table != alias:
        return None
    try:
        local_scope.resolve(operand.name, operand.table)
    except CatalogError:
        return None
    if _const_side(conjunct.low, local_scope) and \
            _const_side(conjunct.high, local_scope):
        return operand.name, conjunct.low, conjunct.high
    return None


class _PredBounds:
    """Pushed conjuncts of one entry, classified per column.

    ``eq``/``lows``/``highs`` map a column to the first conjunct that
    constrains it that way: ``eq[col] = (conjunct, expr)``, bound slots
    are ``(conjunct, expr, inclusive)``.  A BETWEEN claims both bound
    slots atomically or none."""

    def __init__(self, conjuncts: List[ex.Expr], alias: str, local_scope):
        self.eq: Dict[str, Tuple] = {}
        self.lows: Dict[str, Tuple] = {}
        self.highs: Dict[str, Tuple] = {}
        for conjunct in conjuncts:
            col, op, value = constant_comparison(conjunct, alias,
                                                 local_scope)
            if col is not None:
                if op == "=":
                    self.eq.setdefault(col, (conjunct, value))
                elif op in (">", ">=") and col not in self.lows:
                    self.lows[col] = (conjunct, value, op == ">=")
                elif op in ("<", "<=") and col not in self.highs:
                    self.highs[col] = (conjunct, value, op == "<=")
                continue
            between = _between_bounds(conjunct, alias, local_scope)
            if between is not None:
                col, low, high = between
                if col not in self.lows and col not in self.highs:
                    self.lows[col] = (conjunct, low, True)
                    self.highs[col] = (conjunct, high, True)


def best_index(table: Table, available: set):
    """Pick the best index for equality predicates on ``available``.

    Returns ``(index, n_key_columns)``.  A hash index needs every
    column covered; an ordered index can be probed on any covered
    *prefix* of its columns (B-tree-style).
    """
    from .indexes import OrderedIndex
    best = None
    best_len = 0
    for index in table.indexes.values():
        cols = index.columns
        if set(cols) <= available and len(cols) > best_len:
            best = index
            best_len = len(cols)
    if best is not None:
        return best, best_len
    for index in table.indexes.values():
        if not isinstance(index, OrderedIndex):
            continue
        n = 0
        for col in index.columns:
            if col in available:
                n += 1
            else:
                break
        if n > best_len:
            best = index
            best_len = n
    return best, best_len


def _covered_by(conjunct, covered_cols, alias, local_scope, eq_cols) -> bool:
    col, value = constant_equality(conjunct, alias, local_scope)
    return (col is not None and col in covered_cols
            and eq_cols.get(col) is value)


def _equi_pair(conjunct, entry: SourceEntry, left_aliases: set,
               scope: ex.Scope):
    """Match ``right.col = expr(left)`` (either side order)."""
    if not isinstance(conjunct, ex.Compare) or conjunct.op != "=":
        return None
    for col_side, other in ((conjunct.left, conjunct.right),
                            (conjunct.right, conjunct.left)):
        if not isinstance(col_side, ex.ColumnRef):
            continue
        if col_side.name == "_label":
            continue
        # The column must belong to the right entry.
        try:
            depth, index = scope.resolve_depth(col_side.name,
                                               col_side.table)
        except CatalogError:
            continue
        if depth != 0 or scope.entries[index][0] != entry.alias:
            continue
        # The other side must reference only left-side aliases (or
        # outer scopes / params / literals).
        refs, opaque = collect_columns(other)
        if opaque:
            continue
        ok = True
        for ref in refs:
            depth_r, index_r = scope.resolve_depth(ref.name, ref.table)
            if depth_r == 0 and scope.entries[index_r][0] not in \
                    left_aliases:
                ok = False
                break
        if ok:
            return (col_side.name, other)
    return None


# ---------------------------------------------------------------------------
# the optimizer
# ---------------------------------------------------------------------------

class Optimizer:
    """Annotates logical queries with access paths and join strategies,
    costing the alternatives from heap row counts and default
    selectivities.

    ``naive=True`` disables every optimization: full heap scans, no
    join reordering, no predicate pushdown, nested-loop joins only,
    with every conjunct evaluated as a residual filter.  This is the
    reference executor of the differential test harness
    (``tests/test_differential.py``) — any plan the real optimizer
    picks must agree with the naive plan on rows, labels, and effects,
    because none of these choices may change *what* a statement sees
    or touches, only how fast it finds it.
    """

    def __init__(self, catalog, naive: bool = False, work_mem: int = 0):
        self.catalog = catalog
        self.naive = naive
        #: Per-operator memory budget in bytes (0 = unbounded).  The
        #: optimizer only *costs* spilling with it — the executor reads
        #: the live budget from the database at run time.
        self.work_mem = work_mem

    def exec_batch_size(self, requested: int) -> int:
        """Execution batch size for plans this optimizer produces.

        Naive mode pins batch size 1: a one-version chunk always takes
        the scan leaf's per-version loop, so the reference executor
        drives one ``covers``/``visible``/``touch`` per tuple and the
        differential harness cross-checks the set-at-a-time
        amortizations — label-run memoization, the MVCC bound check,
        page-run touch accounting — against per-tuple ground truth,
        not against themselves.
        """
        return 1 if self.naive else requested

    def optimize_dml(self, query: LogicalDML) -> LogicalDML:
        """Annotate an UPDATE/DELETE target with its access path.

        Every WHERE conjunct is folded and pushed into the single
        target entry — there is no join sequence and no residual layer
        above the scan, so the access path's residual predicate is
        where non-key conjuncts (including subqueries) are evaluated.
        Access-path selection then runs the same costed enumeration as
        SELECT: equality probes, ordered-index range scans, full scan.
        """
        if query.optimized:
            return query
        query.optimized = True
        entry = query.entry
        for conjunct in query.where_conjuncts:
            folded = fold_constants(conjunct)
            if _literal(folded) and folded.value is True:
                continue
            entry.pushed.append(folded)
        entry.access = self._choose_access(entry, query.scope)
        return query

    def optimize(self, query: LogicalQuery) -> LogicalQuery:
        if query.optimized:
            return query
        query.optimized = True
        if not query.entries:
            query.residual_where = [fold_constants(c)
                                    for c in query.where_conjuncts]
            query.est_rows = 1.0
            query.est_cost = 0.0
            return query
        # Derived entries first: their estimates feed join ordering.
        for entry in query.entries:
            if entry.derived is not None:
                self.optimize(entry.derived)
        self._reorder_entries(query)
        join_extra = self._classify_where(query)
        if not self.naive:
            self._project_columns(query, join_extra)
        cum_rows = cum_cost = 0.0
        for i, entry in enumerate(query.entries):
            if entry.table is not None:
                entry.access = self._choose_access(entry, query.scope)
            else:
                self._estimate_derived(entry, query.scope)
            if i == 0:
                cum_rows, cum_cost = entry.est_rows, entry.est_cost
            else:
                self._choose_join(query, i, join_extra[i], cum_rows,
                                  cum_cost)
                cum_rows = entry.join.est_rows
                cum_cost = entry.join.est_cost
                cum_rows *= DEFAULT_SEL ** len(entry.post_filters)
        cum_rows *= DEFAULT_SEL ** len(query.residual_where)
        query.est_rows = cum_rows
        query.est_cost = cum_cost
        return query

    # -- cardinality ---------------------------------------------------------
    def _base_rows(self, table: Table) -> float:
        """The heap's version count (:attr:`Table.approx_rows`), floored."""
        return max(float(table.approx_rows), ROW_FLOOR)

    def _conjunct_selectivity(self, conjunct, alias, local_scope) -> float:
        """Estimated fraction of rows satisfying one pushed conjunct."""
        col, op, _value = constant_comparison(conjunct, alias, local_scope)
        if col is not None:
            return DEFAULT_EQ_SEL if op == "=" else DEFAULT_RANGE_SEL
        if _between_bounds(conjunct, alias, local_scope) is not None:
            return DEFAULT_RANGE_SEL ** 2
        if isinstance(conjunct, ex.IsNull):
            return (1.0 - DEFAULT_NULL_SEL) if conjunct.negated \
                else DEFAULT_NULL_SEL
        if isinstance(conjunct, ex.InList) and not conjunct.negated:
            return min(1.0, DEFAULT_EQ_SEL * len(conjunct.items))
        if isinstance(conjunct, ex.Like) and not conjunct.negated:
            return DEFAULT_LIKE_SEL
        return DEFAULT_SEL

    def _filtered_selectivity(self, conjuncts, alias, local_scope) -> float:
        sel = 1.0
        for conjunct in conjuncts:
            sel *= self._conjunct_selectivity(conjunct, alias, local_scope)
        return sel

    def _local_scope(self, entry: SourceEntry, scope_full: ex.Scope):
        local_scope = ex.Scope(outer=scope_full.outer)
        local_scope.add_table(entry.alias, entry.columns)
        return local_scope

    def _estimate_derived(self, entry: SourceEntry,
                          scope_full: ex.Scope) -> None:
        inner_rows = entry.derived.est_rows \
            if entry.derived is not None and \
            entry.derived.est_rows is not None else DEFAULT_DERIVED_ROWS
        inner_cost = entry.derived.est_cost \
            if entry.derived is not None and \
            entry.derived.est_cost is not None else DEFAULT_DERIVED_ROWS
        local_scope = self._local_scope(entry, scope_full)
        sel = self._filtered_selectivity(entry.pushed, entry.alias,
                                         local_scope)
        entry.est_rows = inner_rows * sel
        entry.est_cost = inner_cost + COST_ROW * inner_rows

    # -- rule 2: join reordering -------------------------------------------
    def _reorder_entries(self, query: LogicalQuery) -> None:
        """Greedy cost-based ordering of an all-inner join sequence.

        For a chain of inner joins, ON conditions and WHERE conjuncts
        are interchangeable, so both pools merge; the entry with the
        smallest estimated filtered cardinality leads, and each later
        position prefers entries equi-joinable to the placed prefix
        (no cross products), smallest first.  This turns "scan the big
        fact table, probe the filtered dimension" plans into
        "index-scan the filtered entry, index-probe the fact table".
        Queries with LEFT JOINs keep their written order (reordering
        would change NULL-extension semantics), and an unqualified
        ``*`` pins the order too, because its output columns follow
        entry order.
        """
        entries = query.entries
        if self.naive:
            return
        if len(entries) < 2 or any(e.join_kind != "inner"
                                   for e in entries[1:]):
            return
        if any(isinstance(item.expr, ex.Star) and item.expr.table is None
               for item in query.select.items):
            return
        # Merge ON conditions into the WHERE pool; classification will
        # redistribute every conjunct against the final order.
        pool = list(query.where_conjuncts)
        for entry in entries[1:]:
            pool.extend(split_conjuncts(entry.join_on))
            entry.join_on = None
        query.where_conjuncts = pool

        entry_index = {e.alias: i for i, e in enumerate(entries)}
        local_conjs: List[List[ex.Expr]] = [[] for _ in entries]
        for conjunct in pool:
            refs, opaque = collect_columns(conjunct)
            if opaque:
                continue
            touched = set()
            outer_ref = False
            for ref in refs:
                depth, index = query.scope.resolve_depth(ref.name,
                                                         ref.table)
                if depth > 0:
                    outer_ref = True
                    break
                touched.add(entry_index[query.scope.entries[index][0]])
            if not outer_ref and len(touched) == 1:
                local_conjs[touched.pop()].append(conjunct)

        estimates: List[float] = []
        for i, entry in enumerate(entries):
            if entry.table is not None:
                local_scope = self._local_scope(entry, query.scope)
                sel = self._filtered_selectivity(local_conjs[i],
                                                 entry.alias, local_scope)
                estimates.append(self._base_rows(entry.table) * sel)
            else:
                inner = entry.derived.est_rows \
                    if entry.derived is not None and \
                    entry.derived.est_rows is not None \
                    else DEFAULT_DERIVED_ROWS
                local_scope = self._local_scope(entry, query.scope)
                sel = self._filtered_selectivity(local_conjs[i],
                                                 entry.alias, local_scope)
                estimates.append(inner * sel)

        def joinable(j: int, placed_aliases: set) -> bool:
            for conjunct in pool:
                if _equi_pair(conjunct, entries[j], placed_aliases,
                              query.scope) is not None:
                    return True
            return False

        order: List[int] = []
        placed: set = set()
        remaining = list(range(len(entries)))
        while remaining:
            def rank(j: int):
                connected = not order or joinable(j, placed)
                return (0 if connected else 1, estimates[j], j)
            pick = min(remaining, key=rank)
            remaining.remove(pick)
            order.append(pick)
            placed.add(entries[pick].alias)

        if order != list(range(len(entries))):
            query.entries = [entries[j] for j in order]
            for entry in query.entries:
                entry.join_kind = "inner"
            relayout(query)

    # -- rule 3: predicate pushdown ----------------------------------------
    def _classify_where(self, query: LogicalQuery) -> List[List[ex.Expr]]:
        """Distribute WHERE conjuncts; returns per-entry join extras."""
        entries = query.entries
        scope = query.scope
        entry_index = {e.alias: i for i, e in enumerate(entries)}
        join_extra: List[List[ex.Expr]] = [[] for _ in entries]
        for conjunct in query.where_conjuncts:
            conjunct = fold_constants(conjunct)
            if _literal(conjunct) and conjunct.value is True:
                continue
            if self.naive:
                # No pushdown: every WHERE conjunct filters at the top,
                # after all joins — plain SQL WHERE semantics.
                query.residual_where.append(conjunct)
                continue
            refs, opaque = collect_columns(conjunct)
            touched = set()
            local_only = True
            for ref in refs:
                depth, index = scope.resolve_depth(ref.name, ref.table)
                if depth > 0:
                    local_only = False
                    continue
                alias = scope.entries[index][0]
                touched.add(entry_index[alias])
            if opaque or not local_only:
                query.residual_where.append(conjunct)
            elif len(touched) == 1:
                target = touched.pop()
                # Cannot push below a LEFT JOIN's nullable side.
                if entries[target].join_kind == "left":
                    query.residual_where.append(conjunct)
                else:
                    entries[target].pushed.append(conjunct)
            elif touched:
                join_extra[max(touched)].append(conjunct)
            else:
                query.residual_where.append(conjunct)
        return join_extra

    # -- rule 3b: projection pushdown --------------------------------------
    def _project_columns(self, query: LogicalQuery,
                         join_extra: List[List[ex.Expr]]) -> None:
        """Compute each base-table entry's *needed* column set.

        Walks every expression evaluated **above** the scans — output
        items, residual WHERE, join conditions (ON plus the multi-table
        WHERE conjuncts in ``join_extra``), GROUP BY, HAVING, ORDER BY,
        LIMIT/OFFSET — and resolves each column reference and ``*``-slot
        back to its source entry.  Entries whose referenced set is
        narrower than their schema get ``entry.needed`` so the scan
        materializes only those stored columns.

        Pushed scan predicates (``entry.pushed`` and access-path
        residuals) are deliberately *not* walked: they evaluate against
        stored tuple versions below materialization, so they never
        constrain which columns the scan must copy out.  The ``_label``
        pseudo-column is ignored too — labels always ride along
        per-row, because the information-flow rules are tuple-granular.

        Conservative bail-outs (every entry keeps full width): any
        subquery anywhere (its correlated interior may read arbitrary
        outer columns), and any reference the scope cannot resolve.
        """
        entries = query.entries
        scope = query.scope
        select = query.select
        exprs: List[ex.Expr] = [expr for expr, _name in query.items]
        exprs.extend(query.residual_where)
        for extra in join_extra:
            exprs.extend(extra)
        for entry in entries[1:]:
            exprs.extend(split_conjuncts(entry.join_on))
        exprs.extend(select.group_by)
        if select.having is not None:
            exprs.append(select.having)
        for order_item in select.order_by:
            expr = order_item.expr
            # Mirror the planner's _resolve_order_expr: ordinals and
            # bare output aliases name select items already walked.
            if isinstance(expr, ex.Literal) and isinstance(expr.value,
                                                           int):
                continue
            if isinstance(expr, ex.ColumnRef) and expr.table is None \
                    and expr.name in query.columns:
                continue
            exprs.append(expr)
        if select.limit is not None:
            exprs.append(select.limit)
        if select.offset is not None:
            exprs.append(select.offset)

        refs: List[ex.ColumnRef] = []
        slots: List[int] = []
        for expr in exprs:
            found, opaque = collect_columns(expr)
            if opaque:
                return
            refs += found
            slots += collect_slots(expr)

        starts: List[int] = []
        base = 0
        for entry in entries:
            starts.append(base)
            base += entry.width

        needed: List[set] = [set() for _ in entries]

        def note(flat: int) -> None:
            for j in range(len(entries) - 1, -1, -1):
                if flat >= starts[j]:
                    local = flat - starts[j]
                    if local < len(entries[j].columns):
                        needed[j].add(local)
                    return

        for ref in refs:
            try:
                depth, flat = scope.resolve_depth(ref.name, ref.table)
            except CatalogError:
                return                       # unresolvable: play safe
            if depth:
                continue                     # outer scopes aren't ours
            note(flat)
        for slot in slots:
            if not 0 <= slot < base:
                return
            note(slot)

        for j, entry in enumerate(entries):
            if entry.table is None:
                continue                     # derived: opaque boundary
            if len(needed[j]) < len(entry.columns):
                entry.needed = tuple(sorted(needed[j]))

    # -- rule 4: access-path selection -------------------------------------
    def _choose_access(self, entry: SourceEntry, scope_full: ex.Scope):
        from .indexes import OrderedIndex
        local_scope = self._local_scope(entry, scope_full)
        bounds = _PredBounds(entry.pushed, entry.alias, local_scope)
        rows = self._base_rows(entry.table)
        total_sel = self._filtered_selectivity(entry.pushed, entry.alias,
                                               local_scope)
        pushed = entry.pushed
        # Projection pushdown makes a narrow scan cheaper per row: it
        # copies fewer cells out of the heap.  The factor is applied
        # uniformly to every candidate's per-row term (visibility and
        # predicate work don't shrink), so it never flips the access
        # choice for one entry — it lowers the entry's est_cost so join
        # costing credits narrow build/probe sides.
        width_factor = 1.0
        if entry.needed is not None:
            width_factor = 0.5 + 0.5 * (len(entry.needed) + 1) \
                / (len(entry.columns) + 1)

        # Candidate 1: full heap scan (always available).
        candidates: List[Tuple[float, int, object]] = [
            (COST_ROW * rows * width_factor, 2, FullScanAccess(list(pushed)))]

        # Candidate 2: best equality-index probe.
        eq_cols = {col: value for col, (_c, value) in bounds.eq.items()}
        if eq_cols:
            index, n_keys = best_index(entry.table, set(eq_cols))
            if index is not None:
                key_columns = tuple(index.columns[:n_keys])
                covered = set(key_columns)
                key_sel = self._filtered_selectivity(
                    [bounds.eq[c][0] for c in key_columns],
                    entry.alias, local_scope)
                residual = [c for c in pushed
                            if not _covered_by(c, covered, entry.alias,
                                               local_scope, eq_cols)]
                cost = COST_PROBE + COST_ROW * rows * key_sel \
                    * width_factor
                candidates.append((cost, 0, IndexEqAccess(
                    index=index, key_columns=key_columns,
                    key_exprs=[eq_cols[c] for c in key_columns],
                    residual=residual)))

        # Candidate 3: ordered-index range scans (eq prefix + bounds on
        # the next index column).
        for index in entry.table.indexes.values():
            if not isinstance(index, OrderedIndex):
                continue
            prefix: List[str] = []
            for col in index.columns:
                if col in bounds.eq:
                    prefix.append(col)
                else:
                    break
            if len(prefix) >= len(index.columns):
                continue                     # fully covered: eq path wins
            range_col = index.columns[len(prefix)]
            low = bounds.lows.get(range_col)
            high = bounds.highs.get(range_col)
            if low is None and high is None:
                continue
            consumed = {id(bounds.eq[c][0]) for c in prefix}
            range_conjs = []
            if low is not None:
                consumed.add(id(low[0]))
                range_conjs.append(low[0])
            if high is not None:
                consumed.add(id(high[0]))
                range_conjs.append(high[0])
            key_sel = self._filtered_selectivity(
                [bounds.eq[c][0] for c in prefix], entry.alias,
                local_scope)
            seen = set()
            for conjunct in range_conjs:
                if id(conjunct) in seen:
                    continue
                seen.add(id(conjunct))
                key_sel *= self._conjunct_selectivity(
                    conjunct, entry.alias, local_scope)
            residual = [c for c in pushed if id(c) not in consumed]
            cost = COST_PROBE + COST_ROW * rows * key_sel * width_factor
            candidates.append((cost, 1, IndexRangeAccess(
                index=index, eq_columns=tuple(prefix),
                eq_exprs=[bounds.eq[c][1] for c in prefix],
                range_column=range_col,
                low_expr=low[1] if low is not None else None,
                high_expr=high[1] if high is not None else None,
                include_low=low[2] if low is not None else True,
                include_high=high[2] if high is not None else True,
                residual=residual)))

        if self.naive:
            cost, _priority, access = candidates[0]   # the full scan
        else:
            cost, _priority, access = min(candidates,
                                          key=lambda c: (c[0], c[1]))
        entry.est_rows = rows * total_sel
        entry.est_cost = cost
        return access

    # -- rule 5: join-strategy selection -----------------------------------
    def _row_bytes(self, entry: SourceEntry) -> float:
        """Expected in-memory bytes of one execution row from this entry.

        Counts only the projected columns when pushdown narrowed the
        entry — projected-away slots ride along as ``None`` at 8 bytes
        each, so a narrow build side earns a matching memory-budget
        credit here and at run time
        (:func:`~repro.db.spill.estimate_row_bytes`).
        """
        if entry.needed is None:
            return estimated_tuple_bytes(len(entry.columns))
        stripped = len(entry.columns) - len(entry.needed)
        return estimated_tuple_bytes(len(entry.needed)) + 8.0 * stripped

    def _join_pair_selectivity(self, table: Table, column: str) -> float:
        """P(right.col = probe value) per right row: one row in the
        table when a unique index covers exactly ``column``."""
        for _unique, index in table.unique_indexes:
            if index.columns == (column,):
                return 1.0 / self._base_rows(table)
        return DEFAULT_EQ_SEL

    def _choose_join(self, query: LogicalQuery, i: int,
                     extra: List[ex.Expr], left_rows: float,
                     left_cost: float) -> None:
        entry = query.entries[i]
        scope = query.scope
        kind = entry.join_kind
        left_aliases = {e.alias for e in query.entries[:i]}
        on_conjuncts = [fold_constants(c)
                        for c in split_conjuncts(entry.join_on)]
        if kind == "inner":
            on_conjuncts = on_conjuncts + extra
        elif extra:
            # Multi-table WHERE conjuncts touching a left join's right
            # side must filter *after* the join.
            entry.post_filters = list(extra)

        eq_pairs: List[Tuple[str, ex.Expr]] = []   # (right col, left expr)
        residual: List[ex.Expr] = []
        if self.naive:
            # No equi-pair extraction: every ON condition stays a
            # residual filter on the nested-loop join at this level.
            residual = list(on_conjuncts)
        else:
            for conjunct in on_conjuncts:
                pair = _equi_pair(conjunct, entry, left_aliases, scope)
                if pair is not None:
                    eq_pairs.append(pair)
                else:
                    residual.append(conjunct)

        table = entry.table
        right_rows = entry.est_rows if entry.est_rows is not None \
            else DEFAULT_DERIVED_ROWS
        right_cost = entry.est_cost if entry.est_cost is not None \
            else right_rows
        pair_sel = 1.0
        if table is not None:
            for col, _expr in eq_pairs:
                pair_sel *= self._join_pair_selectivity(table, col)
        elif eq_pairs:
            pair_sel = min(1.0, 1.0 / max(right_rows, 1.0)) \
                if right_rows else DEFAULT_EQ_SEL
        out_rows = left_rows * right_rows * pair_sel \
            * DEFAULT_SEL ** len(residual)
        if kind == "left":
            out_rows = max(out_rows, left_rows)
        hash_cost = left_cost + right_cost + COST_BUILD_ROW * right_rows \
            + COST_ROW * left_rows + COST_ROW * out_rows
        # Memory budget: a build side expected to exceed work_mem pays
        # one spool write + read per row per grace level — on build
        # *and* probe rows — which is exactly what makes the optimizer
        # prefer an index join (no build memory) or a smaller build
        # side when the budget is tight.
        row_bytes = self._row_bytes(entry)
        build_bytes = right_rows * row_bytes
        spill_partitions, part_bytes, spill_levels = estimate_spill_plan(
            build_bytes, self.work_mem)
        if spill_partitions:
            hash_cost += COST_SPILL_ROW * spill_levels \
                * (right_rows + left_rows)

        if table is not None and eq_pairs and kind in ("inner", "left"):
            index, n_keys = best_index(table, {c for c, _ in eq_pairs})
            if index is not None:
                key_columns = tuple(index.columns[:n_keys])
                # One pair per key column drives the probe; every other
                # pair — a non-key column, or a *second* equality on the
                # same column (a.id = b.id AND b.id = c.id funnelled
                # onto b) — must survive as a residual condition.
                by_col: dict = {}
                leftover_pairs: List[Tuple[str, ex.Expr]] = []
                for col, expr in eq_pairs:
                    if col in key_columns and col not in by_col:
                        by_col[col] = expr
                    else:
                        leftover_pairs.append((col, expr))
                leftovers = [ex.Compare("=",
                                        ex.ColumnRef(c, entry.alias),
                                        expr)
                             for c, expr in leftover_pairs]
                pushed_extra = entry.pushed if kind == "inner" else []
                if kind == "left" and entry.pushed:
                    raise DatabaseError(
                        "internal: predicates pushed below a left join")
                # Probes hit the base table (pushed predicates filter
                # per probe), so fan-out uses the unfiltered row count.
                base = self._base_rows(table)
                key_sel = 1.0
                for col in key_columns:
                    key_sel *= self._join_pair_selectivity(table, col)
                matches = max(base * key_sel, 0.0)
                index_cost = left_cost + left_rows * (COST_PROBE
                                                      + COST_ROW * matches)
                if index_cost <= hash_cost:
                    entry.join = IndexJoinChoice(
                        index=index, key_columns=key_columns,
                        key_exprs=[by_col[c] for c in key_columns],
                        residual=residual + leftovers + pushed_extra,
                        est_rows=out_rows, est_cost=index_cost)
                    return
        if eq_pairs:
            entry.join = HashJoinChoice(
                left_exprs=[e for _, e in eq_pairs],
                right_columns=[c for c, _ in eq_pairs],
                residual=residual, est_rows=out_rows, est_cost=hash_cost,
                est_mem=part_bytes,
                est_spill_partitions=spill_partitions)
            return
        nested_out = left_rows * right_rows * DEFAULT_SEL ** len(residual)
        if kind == "left":
            nested_out = max(nested_out, left_rows)
        entry.join = NestedJoinChoice(
            residual=residual, est_rows=nested_out,
            est_cost=left_cost + right_cost
            + COST_ROW * left_rows * max(right_rows, 1.0),
            est_mem=right_rows * row_bytes)
