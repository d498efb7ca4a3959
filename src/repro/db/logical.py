"""Logical query plans: the first of the three planner layers.

``build_logical`` turns a parsed :class:`~repro.sql.ast.Select` into a
:class:`LogicalQuery` — FROM items resolved against the catalog into a
left-deep join sequence, the name scope built, ``*`` expanded, and the
WHERE clause split into conjuncts.  No execution strategy is chosen
here: access paths and join algorithms are optimizer annotations
(:mod:`repro.db.optimizer`), and the annotated tree is lowered to
physical operators by :mod:`repro.db.planner`.

Views and subqueries in FROM become *derived* entries holding their own
recursively built :class:`LogicalQuery`.  A declassifying view extends
the ``declass`` label and grant list flowing down to the scans beneath
it — the enforcement point stays in the scans (section 7.1), and the
derived boundary is opaque to the optimizer so no predicate is ever
evaluated against a pre-declassification label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.labels import EMPTY_LABEL, Label
from ..errors import CatalogError, DatabaseError
from ..sql import ast
from . import expressions as ex
from .catalog import Catalog
from .storage import Table


def split_conjuncts(node: Optional[ex.Expr]) -> List[ex.Expr]:
    """Flatten a boolean expression into its top-level AND conjuncts."""
    if node is None:
        return []
    if isinstance(node, ex.And):
        result = []
        for item in node.items:
            result.extend(split_conjuncts(item))
        return result
    return [node]


def collect_columns(node: ex.Expr) -> Tuple[List[ex.ColumnRef], bool]:
    """``(column references, opaque)``: every column the expression
    names itself, and whether it also runs a subquery — whose
    correlated references can reach columns not in the list."""
    refs: List[ex.ColumnRef] = []
    opaque = False
    for n in ex.walk(node):
        if isinstance(n, ex.ColumnRef):
            refs.append(n)
        elif isinstance(n, ex.SUBQUERY_NODES):
            opaque = True
    return refs, opaque


def collect_slots(node: ex.Expr) -> List[int]:
    """Flat row positions read via :class:`~…expressions.SlotRef`
    (``*`` expansion emits them, so projection analysis must see them
    alongside named column references).  Subquery interiors are skipped
    — :func:`collect_columns` already marks those opaque."""
    return [n.slot for n in ex.walk(node) if isinstance(n, ex.SlotRef)]


@dataclass
class SourceEntry:
    """One FROM item in the left-deep join sequence.

    Exactly one of ``table`` (base table) or ``derived`` (view or
    subquery) is set.  The ``pushed``/``access``/``join``/``post_filters``
    fields start empty and are filled in by the optimizer.
    """

    alias: str
    columns: List[str]
    width: int                                   # columns + _label
    join_kind: str = "inner"                     # "inner" | "left"
    join_on: Optional[ex.Expr] = None
    table: Optional[Table] = None
    declass: Label = EMPTY_LABEL
    view_grants: List = field(default_factory=list)
    derived: Optional["LogicalQuery"] = None
    relation_name: Optional[str] = None          # table/view name for EXPLAIN
    # ---- optimizer annotations -------------------------------------
    pushed: List[ex.Expr] = field(default_factory=list)
    access: Optional[object] = None              # AccessPath (base tables)
    join: Optional[object] = None                # JoinChoice (entries 1..n)
    post_filters: List[ex.Expr] = field(default_factory=list)
    est_rows: Optional[float] = None             # after pushed predicates
    est_cost: Optional[float] = None             # cost of producing them
    #: Projection pushdown: sorted stored-column positions anything
    #: above this entry's scan reads (None = all columns — the default,
    #: and always the case for DML targets and naive plans).
    needed: Optional[Tuple[int, ...]] = None


@dataclass
class LogicalQuery:
    """A resolved SELECT: sources, scope, expanded items, conjuncts."""

    select: ast.Select
    entries: List[SourceEntry]
    scope: ex.Scope
    items: List[Tuple[ex.Expr, str]]             # (expr, output name)
    columns: List[str]
    where_conjuncts: List[ex.Expr]
    # ---- optimizer annotations -------------------------------------
    residual_where: List[ex.Expr] = field(default_factory=list)
    optimized: bool = False
    est_rows: Optional[float] = None             # estimated output rows
    est_cost: Optional[float] = None             # estimated total cost

    @property
    def width(self) -> int:
        """Flat execution-row width the select list evaluates over:
        the sum of entry widths (each contributes its columns plus the
        ``_label`` pseudo-column).  The planner's sort/aggregate spill
        estimates size pre-projection rows with it."""
        return sum(entry.width for entry in self.entries)


@dataclass
class LogicalDML:
    """A resolved UPDATE/DELETE: the target table as a single
    :class:`SourceEntry` so the optimizer's access-path enumeration —
    equality probes, ordered-index range scans, row-count costing —
    applies to DML target selection exactly as it does to SELECT scans.

    DML targets are always base tables (the catalog rejects views), so
    the entry never carries declassification, and there is no join
    sequence: the optimizer's only job here is pushing the WHERE
    conjuncts into the entry and choosing its access path.
    """

    entry: SourceEntry
    scope: ex.Scope
    where_conjuncts: List[ex.Expr]
    # ---- optimizer annotations -------------------------------------
    optimized: bool = False


def _flatten_from(items: List[ast.FromItem]) -> List[Tuple]:
    """Flatten the FROM clause into a left-deep join sequence.

    Returns [(item, kind, on_expr)]; the first entry's kind/on are
    ignored.  Explicit JOIN trees are flattened left-to-right, which
    is valid for inner and left joins in a left-deep evaluation.
    """
    sequence: List[Tuple] = []
    for item in items:
        _walk_join(item, "inner", None, sequence)
    return sequence


def _walk_join(item, kind: str, on, sequence: List[Tuple]) -> None:
    """Append ``item``'s leaves to ``sequence`` left to right, each
    with the kind and ON condition of the join that brought it in."""
    if isinstance(item, ast.Join):
        _walk_join(item.left, kind, on, sequence)
        _walk_join(item.right, item.kind, item.on, sequence)
    else:
        sequence.append((item, kind, on))


def _entry_for(item, catalog: Catalog, declass_in: Label,
               grants_in: List) -> SourceEntry:
    """Resolve one FROM item to a source entry (table/view/subquery)."""
    if isinstance(item, ast.TableRef):
        name = item.name
        if catalog.is_view(name):
            view = catalog.get_view(name)
            declass = declass_in
            grants = list(grants_in)
            if view.is_declassifying:
                declass = declass_in.union(view.declassify)
                grants = grants + [(view, view.declassify)]
            inner = build_logical(view.select, catalog, None, declass,
                                  grants)
            return SourceEntry(alias=item.effective_alias,
                               columns=list(view.columns),
                               width=len(view.columns) + 1,
                               derived=inner, relation_name=name)
        table = catalog.get_table(name)
        columns = table.schema.column_names
        return SourceEntry(alias=item.effective_alias, columns=columns,
                           width=len(columns) + 1, table=table,
                           declass=declass_in,
                           view_grants=list(grants_in),
                           relation_name=name)
    if isinstance(item, ast.SubqueryRef):
        inner = build_logical(item.select, catalog, None, declass_in,
                              list(grants_in))
        return SourceEntry(alias=item.alias, columns=list(inner.columns),
                           width=len(inner.columns) + 1, derived=inner)
    raise DatabaseError("unsupported FROM item %r" % (item,))


def _default_name(expr: ex.Expr) -> str:
    if isinstance(expr, ex.ColumnRef):
        return expr.name
    if isinstance(expr, ex.FuncCall):
        return expr.name.lower()
    if isinstance(expr, ex.Aggregate):
        return expr.func.lower()
    return "?column?"


def _expand_items(select: ast.Select,
                  scope: ex.Scope) -> List[Tuple[ex.Expr, str]]:
    """Expand ``*`` and name the output columns."""
    items: List[Tuple[ex.Expr, str]] = []
    for item in select.items:
        if isinstance(item.expr, ex.Star):
            positions = scope.star_positions(item.expr.table)
            names = scope.star_names(item.expr.table)
            for pos, name in zip(positions, names):
                items.append((ex.SlotRef(pos), name))
        else:
            name = item.alias or _default_name(item.expr)
            items.append((item.expr, name))
    return items


def relayout(query: LogicalQuery) -> None:
    """Rebuild scope and expanded items after the optimizer reorders
    ``query.entries`` (column positions follow entry order)."""
    scope = ex.Scope(outer=query.scope.outer)
    for entry in query.entries:
        scope.add_table(entry.alias, entry.columns)
    query.scope = scope
    query.items = _expand_items(query.select, scope)
    query.columns = [name for _, name in query.items]


def build_dml_logical(statement, catalog: Catalog) -> LogicalDML:
    """Resolve a parsed UPDATE/DELETE into a logical DML plan.

    The target is resolved like a one-table FROM clause: the scope
    exposes the table's columns plus the ``_label`` pseudo-column, so
    WHERE predicates and UPDATE SET expressions compile exactly as they
    would in a single-table SELECT.
    """
    table = catalog.get_table(statement.table)
    columns = table.schema.column_names
    entry = SourceEntry(alias=table.name, columns=columns,
                        width=len(columns) + 1, table=table,
                        relation_name=table.name)
    scope = ex.Scope()
    scope.add_table(entry.alias, entry.columns)
    return LogicalDML(entry=entry, scope=scope,
                      where_conjuncts=split_conjuncts(statement.where))


def build_logical(select: ast.Select, catalog: Catalog,
                  outer_scope: Optional[ex.Scope] = None,
                  declass: Label = EMPTY_LABEL,
                  grants: Optional[List] = None) -> LogicalQuery:
    """Resolve a parsed SELECT into a logical query."""
    grants = grants or []
    scope = ex.Scope(outer=outer_scope)
    entries: List[SourceEntry] = []
    for item, kind, on in _flatten_from(select.from_items):
        entry = _entry_for(item, catalog, declass, grants)
        entry.join_kind = kind
        entry.join_on = on
        if any(e.alias == entry.alias for e in entries):
            raise CatalogError("duplicate table alias %r" % entry.alias)
        entries.append(entry)
        scope.add_table(entry.alias, entry.columns)

    items = _expand_items(select, scope)
    return LogicalQuery(select=select, entries=entries, scope=scope,
                        items=items, columns=[name for _, name in items],
                        where_conjuncts=split_conjuncts(select.where))
