"""Statement AST for the SQL dialect.

Expression nodes live in :mod:`repro.db.expressions`; this module defines
the statement-level nodes the parser produces and the planner consumes.
The IFDB extensions show up here: ``Insert.declassifying`` (the
``DECLASSIFYING`` clause of section 5.2.2), ``CreateView.declassifying``
(``WITH DECLASSIFYING``, section 4.3), ``MATCH LABEL`` foreign keys and
``LABEL CHECK`` constraints (section 5.2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..db.expressions import Expr


# ---------------------------------------------------------------------------
# FROM items
# ---------------------------------------------------------------------------

@dataclass
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def effective_alias(self) -> str:
        return self.alias or self.name


@dataclass
class SubqueryRef:
    select: "Select"
    alias: str

    @property
    def effective_alias(self) -> str:
        return self.alias


@dataclass
class Join:
    left: "FromItem"
    right: "FromItem"
    kind: str                      # "inner" | "left"
    on: Optional[Expr]


FromItem = Union[TableRef, SubqueryRef, Join]


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass
class Select:
    items: List[SelectItem]
    from_items: List[FromItem] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[Expr] = None
    offset: Optional[Expr] = None
    distinct: bool = False


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------

@dataclass
class Insert:
    table: str
    columns: Optional[List[str]]
    rows: Optional[List[List[Expr]]] = None      # VALUES form
    select: Optional[Select] = None              # INSERT ... SELECT form
    declassifying: List[str] = field(default_factory=list)  # tag names


@dataclass
class Update:
    table: str
    assignments: List[Tuple[str, Expr]]
    where: Optional[Expr] = None


@dataclass
class Delete:
    table: str
    where: Optional[Expr] = None


# ---------------------------------------------------------------------------
# DDL
# ---------------------------------------------------------------------------

@dataclass
class ColumnDef:
    name: str
    type_name: str
    type_length: Optional[int] = None
    not_null: bool = False
    default: object = None
    has_default: bool = False


@dataclass
class TableConstraintDef:
    kind: str                                   # primary_key|unique|foreign_key|check|label_check
    name: Optional[str] = None
    columns: Tuple[str, ...] = ()
    ref_table: Optional[str] = None
    ref_columns: Tuple[str, ...] = ()
    expr: Optional[Expr] = None
    match_label: bool = False


@dataclass
class CreateTable:
    name: str
    columns: List[ColumnDef]
    constraints: List[TableConstraintDef] = field(default_factory=list)
    if_not_exists: bool = False


@dataclass
class CreateView:
    name: str
    select: Select
    declassifying: List[str] = field(default_factory=list)   # tag names


@dataclass
class CreateIndex:
    name: str
    table: str
    columns: List[str]
    ordered: bool = False


@dataclass
class DropTable:
    name: str
    if_exists: bool = False


@dataclass
class DropView:
    name: str


@dataclass
class DropIndex:
    name: str


# ---------------------------------------------------------------------------
# transactions & misc
# ---------------------------------------------------------------------------

@dataclass
class Begin:
    isolation: Optional[str] = None      # "snapshot" | "serializable"


@dataclass
class Commit:
    pass


@dataclass
class Rollback:
    pass


@dataclass
class Call:
    """CALL procedure(args...) — stored procedure invocation."""

    name: str
    args: List[Expr]


@dataclass
class Vacuum:
    table: Optional[str] = None


@dataclass
class Analyze:
    """ANALYZE [table] — re-cost the cached plans that read the table."""

    table: Optional[str] = None


@dataclass
class Explain:
    """EXPLAIN [ANALYZE] <statement>.

    Plain EXPLAIN renders the plan instead of executing the statement;
    EXPLAIN ANALYZE executes it (writes included — exactly once) and
    annotates each operator with its measured actuals (rows, batches,
    wall time, counter deltas)."""

    statement: "Statement"
    analyze: bool = False


#: A statement made from text — parsed (``parser.parse_statement``) or
#: bound from its shape's template (``template.Template``) — also
#: carries ``fingerprint``, the literal-free form of its tokens — an
#: instance attribute, not a field: it takes no part in equality and a
#: statement built programmatically has none.  Bound statements share
#: their literal-free subtrees, so nothing may mutate a parsed tree.
Statement = Union[Select, Insert, Update, Delete, CreateTable, CreateView,
                  CreateIndex, DropTable, DropView, DropIndex, Begin, Commit,
                  Rollback, Call, Vacuum, Analyze, Explain]
