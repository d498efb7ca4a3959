"""Expression AST, compiler, and builtin functions.

Expressions appear in WHERE/HAVING clauses, select lists, CHECK and label
constraints, and view definitions.  The AST is built either by the SQL
parser (:mod:`repro.sql.parser`) or programmatically.

**Shape.**  A node class declares its shape once, as its
``__slots__``: its sub-expressions are the :class:`Expr` values those
slots hold, directly or inside (nested) tuples, in slot order.
:meth:`Expr.children` lists them, :meth:`Expr.rebuilt` makes the same
node over new ones and :meth:`Expr.key` — what nodes compare and hash
by — is the class, then every slot; no subclass restates any of the
three.  Four classes key on something other than their slots:
:class:`LiteralSlot` on the equality class of its literal (the
literals of its text equal to it in value and type; not its index or
value), so every text of a plan key matches its GROUP BY
items alike; :class:`Exists`, :class:`InSelect` and
:class:`ScalarSelect` on the identity of their ``Select`` (a
dataclass: it compares by value and does not hash), which is planned
on its own and is not a child.  Every tree walk — here
(:func:`walk`, :func:`contains_aggregate`,
:func:`collect_aggregates`, :func:`rewrite`), in the optimizer
(constant folding) and in the logical layer (column and slot
collection) — goes through ``children`` and ``rebuilt``; only
:func:`to_sql` names node classes to reach their parts, because it
prints each differently.  :mod:`repro.sql.template` copies a node by
the same slots.

**Evaluation.**  :class:`ExprCompiler` turns an AST into a Python
closure against a :class:`Scope` that maps column references to
positions in the flattened execution row, in two forms: a *scalar*
closure ``fn(row, ctx) -> value`` (:meth:`ExprCompiler.compile`) for
the places that evaluate one row — index keys, LIMIT/OFFSET, INSERT
VALUES, DML assignments, constraints, constant folding — and a *batch*
closure ``fn(batch, ctx) -> list`` (:meth:`ExprCompiler.compile_batch`)
for the physical operators, which evaluate a
:class:`~repro.db.physical.RowBatch` a column at a time.  Both are
dispatched per node class by the same compiler; a node class without a
column kernel gets its scalar closure mapped over the batch's rows.  An
operator, builtin or aggregate that meets operands it is not defined
on (a zero divisor, TEXT against INT, an order on labels) raises
:class:`~repro.errors.ExpressionError` in either form
(:func:`evaluation_error`).

SQL three-valued logic is approximated with ``None`` as UNKNOWN:
comparisons involving NULL yield None, ``AND``/``OR`` propagate it, and
filters treat None as false.

The ``_label`` system column (section 4.2) is exposed to expressions like
any other column; label predicates use the builtins ``LABEL(...)``,
``LABEL_CONTAINS``, ``LABEL_SUBSET`` and friends, which consult the tag
registry through the execution context.  Every builtin is one entry of
:data:`_BUILTINS`, with the record shape of a catalog function, and
every function call is compiled by one path.
"""

from __future__ import annotations

import math
import operator
from functools import partial
from itertools import compress, repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.labels import Label
from ..errors import (CatalogError, DatabaseError, ExpressionError,
                      ReproError, SQLSyntaxError)

# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expression nodes.

    A node's shape is its ``__slots__``: its sub-expressions are the
    :class:`Expr` values its slots hold, directly or inside (nested)
    tuples, in slot order.  :meth:`key`, :meth:`children` and
    :meth:`rebuilt` read that one declaration.  Nodes compare equal
    structurally (via :meth:`key`), which the planner uses to match
    GROUP BY expressions against select-list expressions.
    """

    __slots__ = ()

    def key(self, below=None) -> Tuple:
        """The class, then every slot, a sub-expression standing in as
        its own key and any other value as ``(type, value)``.  A caller
        that has the children's keys passes them as the iterator
        ``below``, in :meth:`children` order."""
        key = [type(self)]
        for name in self.__slots__:
            key.append(_key(getattr(self, name), below))
        return tuple(key)

    def children(self) -> List["Expr"]:
        """The direct sub-expressions, left to right (the order they
        are evaluated and printed in).  Leaves have none; a subquery's
        ``Select`` AST is not a child."""
        found: List[Expr] = []
        for name in self.__slots__:
            _gather(getattr(self, name), found)
        return found

    def rebuilt(self, children: Sequence["Expr"]) -> "Expr":
        """This node over new children — as many, in the same order, as
        :meth:`children` returns, each put back where its old one was.
        Everything else is carried over."""
        if not children:
            return self
        fresh = iter(children)
        copy = object.__new__(type(self))
        for name in self.__slots__:
            setattr(copy, name, _placed(getattr(self, name), fresh))
        return copy

    def __eq__(self, other):
        return isinstance(other, Expr) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "%s%r" % (type(self).__name__,
                         tuple([getattr(self, n) for n in self.__slots__]))


def _key(value, below=None):
    """An expression's key (the next of ``below``, if given), a tuple's
    keys, or any other value with its type: the literals ``1``, ``1.0``
    and ``TRUE`` are three nodes."""
    if isinstance(value, Expr):
        return value.key() if below is None else next(below)
    if type(value) is tuple:
        return tuple([_key(item, below) for item in value])
    return type(value), value


def _gather(value, found: List[Expr]) -> None:
    if isinstance(value, Expr):
        found.append(value)
    elif type(value) is tuple:
        for item in value:
            _gather(item, found)


def _placed(value, fresh):
    """``value`` with each expression in it replaced by the next of
    ``fresh``."""
    if isinstance(value, Expr):
        return next(fresh)
    if type(value) is tuple:
        return tuple([_placed(item, fresh) for item in value])
    return value


class Literal(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Param(Expr):
    """A ``?`` placeholder, bound positionally at execution time."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class LiteralSlot(Expr):
    """A literal of a statement planned for every text of its plan key
    (:mod:`repro.sql.template`): evaluated like a ``?`` parameter, from
    the executing text's own literals, ``ctx.slot_values[index]``.

    Its key is ``cls``, the class of the literals of its text equal to
    it in value and type, so equal literals still match each other (a select item and its
    GROUP BY expression) and no slot ever equals a ``?`` or a literal.
    ``value`` is the literal of the text the node was built from; only
    EXPLAIN prints it."""

    __slots__ = ("index", "cls", "value")

    def __init__(self, index: int, cls: int, value):
        self.index = index
        self.cls = cls
        self.value = value

    def key(self):
        return (LiteralSlot, self.cls)


#: What is fixed for one execution of a statement: a literal, a ``?``
#: parameter or a literal slot.
CONSTANTS = (Literal, Param, LiteralSlot)


class ColumnRef(Expr):
    __slots__ = ("table", "name")

    def __init__(self, name: str, table: Optional[str] = None):
        self.table = table
        self.name = name


class Star(Expr):
    """``*`` or ``alias.*`` in a select list."""

    __slots__ = ("table",)

    def __init__(self, table: Optional[str] = None):
        self.table = table


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right


class Compare(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right


class And(Expr):
    __slots__ = ("items",)

    def __init__(self, items: Sequence[Expr]):
        self.items = tuple(items)


class Or(Expr):
    __slots__ = ("items",)

    def __init__(self, items: Sequence[Expr]):
        self.items = tuple(items)


class Not(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand


class Neg(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand


class IsNull(Expr):
    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expr, negated: bool = False):
        self.operand = operand
        self.negated = negated


class InList(Expr):
    __slots__ = ("operand", "items", "negated")

    def __init__(self, operand: Expr, items: Sequence[Expr],
                 negated: bool = False):
        self.operand = operand
        self.items = tuple(items)
        self.negated = negated


class Between(Expr):
    __slots__ = ("operand", "low", "high", "negated")

    def __init__(self, operand: Expr, low: Expr, high: Expr,
                 negated: bool = False):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated


class Like(Expr):
    __slots__ = ("operand", "pattern", "negated")

    def __init__(self, operand: Expr, pattern: Expr, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated


#: Operators evaluated at plan time once every operand is a literal —
#: deterministic, context-free and free of side effects
#: (``optimizer.fold_constants``; :mod:`repro.sql.template` keeps the
#: literals under one in the plan key).
FOLDABLE = (Neg, Not, BinOp, Compare, IsNull, Between, Like)

#: Binding strength of the operators, loosest first, which
#: :func:`to_sql` parenthesizes by.  OR and AND chain n-ary; NOT takes
#: an operand of its own level; a comparison — one per operand pair —
#: and IS, IN, BETWEEN and LIKE take arithmetic operands; each
#: arithmetic level is left-associative, and unary minus
#: (:data:`UNARY`) binds tighter than every level.  The parser
#: (:mod:`repro.sql.parser`) reads the comparison operators and the
#: arithmetic levels from here; its OR, AND and NOT levels and the
#: keyword operators are its rule chain, which the round-trip test of
#: :func:`to_sql` holds to this table.
PRECEDENCE = (("OR",), ("AND",), ("NOT",),
              ("=", "<>", "!=", "<", "<=", ">", ">=",
               "IS", "IN", "BETWEEN", "LIKE"),
              ("+", "-", "||"), ("*", "/", "%"))
#: Each operator's level in :data:`PRECEDENCE`.
LEVEL = {word: level for level, words in enumerate(PRECEDENCE)
         for word in words}
UNARY = len(PRECEDENCE)


class FuncCall(Expr):
    """Builtin or catalog-registered scalar function call."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr]):
        self.name = name.upper()
        self.args = tuple(args)


class Aggregate(Expr):
    """COUNT/SUM/AVG/MIN/MAX, resolved by the aggregation operator."""

    FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")

    __slots__ = ("func", "arg", "distinct")

    def __init__(self, func: str, arg: Optional[Expr], distinct: bool = False):
        self.func = func.upper()
        self.arg = arg          # None means COUNT(*)
        self.distinct = distinct


class Case(Expr):
    __slots__ = ("whens", "default")

    def __init__(self, whens: Sequence[Tuple[Expr, Expr]],
                 default: Optional[Expr] = None):
        self.whens = tuple(whens)
        self.default = default


class Exists(Expr):
    """EXISTS (subquery); the subquery is a parsed Select statement."""

    __slots__ = ("select", "negated")

    def __init__(self, select, negated: bool = False):
        self.select = select
        self.negated = negated

    def key(self):
        return (Exists, id(self.select), self.negated)


class InSelect(Expr):
    """operand IN (subquery)."""

    __slots__ = ("operand", "select", "negated")

    def __init__(self, operand: Expr, select, negated: bool = False):
        self.operand = operand
        self.select = select
        self.negated = negated

    def key(self):
        return (InSelect, self.operand.key(), id(self.select),
                self.negated)


class ScalarSelect(Expr):
    """A subquery used as a scalar value."""

    __slots__ = ("select",)

    def __init__(self, select):
        self.select = select

    def key(self):
        return (ScalarSelect, id(self.select))


class AggSlotRef(Expr):
    """Internal: reference to an aggregate result slot (planner rewrite)."""

    __slots__ = ("slot",)

    def __init__(self, slot: int):
        self.slot = slot


class SlotRef(Expr):
    """Internal: direct reference to a position in the execution row."""

    __slots__ = ("slot",)

    def __init__(self, slot: int):
        self.slot = slot


# ---------------------------------------------------------------------------
# Scope: name resolution for column references
# ---------------------------------------------------------------------------

class Scope:
    """Maps (table alias, column name) to flat row positions.

    Each FROM item contributes its columns in order, then a ``_label``
    pseudo-column holding that item's per-row label.  An optional
    ``outer`` scope supports correlated subqueries: references to a name
    the local scope lacks are looked up in the enclosing query's scope
    and read from ``ctx.outer_stack`` at execution time.
    """

    def __init__(self, outer: Optional["Scope"] = None):
        self.entries: List[Tuple[Optional[str], str]] = []
        self._by_name: Dict[str, List[int]] = {}
        self._by_qualified: Dict[Tuple[str, str], int] = {}
        self.tables: List[Tuple[str, List[str]]] = []   # (alias, colnames)
        self.outer = outer

    def add_table(self, alias: str, columns: Sequence[str]) -> None:
        base = len(self.entries)
        names = list(columns) + ["_label"]
        for offset, name in enumerate(names):
            index = base + offset
            self.entries.append((alias, name))
            self._by_name.setdefault(name, []).append(index)
            self._by_qualified[(alias, name)] = index
        self.tables.append((alias, list(columns)))

    @property
    def width(self) -> int:
        return len(self.entries)

    def resolve(self, name: str, table: Optional[str] = None) -> int:
        if table is not None:
            try:
                return self._by_qualified[(table, name)]
            except KeyError:
                raise CatalogError(
                    "column %s.%s does not exist" % (table, name)) from None
        candidates = self._by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise CatalogError("column %r does not exist" % name)
        if name == "_label" and len(self.tables) >= 1:
            # Unqualified _label in a single-table query is unambiguous;
            # with joins, require qualification.
            if len(self.tables) == 1:
                return candidates[0]
        raise CatalogError("column reference %r is ambiguous" % name)

    def resolve_depth(self, name: str,
                      table: Optional[str]) -> Tuple[int, int]:
        """Resolve through the outer-scope chain: (depth, index).

        Depth 0 is the local row; depth ``d`` reads from the ``d``-th
        enclosing query's current row.  A name is looked for outside
        only when a scope has no column of that name, so one that is
        ambiguous in the innermost scope naming it is an error there.
        """
        scope: Optional[Scope] = self
        depth = 0
        while scope is not None:
            if (name in scope._by_name if table is None
                    else (table, name) in scope._by_qualified):
                return depth, scope.resolve(name, table)
            scope = scope.outer
            depth += 1
        raise CatalogError("column %r does not exist in any enclosing scope"
                           % name)

    def star_positions(self, table: Optional[str] = None) -> List[int]:
        """Positions expanded by ``*`` / ``alias.*`` (labels excluded)."""
        positions = []
        for index, (alias, name) in enumerate(self.entries):
            if name == "_label":
                continue
            if table is None or alias == table:
                positions.append(index)
        if table is not None and not positions:
            raise CatalogError("no FROM item named %r" % table)
        return positions

    def star_names(self, table: Optional[str] = None) -> List[str]:
        return [self.entries[i][1] for i in self.star_positions(table)]


# ---------------------------------------------------------------------------
# Builtin scalar functions
# ---------------------------------------------------------------------------

def _substr(s, start, length=None):
    start = int(start) - 1          # SQL is 1-based
    if length is None:
        return s[start:]
    return s[start:start + int(length)]


def _first_non_null(*arguments):
    """COALESCE: the first argument that is not NULL, evaluating none
    after it."""
    return next((value for value in (argument() for argument in arguments)
                 if value is not None), None)


#: The ``strict`` mode of a function called on its arguments unevaluated.
LAZY = "lazy"

#: Every builtin scalar function: ``name → (fn, strict, needs_context)``,
#: the shape of a catalog function's record
#: (:class:`~repro.db.catalog.FunctionDef`), whose functions are never
#: strict.  A *strict* (``True``) function is not called when an
#: argument is NULL: its result is NULL.  A :data:`LAZY` one is called
#: on one zero-argument callable per argument and evaluates only those
#: it needs, as SQL's COALESCE must.  A ``needs_context`` one gets the
#: execution context (the tag registry, the clock) ahead of its
#: arguments.  A builtin shadows a catalog function of its name.
_BUILTINS: Dict[str, Tuple[Callable, Union[bool, str], bool]] = {
    "ABS": (abs, True, False),
    "LENGTH": (len, True, False),
    "LOWER": (str.lower, True, False),
    "UPPER": (str.upper, True, False),
    "SUBSTR": (_substr, True, False),
    "SUBSTRING": (_substr, True, False),
    "ROUND": (lambda x, n=0: round(x, int(n)), True, False),
    "FLOOR": (lambda x: float(math.floor(x)), True, False),
    "CEIL": (lambda x: float(math.ceil(x)), True, False),
    "MOD": (lambda a, b: a % b, True, False),
    "TRIM": (str.strip, True, False),
    "CONCAT": (lambda *args: "".join(str(a) for a in args if a is not None),
               False, False),
    "COALESCE": (_first_non_null, LAZY, False),
    "MIN2": (min, True, False),
    "MAX2": (max, True, False),
    "NOW": (lambda ctx: ctx.now(), True, True),
    "LABEL": (lambda ctx, *names: Label(ctx.registry.lookup(name).id
                                        for name in names), True, True),
    "LABEL_CONTAINS": (lambda ctx, label, tag: ctx.registry.lookup(tag).id
                       in label, True, True),
    "LABEL_SUBSET": (lambda ctx, low, high: low.tags
                     <= ctx.registry.expand(high.tags), True, True),
    "LABEL_SIZE": (len, True, False),
}


def like_match(value: Optional[str], pattern: Optional[str]) -> Optional[bool]:
    """SQL LIKE: ``%`` matches any run, ``_`` any single character."""
    if value is None or pattern is None:
        return None
    import re
    # re.escape leaves % and _ alone on modern Pythons; normalize both
    # possibilities before substituting the wildcards.
    regex = (re.escape(pattern)
             .replace(r"\%", "%").replace(r"\_", "_")
             .replace("%", ".*").replace("_", "."))
    return re.fullmatch(regex, value, re.DOTALL) is not None


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

#: The comparison and arithmetic operators, on two non-NULL values.
_OPERATORS = {
    "=": operator.eq, "<>": operator.ne, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod,
    "||": lambda a, b: str(a) + str(b),
}

#: Column-versus-constant kernels, one per operator, the operator
#: written inline so a value costs no call: ``kernel(column, c)`` for a
#: non-NULL constant ``c``, NULL where the value is NULL.  Picked at
#: compile time, like :data:`repro.db.physical._KERNELS`.
_CONSTANT_KERNELS = {
    "=": lambda column, c: [None if v is None else v == c for v in column],
    "<>": lambda column, c: [None if v is None else v != c for v in column],
    "<": lambda column, c: [None if v is None else v < c for v in column],
    "<=": lambda column, c: [None if v is None else v <= c for v in column],
    ">": lambda column, c: [None if v is None else v > c for v in column],
    ">=": lambda column, c: [None if v is None else v >= c for v in column],
    "+": lambda column, c: [None if v is None else v + c for v in column],
    "-": lambda column, c: [None if v is None else v - c for v in column],
    "*": lambda column, c: [None if v is None else v * c for v in column],
    "/": lambda column, c: [None if v is None else v / c for v in column],
    "%": lambda column, c: [None if v is None else v % c for v in column],
    "||": lambda column, c: [None if v is None else str(v) + str(c)
                             for v in column],
}
_CONSTANT_KERNELS["!="] = _CONSTANT_KERNELS["<>"]

#: What an operator raises on operands SQL gives it no meaning for.
_VALUE_ERRORS = (TypeError, ZeroDivisionError)
_TYPE_NAMES = {bool: "BOOLEAN", int: "INT", float: "REAL", str: "TEXT",
               Label: "LABEL"}


def evaluation_error(form: str, values, exc) -> ExpressionError:
    """The typed error for an operation failing on ``values`` with
    Python's ``exc``: ``form`` names the operator or function, one
    ``{}`` per operand, and each is filled with its operand's SQL type.
    What every kernel, builtin and aggregate fold raises instead of the
    Python exception — caught once per call or batch, never per row."""
    return ExpressionError("cannot evaluate %s: %s" % (form.format(*(
        _TYPE_NAMES.get(type(v), type(v).__name__) for v in values)), exc))


def _operator_error(op: str, pairs) -> ExpressionError:
    """The typed error for the first ``(left, right)`` operand pair
    operator ``op`` fails on."""
    for lv, rv in pairs:
        if lv is not None and rv is not None:
            try:
                _OPERATORS[op](lv, rv)
            except _VALUE_ERRORS as exc:
                return evaluation_error("{} %s {}" % op, (lv, rv), exc)
    return ExpressionError("cannot evaluate operator %s" % op)


class ExprCompiler:
    """Compiles expression ASTs to closures against a scope, in two
    forms with one dispatch: node class ``X`` is evaluated by
    ``_c_x`` (scalar) and, where a column kernel exists, ``_b_x``
    (batch).

    * :meth:`compile` — ``fn(row, ctx) -> value`` for one row; what
      index keys, LIMIT/OFFSET, INSERT VALUES, DML assignments,
      CHECK/label constraints and constant folding evaluate.
    * :meth:`compile_batch` — ``fn(batch, ctx) -> list``, one value
      per row of a :class:`~repro.db.physical.RowBatch`; what every
      physical operator evaluates.

    ``catalog`` (optional) resolves user-defined scalar functions;
    ``planner`` (optional) plans subquery expressions.  Both are injected
    by the query planner to avoid circular imports.
    """

    def __init__(self, scope: Scope, catalog=None, planner=None):
        self.scope = scope
        self.catalog = catalog
        self.planner = planner

    def compile(self, node: Expr) -> Callable:
        method = getattr(self, "_c_" + type(node).__name__.lower(), None)
        if method is None:
            raise DatabaseError("cannot compile expression %r" % (node,))
        return method(node)

    def compile_batch(self, node: Expr) -> Callable:
        """The kernels are **column-at-a-time**: leaves pull whole
        column arrays (``batch.column(i)``, the stored sequence itself)
        and the common shapes (comparisons, arithmetic, ``AND``,
        ``IS NULL``) combine those arrays element-wise, so an
        expression only ever touches the columns it reads.  A node
        without a kernel maps its scalar closure over ``batch.rows()``
        (building the rows) — :meth:`_over_rows` and nowhere else — so
        the batch form can never change semantics, only the loop
        shape."""
        method = getattr(self, "_b_" + type(node).__name__.lower(), None)
        if method is not None:
            return method(node)
        return self._over_rows(node)

    def _over_rows(self, node: Expr) -> Callable:
        row_fn = self.compile(node)
        return lambda batch, ctx: [row_fn(row, ctx) for row in batch.rows()]

    # -- leaves ----------------------------------------------------------
    def _c_literal(self, node: Literal):
        value = node.value
        return lambda row, ctx: value

    def _b_literal(self, node: Literal):
        value = node.value
        return lambda batch, ctx: [value] * len(batch)

    def _c_param(self, node: Param):
        index = node.index
        def run(row, ctx):
            try:
                return ctx.params[index]
            except IndexError:
                raise DatabaseError(
                    "statement requires at least %d parameters, got %d"
                    % (index + 1, len(ctx.params))) from None
        return run

    def _b_param(self, node: Param):
        row_fn = self._c_param(node)
        return lambda batch, ctx: [row_fn([], ctx)] * len(batch)

    def _c_literalslot(self, node: LiteralSlot):
        index = node.index
        return lambda row, ctx: ctx.slot_values[index]

    def _b_literalslot(self, node: LiteralSlot):
        index = node.index
        return lambda batch, ctx: [ctx.slot_values[index]] * len(batch)

    def _c_columnref(self, node: ColumnRef):
        depth, index = self.scope.resolve_depth(node.name, node.table)
        if depth == 0:
            return lambda row, ctx: row[index]
        def run(row, ctx):
            return ctx.outer_stack[-depth][index]
        return run

    def _b_columnref(self, node: ColumnRef):
        depth, index = self.scope.resolve_depth(node.name, node.table)
        if depth == 0:
            return lambda batch, ctx: batch.column(index)
        def outer(batch, ctx):
            return [ctx.outer_stack[-depth][index]] * len(batch)
        return outer

    def _c_slotref(self, node):
        index = node.slot
        return lambda row, ctx: row[index]

    def _b_slotref(self, node):
        index = node.slot
        return lambda batch, ctx: batch.column(index)

    _c_aggslotref, _b_aggslotref = _c_slotref, _b_slotref

    # -- operators ---------------------------------------------------------
    def _c_binop(self, node):
        op = node.op
        fn = _OPERATORS[op]
        left = self.compile(node.left)
        right = self.compile(node.right)
        def run(row, ctx):
            lv = left(row, ctx)
            rv = right(row, ctx)
            if lv is None or rv is None:
                return None
            try:
                return fn(lv, rv)
            except _VALUE_ERRORS:
                raise _operator_error(op, ((lv, rv),)) from None
        return run

    def _b_binop(self, node):
        op = node.op
        left = self.compile_batch(node.left)
        if isinstance(node.right, CONSTANTS):
            # Column-versus-constant, the common predicate shape: one
            # pass over the column with the operator inline.
            kernel = _CONSTANT_KERNELS[op]
            constant = self.compile(node.right)
            def against_constant(batch, ctx):
                column = left(batch, ctx)
                rv = constant([], ctx)
                if rv is None:
                    return [None] * len(column)
                try:
                    return kernel(column, rv)
                except _VALUE_ERRORS:
                    raise _operator_error(op, zip(column, repeat(rv))) \
                        from None
            return against_constant
        fn = _OPERATORS[op]
        right = self.compile_batch(node.right)
        def elementwise(batch, ctx):
            lefts, rights = left(batch, ctx), right(batch, ctx)
            try:
                return [None if lv is None or rv is None else fn(lv, rv)
                        for lv, rv in zip(lefts, rights)]
            except _VALUE_ERRORS:
                raise _operator_error(op, zip(lefts, rights)) from None
        return elementwise

    _c_compare, _b_compare = _c_binop, _b_binop

    def _c_and(self, node):
        parts = [self.compile(i) for i in node.items]
        absorbing = isinstance(node, Or)    # OR stops at TRUE, AND at FALSE
        def run(row, ctx):
            saw_null = False
            for part in parts:
                value = part(row, ctx)
                if value is None:
                    saw_null = True
                elif (not value) is not absorbing:
                    return absorbing
            return None if saw_null else not absorbing
        return run

    _c_or = _c_and

    def _b_and(self, node: And):
        """Keeps the scalar form's short-circuit contract: later
        conjuncts are evaluated only for rows still alive (not yet
        FALSE), over the sub-batch ``select`` gathers of them, so
        ``x <> 0 AND 10 / x > 2`` raises for exactly the rows the
        scalar closure would have raised for."""
        parts = [self.compile_batch(item) for item in node.items]
        def conjunction(batch, ctx):
            n = len(batch)
            alive = range(n)              # not yet FALSE, in row order
            unknown: set = set()          # alive rows that saw a NULL
            for part in parts:
                if not alive:
                    break
                sub = batch if len(alive) == n else batch.select(alive)
                vals = part(sub, ctx)
                if all(vals):
                    continue
                if None in vals:          # a later FALSE still wins
                    unknown.update(i for i, v in zip(alive, vals)
                                   if v is None)
                    alive = [i for i, v in zip(alive, vals)
                             if v or v is None]
                else:
                    alive = list(compress(alive, vals))
            result: list = [False] * n
            for i in alive:
                result[i] = True
            for i in unknown.intersection(alive):
                result[i] = None
            return result
        return conjunction

    def _c_not(self, node: Not):
        operand = self.compile(node.operand)
        def run(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            return not value
        return run

    def _c_neg(self, node: Neg):
        operand = self.compile(node.operand)
        def run(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            try:
                return -value
            except TypeError as exc:
                raise evaluation_error("-{}", (value,), exc) from None
        return run

    def _c_isnull(self, node: IsNull):
        operand = self.compile(node.operand)
        if node.negated:
            return lambda row, ctx: operand(row, ctx) is not None
        return lambda row, ctx: operand(row, ctx) is None

    def _b_isnull(self, node: IsNull):
        operand = self.compile_batch(node.operand)
        if node.negated:
            return lambda batch, ctx: [v is not None
                                       for v in operand(batch, ctx)]
        return lambda batch, ctx: [v is None for v in operand(batch, ctx)]

    def _c_inlist(self, node: InList):
        operand = self.compile(node.operand)
        items = [self.compile(i) for i in node.items]
        negated = node.negated
        def run(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            found = False
            saw_null = False
            for item in items:
                iv = item(row, ctx)
                if iv is None:
                    saw_null = True
                elif iv == value:
                    found = True
                    break
            if not found and saw_null:
                return None
            return (not found) if negated else found
        return run

    def _b_inlist(self, node: InList):
        """``x IN (literals and parameters)``: the items are evaluated
        once per batch and each value is looked up in the set of the
        non-NULL ones, with the scalar form's equality (an item unequal
        to itself, NaN, matches nothing) and its NULL rule (a miss is
        UNKNOWN when an item is NULL).  Other item lists — and a batch
        whose items raise (a missing parameter), since the scalar form
        raises only for a row it reaches — go row by row."""
        by_rows = self._over_rows(node)
        if not all(isinstance(item, CONSTANTS) for item in node.items):
            return by_rows
        operand = self.compile_batch(node.operand)
        items = [self.compile(item) for item in node.items]
        hit = not node.negated
        def membership(batch, ctx):
            try:
                values = [item([], ctx) for item in items]
            except DatabaseError:
                return by_rows(batch, ctx)
            members = frozenset([v for v in values
                                 if v is not None and v == v])
            miss = None if any(v is None for v in values) else not hit
            return [None if v is None else hit if v in members else miss
                    for v in operand(batch, ctx)]
        return membership

    def _c_between(self, node: Between):
        operand = self.compile(node.operand)
        low = self.compile(node.low)
        high = self.compile(node.high)
        negated = node.negated
        def run(row, ctx):
            value = operand(row, ctx)
            lo = low(row, ctx)
            hi = high(row, ctx)
            if value is None or lo is None or hi is None:
                return None
            try:
                result = lo <= value <= hi
            except TypeError as exc:
                raise evaluation_error("{} BETWEEN {} AND {}",
                                       (value, lo, hi), exc) from None
            return (not result) if negated else result
        return run

    def _c_like(self, node: Like):
        operand = self.compile(node.operand)
        pattern = self.compile(node.pattern)
        negated = node.negated
        def run(row, ctx):
            value, against = operand(row, ctx), pattern(row, ctx)
            try:
                result = like_match(value, against)
            except TypeError as exc:
                raise evaluation_error("{} LIKE {}", (value, against),
                                       exc) from None
            if result is None:
                return None
            return (not result) if negated else result
        return run

    def _c_case(self, node: Case):
        whens = [(self.compile(c), self.compile(v)) for c, v in node.whens]
        default = self.compile(node.default) if node.default else None
        def run(row, ctx):
            for cond, value in whens:
                if cond(row, ctx):
                    return value(row, ctx)
            return default(row, ctx) if default else None
        return run

    # -- functions ---------------------------------------------------------
    def _c_funccall(self, node: FuncCall):
        """A builtin (:data:`_BUILTINS`) or catalog function, called one
        way.  Whatever its code raises becomes an ``ExpressionError``
        naming it and its operand types — except the engine's own
        errors: a ``needs_context`` function may refuse on purpose (an
        IFC or authority error, an unknown tag) and that must reach the
        caller as it was raised."""
        args = [self.compile(a) for a in node.args]
        name = node.name
        if name in _BUILTINS:
            fn, strict, with_context = _BUILTINS[name]
        elif self.catalog is not None and self.catalog.has_function(name):
            udf = self.catalog.get_function(name)
            fn, strict, with_context = udf.fn, False, udf.needs_context
        else:
            raise CatalogError("unknown function %r" % name)
        form = "%s(%s)" % (name, ", ".join(["{}"] * len(args)))
        lazy = strict is LAZY
        def call(row, ctx):
            if lazy:
                values = [partial(a, row, ctx) for a in args]
            else:
                values = [a(row, ctx) for a in args]
                if strict and None in values:
                    return None
            try:
                return fn(ctx, *values) if with_context else fn(*values)
            except ReproError:
                raise
            except Exception as exc:
                raise evaluation_error(form, values, exc) from exc
        return call

    # -- subqueries ----------------------------------------------------------
    def _plan_subquery(self, select):
        """The subquery's plan, stamped to one-row batches: its
        consumers pull one or two rows and stop — EXISTS at the first,
        a scalar subquery at the second — and a full-size batch per
        probe would throw that early exit away."""
        if self.planner is None:
            raise DatabaseError("subqueries are not supported here")
        from .physical import stamp_batch_size
        prepared = self.planner.plan_select(select, outer_scope=self.scope)
        return stamp_batch_size(prepared.plan, 1)

    def _c_exists(self, node: Exists):
        plan = self._plan_subquery(node.select)
        negated = node.negated
        def run(row, ctx):
            ctx.outer_stack.append(row)
            try:
                for _batch in plan.batches(ctx):
                    return not negated
                return negated
            finally:
                ctx.outer_stack.pop()
        return run

    def _c_inselect(self, node: InSelect):
        plan = self._plan_subquery(node.select)
        operand = self.compile(node.operand)
        negated = node.negated
        def run(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            ctx.outer_stack.append(row)
            try:
                saw_null = False
                for batch in plan.batches(ctx):
                    for candidate in batch.column(0):
                        if candidate is None:
                            saw_null = True
                        elif candidate == value:
                            return not negated
                if saw_null:
                    return None
                return negated
            finally:
                ctx.outer_stack.pop()
        return run

    def _c_scalarselect(self, node: ScalarSelect):
        plan = self._plan_subquery(node.select)
        def run(row, ctx):
            ctx.outer_stack.append(row)
            try:
                found: list = []
                for batch in plan.batches(ctx):
                    found += batch.column(0)
                    if len(found) > 1:
                        raise DatabaseError(
                            "scalar subquery returned more than one row")
                return found[0] if found else None
            finally:
                ctx.outer_stack.pop()
        return run


def to_sql(node: Expr) -> str:
    """Render an expression AST as SQL-ish text (EXPLAIN output).

    The rendering is for humans: parameters print as ``?``, a literal
    slot as the literal it was built from, subqueries collapse to
    ``(subquery)``, and internal slot references print as ``#n`` (their
    position in the execution row).  An operand is parenthesized where
    :data:`PRECEDENCE` would otherwise bind it differently, so the text
    of a parsed expression parses back to the same tree.
    """
    if isinstance(node, Literal):
        if node.value is None:
            return "NULL"
        if isinstance(node.value, str):
            return "'%s'" % node.value.replace("'", "''")
        return str(node.value)
    if isinstance(node, Param):
        return "?"
    if isinstance(node, LiteralSlot):
        return to_sql(Literal(node.value))
    if isinstance(node, ColumnRef):
        return "%s.%s" % (node.table, node.name) if node.table else node.name
    if isinstance(node, Star):
        return "%s.*" % node.table if node.table else "*"
    if isinstance(node, (SlotRef, AggSlotRef)):
        return "#%d" % node.slot
    if isinstance(node, BinOp):
        level = LEVEL[node.op]          # left-associative
        return "%s %s %s" % (_operand(node.left, level), node.op,
                             _operand(node.right, level + 1))
    if isinstance(node, Compare):
        return "%s %s %s" % (_operand(node.left, _ARITHMETIC), node.op,
                             _operand(node.right, _ARITHMETIC))
    if isinstance(node, (And, Or)):
        word = _SPELLED[type(node)]
        return (" %s " % word).join(_operand(item, LEVEL[word] + 1)
                                    for item in node.items)
    if isinstance(node, Not):
        return "NOT (%s)" % to_sql(node.operand)
    if isinstance(node, Neg):
        text = _operand(node.operand, UNARY)
        return ("- " if text.startswith("-") else "-") + text
    if isinstance(node, IsNull):
        return "%s IS %sNULL" % (_operand(node.operand, _ARITHMETIC),
                                 "NOT " if node.negated else "")
    if isinstance(node, InList):
        return "%s %sIN (%s)" % (_operand(node.operand, _ARITHMETIC),
                                 "NOT " if node.negated else "",
                                 ", ".join(to_sql(i) for i in node.items))
    if isinstance(node, Between):
        return "%s %sBETWEEN %s AND %s" % (
            _operand(node.operand, _ARITHMETIC),
            "NOT " if node.negated else "",
            _operand(node.low, _ARITHMETIC), _operand(node.high, _ARITHMETIC))
    if isinstance(node, Like):
        return "%s %sLIKE %s" % (_operand(node.operand, _ARITHMETIC),
                                 "NOT " if node.negated else "",
                                 _operand(node.pattern, _ARITHMETIC))
    if isinstance(node, FuncCall):
        return "%s(%s)" % (node.name,
                           ", ".join(to_sql(a) for a in node.args))
    if isinstance(node, Aggregate):
        arg = "*" if node.arg is None else to_sql(node.arg)
        return "%s(%s%s)" % (node.func,
                             "DISTINCT " if node.distinct else "", arg)
    if isinstance(node, Case):
        parts = ["CASE"]
        for cond, value in node.whens:
            parts.append("WHEN %s THEN %s" % (to_sql(cond), to_sql(value)))
        if node.default is not None:
            parts.append("ELSE %s" % to_sql(node.default))
        parts.append("END")
        return " ".join(parts)
    if isinstance(node, Exists):
        return "%sEXISTS (subquery)" % ("NOT " if node.negated else "")
    if isinstance(node, InSelect):
        return "%s %sIN (subquery)" % (_operand(node.operand, _ARITHMETIC),
                                       "NOT " if node.negated else "")
    if isinstance(node, ScalarSelect):
        return "(subquery)"
    return repr(node)


_ARITHMETIC = LEVEL["+"]
#: The :data:`PRECEDENCE` word of each node class printed as one; an
#: operator node not here is a ``BinOp`` or a ``Compare`` (its ``op``)
#: or unary minus, and every other node is atomic.
_SPELLED = {Or: "OR", And: "AND", Not: "NOT", IsNull: "IS", InList: "IN",
            InSelect: "IN", Between: "BETWEEN", Like: "LIKE"}


def _operand(node: Expr, level: int) -> str:
    """``node`` printed where the parser reads an operand of ``level``
    of :data:`PRECEDENCE` or tighter: parenthesized when it binds more
    loosely."""
    if isinstance(node, (BinOp, Compare)):
        binds = LEVEL[node.op]
    elif type(node) in _SPELLED:
        binds = LEVEL[_SPELLED[type(node)]]
    else:
        binds = UNARY if isinstance(node, Neg) else UNARY + 1
    text = to_sql(node)
    return "(%s)" % text if binds < level else text


# ---------------------------------------------------------------------------
# Tree walks — all over Expr.children() / Expr.rebuilt()
# ---------------------------------------------------------------------------

#: Nodes that run a subquery.  Its ``Select`` is planned on its own and
#: is not a child; correlated references inside it read the enclosing
#: row through ``ctx.outer_stack``, so analyses that must know every
#: column an expression can reach treat these nodes as opaque.
SUBQUERY_NODES = (Exists, InSelect, ScalarSelect)


def walk(node: Expr) -> List[Expr]:
    """Every node of the tree, pre-order, children left to right."""
    found = [node]
    i = 0
    while i < len(found):
        children = found[i].children()
        i += 1
        if children:
            found[i:i] = children       # right after their parent
    return found


def contains_aggregate(node: Expr) -> bool:
    """True if the expression tree contains an Aggregate node."""
    for n in walk(node):
        if isinstance(n, Aggregate):
            return True
    return False


def collect_aggregates(node: Expr, out: List[Aggregate]) -> None:
    """Collect Aggregate nodes (deduplicated structurally) into ``out``,
    in pre-order — their positions become the aggregate slots.  An
    aggregate's own argument is not searched."""
    if isinstance(node, Aggregate):
        if node not in out:
            out.append(node)
        return
    for child in node.children():
        collect_aggregates(child, out)


def rewrite(node: Expr, mapping: Dict[Expr, Expr]) -> Expr:
    """Structurally replace subtrees of ``node`` per ``mapping``.

    Used by the planner to replace aggregate calls and group-by
    expressions with slot references into the post-aggregation row.
    Every subtree's key is computed once, bottom-up, so matching is
    linear in the tree's size (hashing a node would rebuild its key).
    """
    keys: Dict[int, Tuple] = {}
    for sub in reversed(walk(node)):        # every child before its parent
        below = iter([keys[id(child)] for child in sub.children()])
        keys[id(sub)] = sub.key(below) if type(sub).key is Expr.key \
            else sub.key()
    wanted = {expr.key(): new for expr, new in mapping.items()}
    return _rewrite(node, wanted, keys)


def _rewrite(node: Expr, wanted: Dict[Tuple, Expr],
             keys: Dict[int, Tuple]) -> Expr:
    found = wanted.get(keys[id(node)])
    if found is not None:
        return found
    if isinstance(node, Aggregate):
        raise DatabaseError(
            "aggregate %r used outside an aggregation context" % (node,))
    return node.rebuilt([_rewrite(child, wanted, keys)
                         for child in node.children()])
