"""Statement templates: each statement shape is parsed once.

Texts that differ only in their literals — an application that inlines
``WHERE id = 7`` here and ``WHERE id = 9`` there — share a *shape key*
(:func:`repro.sql.lexer.shape_key`): the text's lexemes with each
number and string literal replaced by a marker of its kind, so ``'1'``
and ``1`` are different shapes, and so are ``"a b"`` and ``a b``.  The
first text of a shape is parsed, and its parse records which
``Literal`` node came from which token (``Parser.slots``); a
:class:`Template` compiles that tree into a binder.  Every later text
of the shape is only lexed: the template reads the text's literal
values from its lexemes (:meth:`Template.values`), the binder builds
its statement from the template and those values, and the result
equals a fresh parse of the text.

The binder rebuilds the *spine* — the root, and every node on a path
from it to a slot — and shares each subtree that holds no slot with the
template and with every statement bound from it (nothing mutates a
parsed tree).  It walks a node's attributes, not ``Expr.children()``,
so it reaches the ``Select`` under ``EXISTS``, ``IN (SELECT …)`` and a
scalar subquery.

A literal token the parser read as a raw value — a type length, a
``DEFAULT``, a ``DECLASSIFYING`` tag name — made no node, so it is no
slot: the template keeps its value (:attr:`Template.raw`), and a text
that differs there does not fit and is parsed afresh.

**Plan keys.**  A SELECT, INSERT, UPDATE or DELETE (or an EXPLAIN of
one) is planned once per *plan key* (:meth:`Template.plan_key`), not
once per text.  The key is the template, the values of the literals
the planner reads itself — an ORDER BY ordinal, a LIMIT or OFFSET
count, an operand of an operator it folds (``id = 3 + 4``) — with
their types, and which of the other literals are equal in value and
type.  Each of those
others becomes a :class:`~repro.db.expressions.LiteralSlot` of the
statement the key is planned from (:meth:`Template.generic`), read at
execution time from the text's own values like a ``?`` parameter.
Equal literals get equal slots, so a select item still matches its
GROUP BY expression.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from ..db import expressions as ex
from . import ast

#: ``bind(leaves)`` → a node built with the leaves in its slots: the
#: literal values of a text, or the nodes of a statement planned for a
#: plan key, each by lexeme index.
Binder = Callable[[object], object]

#: The statements planned once per plan key.
PLANNED = (ast.Select, ast.Insert, ast.Update, ast.Delete)


class Template:
    """The parse of one statement shape, ready to bind any text of it."""

    __slots__ = ("bind", "literals", "raw", "pinned", "free", "_generic")

    def __init__(self, statement, key: tuple, found: List[str],
                 slots: Dict[int, ex.Literal]):
        """``statement`` parsed from the lexemes ``found``, of shape
        ``key``, with ``slots`` from its parse."""
        index_of = {id(node): index for index, node in slots.items()}
        #: The statement of a text of this shape: a copy of ``statement``
        #: with the text's literals in its slots — a copy even with no
        #: slot, so the parsed tree is never handed out.
        self.bind: Binder = _copier_of(statement, index_of, _literal)
        #: ``(lexeme index, reader)`` of each literal: where a text's
        #: literal values are and how each is read.
        self.literals = tuple((index, read) for index, read in enumerate(key)
                              if not isinstance(read, str))
        #: ``(lexeme index, value)`` of each literal read as a raw value.
        self.raw = tuple((index, read(found[index]))
                         for index, read in self.literals
                         if index not in slots)
        #: Lexeme indices of the literals whose values go into the plan
        #: key, and of the literals that become slots; ``None`` for a
        #: statement not planned by key.
        self.pinned = self.free = self._generic = None
        inner = statement.statement if isinstance(statement, ast.Explain) \
            else statement
        if isinstance(inner, PLANNED):
            read = set()
            _read_by_planner(statement, read)
            self.pinned = tuple(sorted(index for index, node in slots.items()
                                       if id(node) in read))
            self.free = tuple(sorted(set(slots) - set(self.pinned)))
            self._generic = _copier_of(statement, index_of, _node)

    def values(self, found: List[str]) -> Optional[Dict[int, object]]:
        """``{lexeme index: value}`` of the literals of the lexemes
        ``found``, of this shape — or ``None`` when they do not carry
        the raw values the template was parsed with.  Types count:
        ``DEFAULT 1`` is not ``DEFAULT 1.0``."""
        values = {index: read(found[index]) for index, read in self.literals}
        for index, value in self.raw:
            other = values[index]
            if other != value or type(other) is not type(value):
                return None
        return values

    def plan_key(self, values: Dict[int, object]
                 ) -> Optional[Tuple[tuple, tuple]]:
        """``(plan key, slot values)`` of a text of this template, from
        its literal ``values`` — the key ``(template, (value, type) of
        each pinned literal, the equality class of each slot)`` and the
        slots' values in lexeme order — or ``None`` for a statement not
        planned by key.  A class is a value and its type, as literals
        match as expressions: ``1``, ``1.0`` and ``TRUE`` are three."""
        if self.free is None:
            return None
        pinned = tuple([(values[i], type(values[i])) for i in self.pinned])
        free = tuple([values[i] for i in self.free])
        classes: dict = {}
        return (self, pinned, tuple([
            classes.setdefault((type(value), value), len(classes))
            for value in free])), free

    def generic(self, key: tuple, values: tuple):
        """The statement every text of ``key`` is planned as: the
        pinned literals in place and a ``LiteralSlot`` for each other
        literal, showing ``values`` (the text it is built for)."""
        _template, pinned, classes = key
        nodes = {index: ex.Literal(value)
                 for index, (value, _type) in zip(self.pinned, pinned)}
        for slot, (index, cls, value) in enumerate(
                zip(self.free, classes, values)):
            nodes[index] = ex.LiteralSlot(slot, cls, value)
        return self._generic(nodes)


def _attributes(node) -> list:
    """``(name, value)`` of every attribute of a statement or an
    expression node; none for anything else (a name, a flag, a value).
    A node's attributes are its ``__slots__``, the declaration its
    ``key``, ``children`` and ``rebuilt`` read too."""
    if isinstance(node, ex.Expr):
        return [(name, getattr(node, name)) for name in node.__slots__]
    if dataclasses.is_dataclass(node):
        return list(vars(node).items())
    return []


def _literal(index: int) -> Binder:
    """The slot at lexeme ``index`` bound from a text's literal values."""
    return lambda values: ex.Literal(values[index])


def _node(index: int) -> Binder:
    """The slot at lexeme ``index`` bound from ``{lexeme index: node}``."""
    return lambda nodes: nodes[index]


def _folds(node) -> bool:
    """Is ``node`` a literal, or an operator the optimizer folds over
    operands that fold?"""
    return type(node) is ex.Literal or (
        isinstance(node, ex.FOLDABLE) and all(map(_folds, node.children())))


def _read_by_planner(node, read: set) -> None:
    """Add to ``read`` the ids of the nodes under ``node`` whose value
    the planner reads if they are literals: an ORDER BY item (an
    ordinal is a position), a LIMIT and an OFFSET (they size the Limit
    and TopN estimates), and every literal of an operator the optimizer
    folds."""
    if isinstance(node, ex.Expr) and node.children() and _folds(node):
        read.update(id(leaf) for leaf in ex.walk(node))
        return
    if isinstance(node, ast.OrderItem):
        read.add(id(node.expr))
    elif isinstance(node, ast.Select):
        read.update((id(node.limit), id(node.offset)))
    items = node if type(node) in (list, tuple) \
        else [value for _name, value in _attributes(node)]
    for item in items:
        _read_by_planner(item, read)


def _copier_of(node, index_of: Dict[int, int], leaf) -> Binder:
    """A binder for a copy of the statement ``node`` — even with no
    slot, so the parsed tree is never handed out — whose slots are
    bound by ``leaf(lexeme index)``."""
    return _binder(node, index_of, leaf) or _copier(node, [])


def _binder(node, index_of: Dict[int, int], leaf) -> Optional[Binder]:
    """What rebuilds ``node`` with its slots bound by ``leaf``, or
    ``None`` when it holds no slot and is shared as it is."""
    if type(node) is ex.Literal:
        index = index_of.get(id(node))
        return None if index is None else leaf(index)
    if type(node) in (list, tuple):
        parts = [(i, part) for i, part in enumerate(
            [_binder(item, index_of, leaf) for item in node])
            if part is not None]
        if not parts:
            return None
        as_list = type(node) is list

        def bind_items(leaves):
            items = list(node)
            for i, part in parts:
                items[i] = part(leaves)
            return items if as_list else tuple(items)
        return bind_items
    parts = [(name, part) for name, value in _attributes(node)
             for part in [_binder(value, index_of, leaf)] if part is not None]
    return _copier(node, parts) if parts else None


def _copier(node, parts: list) -> Binder:
    """A binder for a shallow copy of ``node`` whose attributes in
    ``parts`` — ``(name, binder)`` — are bound."""
    cls = type(node)
    bound = dict(parts)
    fields = [(name, bound.get(name), value)
              for name, value in _attributes(node)]
    new = object.__new__

    def bind_node(leaves):
        copy = new(cls)
        for name, part, value in fields:
            setattr(copy, name, value if part is None else part(leaves))
        return copy
    return bind_node
