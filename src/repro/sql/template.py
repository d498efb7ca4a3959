"""Statement templates: each statement shape is parsed once.

Texts that differ only in their literals — an application that inlines
``WHERE id = 7`` here and ``WHERE id = 9`` there — share a *shape*
(:func:`shape`): the token stream's fingerprint plus each literal
token's kind, so ``'1'`` and ``1`` are different shapes.  The first
text of a shape is parsed, and its parse records which ``Literal`` node
came from which token (``Parser.slots``); a :class:`Template` compiles
that tree into a binder.  Every later text of the shape is only lexed:
the binder builds its statement from the template and the text's own
tokens, and the result equals a fresh parse of the text.

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
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from ..db import expressions as ex
from .lexer import LITERALS, NUMBER, STRING, Token, fingerprint

#: ``bind(tokens)`` → a node built with the literals of ``tokens``.
Binder = Callable[[List[Token]], object]


def shape(tokens: List[Token]) -> tuple:
    """What a template is keyed on: the fingerprint of ``tokens`` and
    the kind of each literal in them."""
    return (fingerprint(tokens),
            tuple([token.kind for token in tokens if token.kind in LITERALS]))


class Template:
    """The parse of one statement shape, ready to bind any text of it."""

    __slots__ = ("bind", "raw")

    def __init__(self, statement, tokens: List[Token],
                 slots: Dict[int, ex.Literal]):
        index_of = {id(node): index for index, node in slots.items()}
        #: The statement of a text of this shape: a copy of ``statement``
        #: with the text's literals in its slots — a copy even with no
        #: slot, so the parsed tree is never handed out.
        self.bind: Binder = (_binder(statement, index_of)
                             or _copier(statement, []))
        #: ``(token index, value)`` of each literal read as a raw value.
        self.raw = tuple((index, token.value)
                         for index, token in enumerate(tokens)
                         if token.kind in (NUMBER, STRING)
                         and index not in slots)

    def fits(self, tokens: List[Token]) -> bool:
        """Do ``tokens``, of this shape, carry the raw values the
        template was parsed with?  Types count: ``DEFAULT 1`` is not
        ``DEFAULT 1.0``."""
        for index, value in self.raw:
            other = tokens[index].value
            if other != value or type(other) is not type(value):
                return False
        return True


def _attributes(node) -> list:
    """``(name, value)`` of every attribute of a statement or an
    expression node; none for anything else (a name, a flag, a value)."""
    if isinstance(node, ex.Expr):
        return [(name, getattr(node, name)) for cls in type(node).__mro__
                for name in cls.__dict__.get("__slots__", ())]
    if dataclasses.is_dataclass(node):
        return list(vars(node).items())
    return []


def _binder(node, index_of: Dict[int, int]) -> Optional[Binder]:
    """What rebuilds ``node`` with its slots bound, or ``None`` when it
    holds no slot and is shared as it is."""
    if type(node) is ex.Literal:
        index = index_of.get(id(node))
        if index is None:
            return None
        return lambda tokens: ex.Literal(tokens[index].value)
    if type(node) in (list, tuple):
        parts = [(i, part) for i, part in enumerate(
            [_binder(item, index_of) for item in node]) if part is not None]
        if not parts:
            return None
        as_list = type(node) is list

        def bind_items(tokens):
            items = list(node)
            for i, part in parts:
                items[i] = part(tokens)
            return items if as_list else tuple(items)
        return bind_items
    parts = [(name, part) for name, value in _attributes(node)
             for part in [_binder(value, index_of)] if part is not None]
    return _copier(node, parts) if parts else None


def _copier(node, parts: list) -> Binder:
    """A binder for a shallow copy of ``node`` whose attributes in
    ``parts`` — ``(name, binder)`` — are bound."""
    cls = type(node)
    bound = dict(parts)
    fields = [(name, bound.get(name), value)
              for name, value in _attributes(node)]
    new = object.__new__

    def bind_node(tokens):
        copy = new(cls)
        for name, part, value in fields:
            setattr(copy, name, value if part is None else part(tokens))
        return copy
    return bind_node
