"""Immutable information-flow labels.

A label is a set of tags (section 3.1).  Tuple labels are immutable and
assigned at creation; process labels are replaced wholesale by explicit
operations on :class:`~repro.core.process.IFCProcess`.  ``Label`` *is* a
``frozenset`` of integer tag ids (a stateless subclass), so it is
hashable, can be interned, used as a dict key, and stored unchanged in
tuples — and every hash, dict probe and subset test runs in C.

Subset comparisons in the presence of *compound tags* need the authority
state to expand compounds into their member closure, so the comparison
predicates live in :mod:`repro.core.rules` and take the tag registry as an
argument.  The raw set operations here are registry-free.

Labels are *interned*: constructing a label whose tag set was seen
before returns the existing instance, so equal labels are identical
objects.  This makes dict lookups on labels (the memoized ``covers``
cache in :mod:`repro.core.rules`, scan-level visibility checks)
identity-fast, and lets set algebra return ``self`` aggressively.  The
intern table is capped; past the cap, fresh (non-identical but still
equal) instances are handed out, so correctness never depends on
interning.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

_INTERNED: Dict[FrozenSet[int], "Label"] = {}
_INTERN_CAP = 1 << 20
#: ``Label.union`` answers by operand pair; like the ``covers``/``strip``
#: memos in :mod:`repro.core.rules` it stops inserting at its cap.
_UNIONS: Dict[Tuple["Label", "Label"], "Label"] = {}
_UNION_CAP = 1 << 16


class Label(frozenset):
    """An immutable, interned set of tag ids.

    A ``frozenset`` subclass with no state of its own, so hashing (the
    set's cached hash), containment, iteration and ``issubset`` all
    run in C: a label is hashed and tested millions of times by a
    scan's label dictionary and the folds above it.  Set *operators*
    (``|``, ``&``, ``-``, ``^``) return plain frozensets; the named
    methods below return labels.

    Labels have **no order**: a set's ``<`` is proper-subset, a partial
    order that ``sorted``/``heapq``/``MIN`` would silently mis-sort
    by, so ``<`` and ``>`` are refused (``TypeError``) and ORDER BY
    falls back to its type-tolerant total order, as for any other
    unorderable value.  Overriding any comparison routes the others
    through a Python-level slot, so hot paths ask ``a.issubset(b)``
    (a plain C method), not ``a <= b``.
    """

    __slots__ = ()

    def __lt__(self, other):
        return NotImplemented

    __gt__ = __lt__

    def __new__(cls, tags: Iterable[int] = ()):
        tags = tags if type(tags) is frozenset else frozenset(tags)
        existing = _INTERNED.get(tags)
        if existing is not None:
            return existing
        self = super().__new__(cls, tags)
        if len(_INTERNED) < _INTERN_CAP:
            # Keyed by the plain set: a probe compares it with a plain
            # set, in C, not through Label's comparison slot.
            _INTERNED[tags] = self
        return self

    def __reduce__(self):
        # Rebuild through the constructor so pickling (used by the
        # dump/restore tooling) round-trips through the intern table:
        # an unpickled label is identical to the live one.
        return (Label, (tuple(self),))

    @property
    def tags(self) -> FrozenSet[int]:
        return self

    def __repr__(self) -> str:
        if not self:
            return "Label({})"
        inner = ", ".join(str(t) for t in sorted(self))
        return "Label({%s})" % inner

    # -- set algebra (registry-free; see rules.py for compound-aware) --
    def union(self, other: "Label | Iterable[int]") -> "Label":
        """Return the label containing the tags of both: an operand
        that already covers the other is the answer itself, and any
        other pair is remembered (bounded like the rule caches), so a
        fold that meets the same two labels again builds no set."""
        other = other if isinstance(other, Label) else Label(other)
        joined = _UNIONS.get((self, other))
        if joined is not None:
            return joined
        if other.issubset(self):
            return self
        if self.issubset(other):
            return other
        joined = Label(frozenset.union(self, other))
        if len(_UNIONS) < _UNION_CAP:
            _UNIONS[self, other] = joined
        return joined

    def with_tag(self, tag: int) -> "Label":
        """Return a new label with ``tag`` added."""
        if tag in self:
            return self
        return Label(self | {tag})

    def without(self, tags: "Label | Iterable[int]") -> "Label":
        """Return a new label with ``tags`` removed (plain set difference)."""
        remaining = self.difference(tags)
        return self if len(remaining) == len(self) else Label(remaining)

    def intersection(self, other: "Label | Iterable[int]") -> "Label":
        return Label(frozenset.intersection(self, other))

    def byte_size(self) -> int:
        """Storage footprint: 4 bytes per tag (section 8.3), 1 length byte.

        The paper stores the label length in a previously unused header
        byte, so an empty label costs nothing extra; each tag adds four
        bytes to the tuple.
        """
        return 4 * len(self)


#: The empty (public) label.  The outside world has this label (section 3.2).
EMPTY_LABEL = Label()


def as_label(value) -> Label:
    """Coerce ``value`` (Label, iterable of ids, or None) to a Label."""
    if isinstance(value, Label):
        return value
    if value is None:
        return EMPTY_LABEL
    return Label(value)
