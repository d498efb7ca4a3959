"""Immutable information-flow labels.

A label is a set of tags (section 3.1).  Tuple labels are immutable and
assigned at creation; process labels are replaced wholesale by explicit
operations on :class:`~repro.core.process.IFCProcess`.  ``Label`` is a thin
immutable wrapper over a ``frozenset`` of integer tag ids, hashable so it
can be interned, used as a dict key, and stored unchanged in tuples.

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

from typing import Dict, FrozenSet, Iterable, Iterator

_INTERNED: Dict[FrozenSet[int], "Label"] = {}
_INTERN_CAP = 1 << 20


class Label:
    """An immutable, interned set of tag ids."""

    __slots__ = ("_tags", "_hash")

    def __new__(cls, tags: Iterable[int] = ()):
        tags = tags if type(tags) is frozenset else frozenset(tags)
        existing = _INTERNED.get(tags)
        if existing is not None:
            return existing
        self = super().__new__(cls)
        object.__setattr__(self, "_tags", tags)
        object.__setattr__(self, "_hash", hash(tags))
        if len(_INTERNED) < _INTERN_CAP:
            _INTERNED[tags] = self
        return self

    # -- immutability -------------------------------------------------
    def __setattr__(self, name, value):
        raise AttributeError("Label instances are immutable")

    def __reduce__(self):
        # Rebuild through the constructor so pickling (used by the
        # dump/restore tooling) round-trips through the intern table:
        # an unpickled label is identical to the live one.
        return (Label, (tuple(self._tags),))

    # -- basic protocol -----------------------------------------------
    @property
    def tags(self) -> FrozenSet[int]:
        return self._tags

    def __contains__(self, tag: int) -> bool:
        return tag in self._tags

    def __iter__(self) -> Iterator[int]:
        return iter(self._tags)

    def __len__(self) -> int:
        return len(self._tags)

    def __bool__(self) -> bool:
        return bool(self._tags)

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if isinstance(other, Label):
            return self._tags == other._tags
        if isinstance(other, (set, frozenset)):
            return self._tags == other
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._tags:
            return "Label({})"
        inner = ", ".join(str(t) for t in sorted(self._tags))
        return "Label({%s})" % inner

    # -- set algebra (registry-free; see rules.py for compound-aware) --
    def union(self, other: "Label | Iterable[int]") -> "Label":
        """Return a new label containing the tags of both."""
        if other is self:           # interned: equal labels are identical
            return self
        other_tags = other.tags if isinstance(other, Label) else frozenset(other)
        if other_tags <= self._tags:
            return self
        return Label(self._tags | other_tags)

    def with_tag(self, tag: int) -> "Label":
        """Return a new label with ``tag`` added."""
        if tag in self._tags:
            return self
        return Label(self._tags | {tag})

    def without(self, tags: "Label | Iterable[int]") -> "Label":
        """Return a new label with ``tags`` removed (plain set difference)."""
        other_tags = tags.tags if isinstance(tags, Label) else frozenset(tags)
        if not (other_tags & self._tags):
            return self
        return Label(self._tags - other_tags)

    def intersection(self, other: "Label | Iterable[int]") -> "Label":
        other_tags = other.tags if isinstance(other, Label) else frozenset(other)
        return Label(self._tags & other_tags)

    def issubset(self, other: "Label") -> bool:
        """Plain subset test, ignoring compound-tag expansion."""
        return self._tags <= other.tags

    def byte_size(self) -> int:
        """Storage footprint: 4 bytes per tag (section 8.3), 1 length byte.

        The paper stores the label length in a previously unused header
        byte, so an empty label costs nothing extra; each tag adds four
        bytes to the tuple.
        """
        return 4 * len(self._tags)


#: The empty (public) label.  The outside world has this label (section 3.2).
EMPTY_LABEL = Label()


def as_label(value) -> Label:
    """Coerce ``value`` (Label, iterable of ids, or None) to a Label."""
    if isinstance(value, Label):
        return value
    if value is None:
        return EMPTY_LABEL
    return Label(value)
