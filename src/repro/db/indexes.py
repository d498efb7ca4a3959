"""Secondary indexes: hash (equality) and ordered (range) indexes.

Indexes map key values to tuple ids; they contain entries for *all*
versions, and lookups filter by MVCC visibility and by label afterwards —
exactly how the paper's prototype reuses PostgreSQL's indexes, which
"already had to be prepared to deal with multiple versions" (section 7.1).
This is also why polyinstantiation needed no special support: a unique
index may legitimately hold several live tids for one key, distinguished
only by label.

The paper notes (section 7.1) that IFDB does *not* provide label-inverted
indexes; neither do we: a lookup returns every candidate's tid as a
list, and the scan leaf filters the candidates' labels afterwards
(:func:`repro.db.physical._visible_segment`) — for an index join, all
of an outer batch's candidates in one pass.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from ..core.counters import tally


class HashIndex:
    """Equality index: key tuple -> list of tids.

    A key holding a NaN is held with :data:`_NAN_KEY` in its place, so
    no lookup meets it — as ``x = NaN`` matches nothing in a filter —
    even asked with the very NaN object the row holds (a dict compares
    keys by identity first)."""

    def __init__(self, name: str, columns: Sequence[str],
                 positions: Sequence[int], unique: bool = False):
        self.name = name
        self.columns = tuple(columns)
        self.positions = tuple(positions)
        self.unique = unique
        self._map: Dict[Tuple, List[int]] = {}
        self._gather = itemgetter(*positions)

    def key_of(self, values: Tuple) -> Tuple:
        positions = self.positions
        if len(positions) == 1:            # itemgetter(p) is not a tuple
            key = (values[positions[0]],)
        else:
            key = self._gather(values)
        for value in key:
            if value != value:             # a NaN: unequal to itself
                return tuple(_NAN_KEY if v != v else v for v in key)
        return key

    def insert(self, values: Tuple, tid: int) -> None:
        self._map.setdefault(self.key_of(values), []).append(tid)

    def lookup(self, key: Tuple) -> List[int]:
        tally().lookups += 1
        return self._map.get(key, [])

    def remove(self, values: Tuple, tid: int) -> None:
        """Physically drop an entry (version reclamation only; MVCC
        never needs this)."""
        key = self.key_of(values)
        tids = self._map.get(key)
        if tids and tid in tids:
            tids.remove(tid)
            if not tids:
                del self._map[key]

    def __len__(self) -> int:
        return sum(len(v) for v in self._map.values())


class OrderedIndex:
    """Sorted index supporting prefix and range lookups (B-tree
    stand-in).

    Entries are ``(key, tid)`` kept sorted; inserts use bisection.  Keys
    must be homogeneous per column so Python comparison is total; a
    NULL is held as :data:`_NULL_KEY`, which sorts before every value,
    and a NaN, which compares false with everything, as
    :data:`_NAN_KEY`, which sorts after every number.  A lookup or
    range scan is two bisections and a slice: the first entry at or
    past the lower bound, the first past the upper one, and the tids
    between them as a list.  Neither ever matches a NULL, as no SQL
    comparison does.
    """

    def __init__(self, name: str, columns: Sequence[str],
                 positions: Sequence[int], unique: bool = False):
        self.name = name
        self.columns = tuple(columns)
        self.positions = tuple(positions)
        self.unique = unique
        self._entries: List[Tuple[Tuple, int]] = []
        self._gather = itemgetter(*positions)

    def key_of(self, values: Tuple) -> Tuple:
        positions = self.positions
        if len(positions) == 1:            # itemgetter(p) is not a tuple
            key = (values[positions[0]],)
        else:
            key = self._gather(values)
        for value in key:
            if value is None or value != value:   # NULL, or a NaN
                return tuple(_NULL_KEY if v is None
                             else _NAN_KEY if v != v else v for v in key)
        return key

    def insert(self, values: Tuple, tid: int) -> None:
        bisect.insort(self._entries, (self.key_of(values), tid))

    def remove(self, values: Tuple, tid: int) -> None:
        entry = (self.key_of(values), tid)
        idx = bisect.bisect_left(self._entries, entry)
        if idx < len(self._entries) and self._entries[idx] == entry:
            del self._entries[idx]

    def lookup(self, prefix: Tuple) -> List[int]:
        """Tids whose key starts with ``prefix``, in key order (an exact
        match when the prefix covers every indexed column).  A NULL in
        the prefix matches nothing; nor does a NaN: every entry it meets
        compares false, so both bisections stop at the same place; nor
        does a value that does not compare with the column's (TEXT
        against INT), which SQL's ``=`` finds equal to none of them."""
        tally().lookups += 1
        if None in prefix:
            return []
        entries = self._entries
        try:
            start = bisect.bisect_left(entries, (prefix,))
            end = bisect.bisect_left(entries, (prefix + (_SENTINEL,),),
                                     start)
        except TypeError:
            return []
        return list(map(_TID, entries[start:end]))

    def scan_range(self, prefix: Tuple, low=None, high=None, *,
                   include_low: bool = True,
                   include_high: bool = True) -> List[int]:
        """Tids whose key starts with ``prefix`` and whose next column
        lies between ``low`` and ``high``, in key order.  A bound is
        optional (``None``) and exclusive when its ``include_`` flag is
        unset; as in SQL, a NaN bound admits nothing, a NaN in the
        column meets no bound (it sorts last, so a lower bound alone
        stops at ``_NAN_KEY``), and a NULL in the column meets none
        either (it sorts first, so a range without a lower bound starts
        past the NULLs), nor does a NULL in the prefix.  A prefix or
        bound that does not compare with the keys a bisection meets
        raises ``TypeError``: whether SQL raises for it or matches
        nothing depends on which rows are visible, which only the scan
        knows (:class:`~repro.db.physical.IndexRangeScan`)."""
        tally().range_scans += 1
        if low != low or high != high or None in prefix:
            return []
        entries = self._entries
        if low is None:
            start = bisect.bisect_left(entries,
                                       (prefix + (_NULL_KEY, _SENTINEL),))
        else:
            start = bisect.bisect_left(entries, (
                prefix + (low,) if include_low
                else prefix + (low, _SENTINEL),))
        if high is not None:
            upper = prefix + (high, _SENTINEL) if include_high \
                else prefix + (high,)
        elif low is not None:
            upper = prefix + (_NAN_KEY,)
        else:
            upper = prefix + (_SENTINEL,)
        end = bisect.bisect_left(entries, (upper,), start)
        return list(map(_TID, entries[start:end]))

    def __len__(self) -> int:
        return len(self._entries)


class _Sentinel:
    """Compares greater than everything: ``bound + (_SENTINEL,)`` sorts
    after every key that starts with ``bound`` — past an exclusive lower
    bound or an inclusive upper one, or a lookup's prefix."""

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return True


class _NullKey:
    """A NULL as an ordered index holds it: equal only to itself and
    before every other key, so insertion and removal bisect one total
    order and a range starts past it."""

    def __lt__(self, other):
        return other is not self

    def __gt__(self, other):
        return False


class _NaNKey:
    """A NaN as an ordered index holds it: equal only to itself, after
    every number and before :data:`_SENTINEL`, so insertion and removal
    bisect one total order."""

    def __lt__(self, other):
        return other is _SENTINEL

    def __gt__(self, other):
        return other is not self and other is not _SENTINEL


_SENTINEL = _Sentinel()
_NULL_KEY = _NullKey()
_NAN_KEY = _NaNKey()
_TID = itemgetter(1)
