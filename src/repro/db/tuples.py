"""Tuple versions.

Every row in a table is stored as a chain of immutable *versions*, the
MVCC representation the paper leans on (section 7.1): updates write a new
version, deletes stamp ``xmax``, and visibility rules pick the right
version per snapshot.  IFDB's label checks hook exactly this layer — the
same place PostgreSQL decides which versions are live — so bugs in higher
layers (parser, planner) cannot bypass them.

Each version carries its immutable secrecy and integrity labels.  The
size in bytes (used by the page model) includes 4 bytes per secrecy tag,
matching section 8.3's accounting.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.labels import EMPTY_LABEL, Label

#: Fixed per-version header: tid, xmin, xmax, flags + the label-length
#: byte the paper squeezes into previously unused alignment space.
TUPLE_HEADER_BYTES = 24


class TupleVersion:
    """One version of a row.  Everything but ``xmax`` is fixed at
    construction (``page_id`` by the heap's append, which constructs
    it); ``xmax`` is written only by
    :meth:`repro.db.storage.Table.stamp`, so the heap knows when a
    segment summary built over this version has gone stale."""

    __slots__ = ("tid", "xmin", "xmax", "values", "label", "ilabel",
                 "page_id", "size")

    def __init__(self, tid: int, xmin: int, values: Tuple,
                 label: Label = EMPTY_LABEL, ilabel: Label = EMPTY_LABEL,
                 data_size: int = 0, store_label: bool = True):
        self.tid = tid
        self.xmin = xmin
        self.xmax: Optional[int] = None
        self.values = values
        self.label = label
        self.ilabel = ilabel
        self.page_id = -1          # assigned by the heap on insert
        label_bytes = label.byte_size() if store_label else 0
        self.size = TUPLE_HEADER_BYTES + data_size + label_bytes

    def __repr__(self) -> str:
        return ("TupleVersion(tid=%d, xmin=%d, xmax=%r, values=%r, label=%r)"
                % (self.tid, self.xmin, self.xmax, self.values, self.label))
