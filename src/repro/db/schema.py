"""Table schemas and constraint definitions.

A :class:`TableSchema` is the static description of a table: columns,
primary key, uniqueness constraints, foreign keys, CHECK constraints, and
IFDB's *label constraints* (section 5.2.4).

Two IFDB-specific knobs appear on constraints:

* ``ForeignKeyConstraint.match_label`` — the paper's "simple label
  constraints as a type of foreign key constraint": the referencing
  tuple's label must equal the referenced tuple's label.  Combined with a
  uniqueness constraint this prevents polyinstantiation, because the
  required label for a key is pinned by its parent row.
* ``LabelCheckConstraint`` — an arbitrary boolean expression over the
  tuple's columns and its ``_label``, the trigger-style label constraint
  of section 5.2.4 expressed declaratively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import CatalogError, TypeError_
from .expressions import Expr
from .types import SQLType


@dataclass
class Column:
    """One column: name, SQL type, nullability, optional default value."""

    name: str
    type: SQLType
    not_null: bool = False
    default: object = None
    has_default: bool = False

    def __post_init__(self):
        if self.default is not None:
            self.has_default = True


@dataclass
class UniqueConstraint:
    name: str
    columns: Tuple[str, ...]


@dataclass
class ForeignKeyConstraint:
    """A foreign key, subject to the Foreign Key Rule (section 5.2.2)."""

    name: str
    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...]
    match_label: bool = False      # label constraint variant (section 5.2.4)


@dataclass
class CheckConstraint:
    name: str
    expr: Expr


@dataclass
class LabelCheckConstraint:
    """A constraint over the tuple's ``_label`` (and columns)."""

    name: str
    expr: Expr


class TableSchema:
    """Static description of a table."""

    def __init__(self, name: str, columns: Sequence[Column],
                 primary_key: Optional[Sequence[str]] = None,
                 uniques: Sequence[UniqueConstraint] = (),
                 foreign_keys: Sequence[ForeignKeyConstraint] = (),
                 checks: Sequence[CheckConstraint] = (),
                 label_checks: Sequence[LabelCheckConstraint] = ()):
        if not columns:
            raise CatalogError("table %r must have at least one column" % name)
        self.name = name
        self.columns: List[Column] = list(columns)
        self.positions: Dict[str, int] = {}
        for index, column in enumerate(self.columns):
            if column.name in self.positions:
                raise CatalogError(
                    "duplicate column %r in table %r" % (column.name, name))
            if column.name == "_label":
                raise CatalogError(
                    "_label is a reserved system column (section 4.2)")
            self.positions[column.name] = index
        self.primary_key: Optional[Tuple[str, ...]] = (
            tuple(primary_key) if primary_key else None)
        self.uniques: List[UniqueConstraint] = list(uniques)
        if self.primary_key:
            self.uniques.insert(0, UniqueConstraint(
                name="%s_pkey" % name, columns=self.primary_key))
        self.foreign_keys: List[ForeignKeyConstraint] = list(foreign_keys)
        self.checks: List[CheckConstraint] = list(checks)
        self.label_checks: List[LabelCheckConstraint] = list(label_checks)
        self._validate()

    def _validate(self) -> None:
        for unique in self.uniques:
            for col in unique.columns:
                if col not in self.positions:
                    raise CatalogError(
                        "unique constraint %r names unknown column %r"
                        % (unique.name, col))
        for fk in self.foreign_keys:
            for col in fk.columns:
                if col not in self.positions:
                    raise CatalogError(
                        "foreign key %r names unknown column %r"
                        % (fk.name, col))

    # -- helpers -----------------------------------------------------------
    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def position(self, name: str) -> int:
        try:
            return self.positions[name]
        except KeyError:
            raise CatalogError(
                "column %r does not exist in table %r"
                % (name, self.name)) from None

    def positions_of(self, names: Sequence[str]) -> Tuple[int, ...]:
        return tuple(self.position(n) for n in names)

    def coerce_row(self, values: Sequence) -> Tuple:
        """Type-check and coerce a full-width row; enforce NOT NULL."""
        if len(values) != len(self.columns):
            raise TypeError_(
                "table %r expects %d values, got %d"
                % (self.name, len(self.columns), len(values)))
        out = []
        for column, value in zip(self.columns, values):
            if value is None:
                if column.not_null:
                    raise TypeError_(
                        "null value in column %r of table %r violates "
                        "NOT NULL" % (column.name, self.name))
                out.append(None)
            else:
                out.append(column.type.coerce(value))
        return tuple(out)

    def coerce_at(self, values: Sequence,
                  positions: Sequence[int]) -> Tuple:
        """Type-check and coerce only the columns at ``positions`` of a
        full-width row whose other values already passed
        :meth:`coerce_row` (an UPDATE's stored version with its SET
        columns replaced); enforce NOT NULL on those columns."""
        out = list(values)
        columns = self.columns
        for position in positions:
            value = out[position]
            if value is not None:
                out[position] = columns[position].type.coerce(value)
            elif columns[position].not_null:
                raise TypeError_(
                    "null value in column %r of table %r violates "
                    "NOT NULL" % (columns[position].name, self.name))
        return tuple(out)

    def row_data_size(self, values: Sequence) -> int:
        """Byte size of the data payload (labels accounted separately)."""
        total = 0
        for column, value in zip(self.columns, values):
            if value is None:
                total += 1
            else:
                total += column.type.size_of(value)
        return total
