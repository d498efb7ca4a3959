"""SQL value types.

The engine supports the types the paper's applications and benchmarks
need: integers, floats/numerics, text, booleans, timestamps, and the
special ``LABEL`` type backing the ``_label`` system column (stored as an
``INT[]`` in the paper, section 4.2).

Each type knows how to coerce Python values and how many bytes a value
occupies in the storage model.  Sizes matter: the on-disk benchmark
configuration (Figure 6) depends on tuple sizes determining how many
tuples fit on a page.
"""

from __future__ import annotations

import datetime
import numbers
from typing import Any, Optional

from ..core.labels import Label
from ..errors import TypeError_


class SQLType:
    """Base class for SQL types."""

    name = "UNKNOWN"

    def coerce(self, value: Any) -> Any:
        raise NotImplementedError

    def size_of(self, value: Any) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class IntType(SQLType):
    name = "INT"

    def coerce(self, value):
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                pass
        raise TypeError_("cannot coerce %r to INT" % (value,))

    def size_of(self, value):
        return 8


class FloatType(SQLType):
    name = "REAL"

    def coerce(self, value):
        if type(value) is float:
            return value
        if isinstance(value, int):      # a bool too; no ABC check
            return float(value)
        if isinstance(value, numbers.Real):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                pass
        raise TypeError_("cannot coerce %r to REAL" % (value,))

    def size_of(self, value):
        return 8


class NumericType(FloatType):
    """NUMERIC/DECIMAL: stored as float; precision is a display concern."""

    name = "NUMERIC"


class TextType(SQLType):
    name = "TEXT"

    def __init__(self, max_length: Optional[int] = None):
        self.max_length = max_length

    def coerce(self, value):
        if isinstance(value, str):
            text = value
        elif isinstance(value, (int, float)):
            text = str(value)
        else:
            raise TypeError_("cannot coerce %r to TEXT" % (value,))
        if self.max_length is not None and len(text) > self.max_length:
            raise TypeError_(
                "value of length %d exceeds VARCHAR(%d)"
                % (len(text), self.max_length))
        return text

    def size_of(self, value):
        return 4 + len(value)

    def __eq__(self, other):
        return isinstance(other, TextType)

    def __hash__(self):
        return hash(TextType)

    def __repr__(self):
        if self.max_length is not None:
            return "VARCHAR(%d)" % self.max_length
        return self.name


class BoolType(SQLType):
    name = "BOOLEAN"

    def coerce(self, value):
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str):
            lowered = value.lower()
            if lowered in ("t", "true", "1", "yes"):
                return True
            if lowered in ("f", "false", "0", "no"):
                return False
        raise TypeError_("cannot coerce %r to BOOLEAN" % (value,))

    def size_of(self, value):
        return 1


class TimestampType(SQLType):
    """Timestamps are stored as float seconds since the epoch.

    Accepts datetimes, numbers, and ISO-format strings.  Simulated-time
    benchmarks pass floats straight through.
    """

    name = "TIMESTAMP"

    def coerce(self, value):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        if isinstance(value, datetime.datetime):
            return value.timestamp()
        if isinstance(value, str):
            try:
                return datetime.datetime.fromisoformat(value).timestamp()
            except ValueError:
                pass
        raise TypeError_("cannot coerce %r to TIMESTAMP" % (value,))

    def size_of(self, value):
        return 8


class LabelType(SQLType):
    """The type of the ``_label`` system column (INT[] in the paper)."""

    name = "LABEL"

    def coerce(self, value):
        if isinstance(value, Label):
            return value
        if isinstance(value, (set, frozenset, tuple, list)):
            return Label(value)
        raise TypeError_("cannot coerce %r to LABEL" % (value,))

    def size_of(self, value):
        return value.byte_size()


#: Singleton instances (TextType with a length limit is created ad hoc).
INT = IntType()
FLOAT = FloatType()
NUMERIC = NumericType()
TEXT = TextType()
BOOL = BoolType()
TIMESTAMP = TimestampType()
LABEL = LabelType()

_BY_NAME = {
    "INT": INT, "INTEGER": INT, "BIGINT": INT, "SMALLINT": INT,
    "SERIAL": INT,
    "REAL": FLOAT, "FLOAT": FLOAT, "DOUBLE": FLOAT,
    "NUMERIC": NUMERIC, "DECIMAL": NUMERIC,
    "TEXT": TEXT, "VARCHAR": TEXT, "CHAR": TEXT, "STRING": TEXT,
    "BOOLEAN": BOOL, "BOOL": BOOL,
    "TIMESTAMP": TIMESTAMP, "DATETIME": TIMESTAMP,
    "LABEL": LABEL,
}


def type_by_name(name: str, length: Optional[int] = None) -> SQLType:
    """Resolve a SQL type name (as written in DDL) to a type object."""
    try:
        base = _BY_NAME[name.upper()]
    except KeyError:
        raise TypeError_("unknown SQL type %r" % name) from None
    if length is not None and isinstance(base, TextType):
        return TextType(max_length=length)
    return base
