"""Exception hierarchy for the IFDB reproduction.

Every error raised by the public API derives from :class:`ReproError`, so
applications can catch a single base class.  Information-flow failures are
separated from ordinary database errors because the two are handled very
differently: an :class:`IFCViolation` generally means untrusted code tried
to do something the security policy forbids, and the paper's model requires
that such failures not leak information beyond their occurrence.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Information flow control errors (repro.core)
# ---------------------------------------------------------------------------

class IFCError(ReproError):
    """Base class for information-flow-control errors."""


class IFCViolation(IFCError):
    """An operation would violate the information flow rules.

    Raised for attempts to release contaminated data, write below the
    process label, or commit a transaction whose commit label exceeds the
    label of a tuple in its write set.
    """


class AuthorityError(IFCError):
    """The acting principal lacks authority for the requested operation."""


class ClearanceError(IFCError):
    """The transaction clearance rule forbids raising the label.

    Only enforced for serializable transactions (section 5.1 of the
    paper); snapshot-isolation transactions are exempt.
    """


class UnknownTagError(IFCError):
    """A tag id or name does not exist in the authority state."""


class UnknownPrincipalError(IFCError):
    """A principal id or name does not exist in the authority state."""


# ---------------------------------------------------------------------------
# Database errors (repro.db, repro.sql)
# ---------------------------------------------------------------------------

class DatabaseError(ReproError):
    """Base class for database errors."""


class CatalogError(DatabaseError):
    """Schema object missing, duplicated, or malformed."""


class SQLSyntaxError(DatabaseError):
    """The SQL text could not be lexed or parsed."""


class TypeError_(DatabaseError):
    """A value could not be coerced to the declared column type."""


class ExpressionError(DatabaseError):
    """A comparison or arithmetic operator met operands it is not
    defined on — a divisor of zero, TEXT against INT — in a statement's
    expression; the message names the operator and the operand types."""


class IntegrityError(DatabaseError):
    """Base class for constraint violations."""


class UniqueViolation(IntegrityError):
    """A uniqueness constraint was violated by a *visible* tuple.

    Conflicts with tuples the inserting process cannot see never raise;
    they polyinstantiate instead (section 5.2.1).
    """


class ForeignKeyViolation(IntegrityError):
    """Referential integrity failure (missing parent or restricted delete)."""


class CheckViolation(IntegrityError):
    """A CHECK constraint evaluated to false."""


class LabelConstraintViolation(IntegrityError):
    """A label constraint (section 5.2.4) rejected the tuple's label."""


class TransactionError(DatabaseError):
    """Transaction state machine misuse (commit without begin, etc.)."""


class SerializationError(TransactionError):
    """Write-write conflict under snapshot isolation (first committer wins)."""


class SpillError(DatabaseError):
    """A memory-bounded operator could not write or read its spill file
    (full temp directory, I/O error, or a spool written after it was
    switched to reading).  The statement fails; its temp files are
    released and the session stays usable."""


# ---------------------------------------------------------------------------
# Platform errors (repro.platform)
# ---------------------------------------------------------------------------

class PlatformError(ReproError):
    """Base class for application-platform errors."""


class ReleaseError(PlatformError, IFCViolation):
    """A contaminated process attempted to release data to the outside."""


class AuthenticationError(PlatformError):
    """Login failed or a request lacked a valid session."""
