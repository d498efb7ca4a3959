"""Transactions: snapshot isolation, write sets, and commit labels.

The engine implements MVCC snapshot isolation like the PostgreSQL base
IFDB was built on (section 5.1): each transaction reads from a snapshot
taken at ``BEGIN`` and write-write conflicts abort the second writer
("first committer wins").  A ``SERIALIZABLE`` mode is also provided; under
it the *transaction clearance rule* applies (raising the process label
mid-transaction requires authority for the added tag).

The IFDB-specific machinery here is the **commit label** check: a
transaction may commit only if its label at the commit point is covered by
the label of every tuple in its write set.  This closes the covert channel
of section 5.1 (write low, read high, then abort-or-commit).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.labels import Label
from ..core.rules import may_commit
from ..errors import IFCViolation, TransactionError

IN_PROGRESS = "in_progress"
COMMITTED = "committed"
ABORTED = "aborted"

#: Isolation levels.
SNAPSHOT = "snapshot"          # PostgreSQL's default; what the prototype uses
SERIALIZABLE = "serializable"  # enables the clearance rule


class Snapshot:
    """The set of transaction effects visible to a transaction."""

    __slots__ = ("xmax", "in_progress", "min_in_progress")

    def __init__(self, xmax: int, in_progress: frozenset):
        self.xmax = xmax                  # first xid NOT visible
        self.in_progress = in_progress    # xids live when snapshot was taken
        #: Smallest in-flight xid at snapshot time (None when none were):
        #: any xmin below it is definitely not in ``in_progress``, which
        #: lets the scan leaf's MVCC bound check avoid the set
        #: membership test per tuple (see ``committed_horizon``).
        self.min_in_progress = min(in_progress) if in_progress else None

    def sees_xid(self, xid: int, status: str) -> bool:
        """Did ``xid`` commit before this snapshot was taken?"""
        return (status == COMMITTED and xid < self.xmax
                and xid not in self.in_progress)


class WriteRecord:
    """One entry in a transaction's write set.

    Serves two consumers: the commit-label rule (``table``/``label``)
    and the write-ahead log (``tid``/``prev_tid``/``kind`` describe the
    heap effect so ``db/wal.py`` can serialize the transaction as one
    replayable record).  For updates ``tid`` is the *new* version and
    ``prev_tid`` the version whose ``xmax`` was stamped; replay needs
    both ends of the chain.
    """

    __slots__ = ("table", "tid", "label", "kind", "prev_tid")

    def __init__(self, table: str, tid: int, label: Label, kind: str,
                 prev_tid: Optional[int] = None):
        self.table = table
        self.tid = tid
        self.label = label
        self.kind = kind               # "insert" | "update" | "delete"
        self.prev_tid = prev_tid       # updates: the superseded version


class DeferredAction:
    """A trigger or constraint check postponed to commit time.

    Per section 5.2.3, deferred triggers must run with the label (and
    principal) of the *statement* that queued them, not the commit label,
    so both are captured here.
    """

    __slots__ = ("fn", "label", "ilabel", "principal", "description")

    def __init__(self, fn: Callable, label: Label, ilabel: Label,
                 principal: int, description: str = ""):
        self.fn = fn
        self.label = label
        self.ilabel = ilabel
        self.principal = principal
        self.description = description


class Transaction:
    """An open transaction."""

    def __init__(self, xid: int, snapshot: Snapshot, isolation: str):
        self.xid = xid
        self.snapshot = snapshot
        self.isolation = isolation
        self.write_set: List[WriteRecord] = []
        self.deferred: List[DeferredAction] = []
        self.status = IN_PROGRESS

    def record_write(self, table: str, tid: int, label: Label,
                     kind: str, prev_tid: Optional[int] = None) -> None:
        self.write_set.append(WriteRecord(table, tid, label, kind,
                                          prev_tid))

    def defer(self, action: DeferredAction) -> None:
        self.deferred.append(action)


class TransactionManager:
    """Assigns xids, tracks statuses, and takes snapshots."""

    def __init__(self):
        self._next_xid = 1
        self._status: Dict[int, str] = {}
        self._active: Set[int] = set()
        self.commits = 0
        #: Commits whose write set was non-empty.  Replayed transactions
        #: (``db/wal.py`` applies heap effects directly, bypassing
        #: ``record_write``) do not count, which is what lets
        #: ``Database.recover`` tell "fresh database, safe to replay"
        #: from "this database has written on its own".
        self.write_commits = 0
        self.aborts = 0
        self._committed_prefix = 1     # see committed_horizon()
        #: Aborted xids whose heap versions may still exist.  A full
        #: database vacuum removes every aborted-created version, so it
        #: clears this set (``aborted_reclaimed``), letting the
        #: committed horizon advance past old rollbacks.
        self._aborted_unreclaimed: Set[int] = set()

    # -- lifecycle -----------------------------------------------------
    def begin(self, isolation: str = SNAPSHOT) -> Transaction:
        xid = self._next_xid
        self._next_xid += 1
        self._status[xid] = IN_PROGRESS
        snapshot = Snapshot(xmax=xid, in_progress=frozenset(self._active))
        self._active.add(xid)
        return Transaction(xid, snapshot, isolation)

    def check_commit_label(self, txn: Transaction, commit_label: Label,
                           registry) -> None:
        """Enforce the commit-label rule (section 5.1)."""
        for record in txn.write_set:
            if not may_commit(registry, commit_label, record.label):
                raise IFCViolation(
                    "transaction commit label %r exceeds the label %r of a "
                    "tuple written to %s; the transaction may not commit"
                    % (commit_label, record.label, record.table))

    def commit(self, txn: Transaction) -> None:
        if txn.status != IN_PROGRESS:
            raise TransactionError("transaction %d is %s" % (txn.xid,
                                                             txn.status))
        txn.status = COMMITTED
        self._status[txn.xid] = COMMITTED
        self._active.discard(txn.xid)
        self.commits += 1
        if txn.write_set:
            self.write_commits += 1

    def abort(self, txn: Transaction) -> None:
        if txn.status != IN_PROGRESS:
            raise TransactionError("transaction %d is %s" % (txn.xid,
                                                             txn.status))
        txn.status = ABORTED
        self._status[txn.xid] = ABORTED
        self._active.discard(txn.xid)
        self._aborted_unreclaimed.add(txn.xid)
        self.aborts += 1

    # -- status queries -------------------------------------------------
    def status_of(self, xid: int) -> str:
        return self._status.get(xid, ABORTED)

    def is_committed(self, xid: int) -> bool:
        return self._status.get(xid) == COMMITTED

    def is_aborted(self, xid: int) -> bool:
        return self._status.get(xid, ABORTED) == ABORTED

    def committed_horizon(self) -> int:
        """First xid not safe to skip per-row checks for (amortized O(1)).

        Every xid strictly below the returned value is either COMMITTED
        or an aborted transaction with no surviving heap versions, so a
        tuple version with ``xmin`` below it (and below the snapshot's
        ``xmax`` and ``min_in_progress``) is created-visible without
        consulting per-xid status — the precondition of the batched
        executor's whole-batch MVCC fast path.  The pointer only moves
        forward; it stalls at the oldest active xid, or at an aborted
        xid whose dead versions may still linger in a heap (the fast
        path must not reach past those — such batches fall back to
        per-row :meth:`visible`).  A full database vacuum reclaims
        every aborted-created version and calls
        :meth:`aborted_reclaimed`, un-stalling the horizon.
        """
        ptr = self._committed_prefix
        status = self._status
        unreclaimed = self._aborted_unreclaimed
        while True:
            verdict = status.get(ptr)
            if verdict == COMMITTED or (verdict == ABORTED
                                        and ptr not in unreclaimed):
                ptr += 1
            else:
                break
        self._committed_prefix = ptr
        return ptr

    def aborted_reclaimed(self) -> None:
        """Every aborted-created heap version has been vacuumed away
        (a *full* database vacuum just finished), so aborted xids no
        longer pin the committed horizon.  An aborted transaction can
        never write again, and new aborts re-enter the set."""
        self._aborted_unreclaimed.clear()

    def oldest_active_xid(self) -> int:
        """Horizon for vacuum: versions dead before this are reclaimable."""
        if self._active:
            return min(self._active)
        return self._next_xid

    # -- MVCC visibility -------------------------------------------------
    def visible(self, version, txn: Transaction) -> bool:
        """Is this tuple version visible to the transaction's snapshot?

        Standard MVCC: created by us or by a transaction committed before
        our snapshot, and not deleted by us or by such a transaction.
        Label checks are applied separately, *on top of* this (section
        7.1 — IFDB extends the code that ignores irrelevant versions).
        """
        xmin = version.xmin
        if xmin == txn.xid:
            created_visible = True
        else:
            created_visible = txn.snapshot.sees_xid(xmin, self.status_of(xmin))
        if not created_visible:
            return False
        xmax = version.xmax
        if xmax is None:
            return True
        if xmax == txn.xid:
            return False                      # we deleted it ourselves
        return not txn.snapshot.sees_xid(xmax, self.status_of(xmax))

    def delete_conflicts(self, version, txn: Transaction) -> bool:
        """Would stamping ``xmax`` on this version conflict?

        True when another transaction already deleted/updated the version
        and did not abort — the "first committer wins" rule of snapshot
        isolation.  (A real server would wait for an in-progress writer;
        the simulation aborts immediately, which only makes conflicts
        more visible.)
        """
        xmax = version.xmax
        if xmax is None or xmax == txn.xid:
            return False
        return not self.is_aborted(xmax)
