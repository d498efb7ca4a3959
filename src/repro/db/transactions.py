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

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set

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

    Serves three consumers: the commit-label rule (``table``/``label``),
    the write-ahead log (``tid``/``prev_tid``/``kind`` describe the
    heap effect so ``db/wal.py`` can serialize the transaction as one
    replayable record) and version reclamation (``table`` is the
    :class:`~repro.db.storage.Table` itself, so a doomed tid keeps
    meaning the heap it was written to).  For updates ``tid`` is the
    *new* version and ``prev_tid`` the version whose ``xmax`` was
    stamped; replay needs both ends of the chain.
    """

    __slots__ = ("table", "tid", "label", "kind", "prev_tid")

    def __init__(self, table, tid: int, label: Label, kind: str,
                 prev_tid: Optional[int] = None):
        self.table = table
        self.tid = tid
        self.label = label
        self.kind = kind               # "insert" | "update" | "delete"
        self.prev_tid = prev_tid       # updates: the superseded version


class Transaction:
    """An open transaction."""

    def __init__(self, xid: int, snapshot: Snapshot, isolation: str,
                 replay: bool = False):
        self.xid = xid
        self.snapshot = snapshot
        self.isolation = isolation
        #: Re-applying writes some other database already committed (WAL
        #: replay, dump restore): the write set is kept for reclamation
        #: but is not this database's own (``write_commits``).
        self.replay = replay
        self.write_set: List[WriteRecord] = []
        #: Deferred triggers, run at commit (each has captured the label
        #: and principal of the statement that queued it, section 5.2.3).
        self.deferred: List[Callable[[], None]] = []
        self.status = IN_PROGRESS

    def record_write(self, table, tid: int, label: Label,
                     kind: str, prev_tid: Optional[int] = None) -> None:
        self.write_set.append(WriteRecord(table, tid, label, kind,
                                          prev_tid))

    def defer(self, action: Callable[[], None]) -> None:
        self.deferred.append(action)


class TransactionManager:
    """Assigns xids, tracks statuses, takes snapshots, and reclaims the
    versions no snapshot can see any more (see "Version lifecycle" in
    ARCHITECTURE.md)."""

    def __init__(self):
        self._next_xid = 1
        self._status: Dict[int, str] = {}
        #: Active xid → its snapshot floor, ``min(in_progress ∪ {xid})``:
        #: every xid below the floor that committed, this transaction
        #: sees as committed.
        self._active: Dict[int, int] = {}
        self.commits = 0
        #: Commits whose write set was non-empty.  ``replay``
        #: transactions do not count, which is what lets
        #: ``Database.recover`` tell "fresh database, safe to replay"
        #: from "this database has written on its own".
        self.write_commits = 0
        self.aborts = 0
        self._committed_prefix = 1     # see committed_horizon()
        #: Aborted xids whose heap versions still exist; ``begin`` drops
        #: an xid once it has unlinked them.
        self._aborted_unreclaimed: Set[int] = set()
        #: FIFO of ``(xid, [(table, tid), ...])``, one entry per
        #: finished transaction with doomed versions: those a commit
        #: superseded or deleted are dead once the horizon passes its
        #: xid, so ``begin`` drains ``_doomed`` from the head while it
        #: is below the horizon; those an abort created are dead at
        #: once, so they queue apart (``_doomed_now``) and never wait
        #: behind a commit some reader pins.  ``commit`` and ``abort``
        #: only append — they may run outside the latch that serialises
        #: statements (``abort`` clearing its own ``xmax`` changes no
        #: scan's answer).
        self._doomed: Deque[tuple] = deque()
        self._doomed_now: Deque[tuple] = deque()
        self.versions_reclaimed = 0

    # -- lifecycle -----------------------------------------------------
    def begin(self, isolation: str = SNAPSHOT,
              replay: bool = False) -> Transaction:
        if self._doomed or self._doomed_now:
            self._drain()
        xid = self._next_xid
        self._next_xid += 1
        self._status[xid] = IN_PROGRESS
        snapshot = Snapshot(xmax=xid, in_progress=frozenset(self._active))
        floor = snapshot.min_in_progress
        self._active[xid] = xid if floor is None else floor
        return Transaction(xid, snapshot, isolation, replay)

    def check_commit_label(self, txn: Transaction, commit_label: Label,
                           registry) -> None:
        """Enforce the commit-label rule (section 5.1)."""
        for record in txn.write_set:
            if not may_commit(registry, commit_label, record.label):
                raise IFCViolation(
                    "transaction commit label %r exceeds the label %r of a "
                    "tuple written to %s; the transaction may not commit"
                    % (commit_label, record.label, record.table.name))

    def commit(self, txn: Transaction) -> None:
        """Acknowledge ``txn`` and doom the versions it superseded or
        deleted."""
        self._finish(txn, COMMITTED)
        self.commits += 1
        if txn.write_set and not txn.replay:
            self.write_commits += 1
        superseded = [(w.table, w.prev_tid if w.kind == "update" else w.tid)
                      for w in txn.write_set if w.kind != "insert"]
        if superseded:
            self._doomed.append((txn.xid, superseded))

    def abort(self, txn: Transaction) -> None:
        """Roll ``txn`` back, doom the versions it created and clear
        its ``xmax`` from the versions it deleted or superseded — left
        set, it would keep their heap slice off the frozen path until
        the row was next written."""
        created = [(w.table, w.tid) for w in txn.write_set
                   if w.kind != "delete"]
        if created and txn.status == IN_PROGRESS:
            # Before the status flips: ``committed_horizon`` must never
            # find this xid ABORTED and not (yet) in the set, or it
            # moves past it for good.
            self._aborted_unreclaimed.add(txn.xid)
        self._finish(txn, ABORTED)
        self.aborts += 1
        for w in txn.write_set:
            if w.kind != "insert":
                version = w.table.version(
                    w.prev_tid if w.kind == "update" else w.tid)
                if version is not None and version.xmax == txn.xid:
                    w.table.stamp(version, None)
        if created:
            self._doomed_now.append((txn.xid, created))

    def _finish(self, txn: Transaction, status: str) -> None:
        if txn.status != IN_PROGRESS:
            raise TransactionError("transaction %d is %s" % (txn.xid,
                                                             txn.status))
        txn.status = status
        self._status[txn.xid] = status
        del self._active[txn.xid]

    # -- version reclamation ---------------------------------------------
    def horizon(self) -> int:
        """The oldest xid some live or future snapshot could still fail
        to see as committed: the smallest snapshot floor among active
        transactions, or the next xid when none is active.  A version
        whose deleter committed below it is invisible to everyone."""
        return min(self._active.values(), default=self._next_xid)

    def reclaim(self, table, tid: int, horizon: int) -> bool:
        """Unlink version ``tid`` of ``table`` if it is dead: its
        creator aborted, or its deleter committed below ``horizon``.
        The one deadness test — the drain and ``VACUUM`` both come
        through here — and, like PostgreSQL's garbage collector, exempt
        from the label rules (section 7.1): it reads no label."""
        version = table.version(tid)
        if version is None:
            return False
        xmax = version.xmax
        if not (self.is_aborted(version.xmin)
                or (xmax is not None and xmax < horizon
                    and self.is_committed(xmax))):
            return False
        table.unlink(tid)
        self.versions_reclaimed += 1
        return True

    def _drain(self) -> None:
        """Reclaim what aborts created and what the horizon has passed.
        Runs in ``begin`` only: that is where the snapshot is taken,
        hence inside whatever serialises statements, so no scan is
        part-way through an index this unlinks from."""
        horizon = self.horizon()
        aborted, doomed = self._doomed_now, self._doomed
        while aborted:
            xid, versions = aborted.popleft()
            for table, tid in versions:
                self.reclaim(table, tid, horizon)
            self._aborted_unreclaimed.discard(xid)
        while doomed and doomed[0][0] < horizon:
            for table, tid in doomed.popleft()[1]:
                self.reclaim(table, tid, horizon)

    @property
    def reclaim_pending(self) -> int:
        """Doomed versions still queued (a long-running transaction
        pinning the horizon shows up here)."""
        return sum(len(versions) for _xid, versions
                   in list(self._doomed) + list(self._doomed_now))

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
        per-row :meth:`visible`) — until the next :meth:`begin`
        unlinks them.
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
