"""Append-only write-ahead log with group commit and crash recovery.

Until this module, the engine's durability story was a lie told
politely: commits mutated the in-process heap and the only persistence
was a trusted dump, so a crash lost every transaction since the last
one — *including its labels*, which makes it an IFC hole, not just a
data-loss one (a recovery path that drops or garbles labels is a
declassification channel).  The WAL closes that
gap with the standard crash-consistency discipline:

* **Logged before acknowledged.**  ``Session.commit`` serializes the
  transaction's entire write set into ONE log record and hands it to
  :meth:`WriteAheadLog.log_commit`, which returns only after the bytes
  are written *and fsynced*; only then does
  :class:`~repro.db.transactions.TransactionManager` flip the
  transaction to ``COMMITTED``.  One record per transaction makes
  prefix-atomicity structural: a torn record simply *is* an
  uncommitted transaction.
* **Group commit.**  Concurrent committers ride one fsync: the first
  committer becomes the flush leader, writes every record pending at
  that moment, issues a single fsync, and wakes the group.  A commit
  that arrives mid-flush waits and is absorbed by the next leader; the
  leader never waits for company.  ``Database(wal=path)`` turns the
  log on; no environment variable does.
* **Checksummed, length-prefixed records.**  Each record is
  ``<u32 length><u32 crc32(payload)><payload>``; the payload reuses the
  labeled-row codec of :mod:`repro.db.spill` (labels flatten to plain
  tag tuples and **re-intern on replay**, so a recovered label is
  ``is``-identical to the live interned one and the scan-level label
  memos keep working).
* **Recovery** (:func:`replay`, surfaced as ``Database.recover``)
  scans the log, stops at the first torn/corrupt record (the tail a
  crash leaves), and re-applies each committed transaction under a
  fresh xid: heap versions, ``xmax`` stamps, indexes (rebuilt by
  ``Table.append``), labels, sequences, and logged DDL (through
  ``Database.apply_ddl``, the function live DDL runs).  A row has one
  address: every version is written at the tid its record names, so
  the recovered heap has the logging heap's tids, and the slots of
  aborted appends stay empty.  Aborted transactions were never logged,
  so they cannot stall the recovered committed horizon.  Replay is
  idempotent: a per-database watermark skips already-applied records,
  so recovering twice is a no-op.  A record whose op stamps an empty
  slot or writes into an occupied one is malformed: replay raises
  :class:`WalError` and its transaction aborts.
* **One container.**  A dump (:mod:`repro.db.dump`) is an image in
  this format — DDL records, one commit record holding every live
  tuple, and a closing ``dump`` record replay ignores — so
  :func:`scan_records` validates it and :func:`apply_records`, the one
  apply loop, restores it; a restore into a logged database appends
  the image to the log.
* **The fsync gate.**  If fsync *fails* (as opposed to the machine
  dying), the kernel has refused to promise durability, and the bytes
  may or may not be on disk.  Acknowledging would be unsound;
  silently retrying is the classic fsync-gate bug.  The WAL truncates
  the file back to the last durable offset, marks itself failed
  (every later commit errors), and raises — the commit is refused, so
  recovery can never replay a transaction whose commit the client was
  told failed.

Like dump/restore and the garbage collector (sections 7.1/7.2), the
WAL and recovery are *trusted maintenance operations*: they read and
write tuples bypassing Query by Label, and they must — recovery's whole
job is to restore high tuples a confined process could never see.  The
log file therefore carries every label in the clear and must be
protected like the heap itself.

Fault injection (:mod:`repro.db.faultinject`, passed as
``WriteAheadLog(path, fault=…)``) wraps the file so
``tests/test_wal.py`` can prove all of the above at every injection
point rather than assume it.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import zlib
from typing import Dict, List, Optional, Tuple

from ..core.counters import tally
from ..errors import DatabaseError
from .faultinject import CrashError, FaultSpec, FaultyFile
from .spill import decode_labeled_row, encode_labeled_row

#: File magic, written once at creation; a file that does not start
#: with it recovers as empty (zero records).
MAGIC = b"IFDBWAL1"
#: Per-record header: payload length, crc32(payload).
_HEADER = struct.Struct("<II")


class WalError(DatabaseError):
    """The WAL could not make a record durable (the commit is refused),
    or a log holds a record replay cannot apply."""


class _RealFile:
    """Unbuffered append-mode file with the interface
    :class:`~repro.db.faultinject.FaultyFile` wraps: every ``write``
    reaches the OS immediately, so the simulated-crash prefix on disk
    is exactly what the injector let through."""

    __slots__ = ("_handle",)

    def __init__(self, path: str):
        self._handle = open(path, "ab", buffering=0)

    def write(self, data: bytes) -> None:
        self._handle.write(data)

    def fsync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def truncate(self, n: int) -> None:
        self._handle.truncate(n)

    def size(self) -> int:
        return os.fstat(self._handle.fileno()).st_size

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass


def encode_record(record: tuple) -> bytes:
    """One length-prefixed, checksummed record image."""
    payload = pickle.dumps(record, pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan_wal(path: str) -> Tuple[List[tuple], int, Optional[str]]:
    """:func:`scan_records` of the file at ``path`` (tail ``"missing"``
    when there is none)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], 0, "missing"
    return scan_records(data)


def scan_records(data: bytes) -> Tuple[List[tuple], int, Optional[str]]:
    """Decode every valid record; stop at the first torn/corrupt one.

    Returns ``(records, valid_bytes, tail)`` where ``valid_bytes`` is
    the offset of the last well-formed record boundary (what an
    appender should truncate to) and ``tail`` names why scanning
    stopped early (``None`` for a clean end of data).
    """
    if not data:
        return [], 0, None
    if len(data) < len(MAGIC) or data[:len(MAGIC)] != MAGIC:
        return [], 0, "bad-magic"
    records: List[tuple] = []
    offset = len(MAGIC)
    tail: Optional[str] = None
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            tail = "torn-header"
            break
        length, crc = _HEADER.unpack_from(data, offset)
        payload = data[offset + _HEADER.size:offset + _HEADER.size + length]
        if len(payload) < length:
            tail = "torn-record"
            break
        if zlib.crc32(payload) != crc:
            tail = "bad-checksum"
            break
        try:
            records.append(pickle.loads(payload))
        except Exception:
            tail = "undecodable"
            break
        offset += _HEADER.size + length
    return records, offset, tail


class _Entry:
    """Record images waiting in the group-commit queue (one, unless a
    restored dump image is appended whole)."""

    __slots__ = ("data", "is_commit", "records", "done", "error")

    def __init__(self, data: bytes, is_commit: bool, records: int = 1):
        self.data = data
        self.is_commit = is_commit
        self.records = records
        self.done = False
        self.error = None


class WriteAheadLog:
    """The append-only log file plus the group-commit machinery.

    Opening an existing file *repairs its tail*: the valid record
    prefix is kept and any torn/corrupt bytes a crash left behind are
    truncated away, so appending can never bury committed records
    behind garbage a future recovery would stop at.
    """

    def __init__(self, path: str, *, fault: Optional[FaultSpec] = None):
        self.path = path
        _records, valid, tail = scan_wal(path)
        real = _RealFile(path)
        if tail not in (None, "missing") or real.size() > valid:
            # Torn/corrupt tail (or bad magic): keep the valid prefix.
            real.truncate(valid if tail != "bad-magic" else 0)
        self.fault = FaultyFile(real, fault)
        self._file = self.fault
        self._durable = self._file.size()
        self._failed: Optional[BaseException] = None
        self._cond = threading.Condition()
        self._pending: List[_Entry] = []
        self._flushing = False
        if self._durable == 0:
            # Fresh (or fully-truncated) file: stamp the magic.  This
            # goes through the injector too — crash-before-magic is a
            # legitimate matrix coordinate.
            self._file.write(MAGIC)
            self._file.fsync()
            self._durable = len(MAGIC)

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def log(self, record: tuple) -> None:
        """Append a non-transactional record (DDL), durable on return."""
        self._submit(_Entry(encode_record(record), is_commit=False))

    def log_commit(self, record: tuple) -> None:
        """Append a commit record; returns only once it is durable.

        This is the acknowledgement gate: the caller must not mark the
        transaction committed until this returns.  Raises
        :class:`WalError` (fsync refused, log failed) or
        :class:`~repro.db.faultinject.CrashError` (simulated power
        loss) — either way the commit did not happen.
        """
        self._submit(_Entry(encode_record(record), is_commit=True))

    def log_image(self, image: bytes, records: int) -> None:
        """Append the ``records`` frames of a scanned image (a dump:
        :mod:`repro.db.dump`) as one write, durable on return."""
        self._submit(_Entry(image[len(MAGIC):], False, records))

    @property
    def empty(self) -> bool:
        """No record has been made durable: the file is just the magic."""
        return self._durable <= len(MAGIC)

    def _submit(self, entry: _Entry) -> None:
        with self._cond:
            if self._failed is not None:
                raise WalError(
                    "WAL %s is failed (%s); refusing new records"
                    % (self.path, self._failed))
            self._pending.append(entry)
            while not entry.done and self._flushing:
                self._cond.wait()
            if entry.done:
                if entry.error is not None:
                    raise entry.error
                return
            self._flushing = True           # we are the flush leader
            batch = self._pending
            self._pending = []
        error = self._flush_batch(batch)
        with self._cond:
            self._flushing = False
            if error is not None:
                self._failed = error
            for waiting in batch:
                waiting.done = True
                waiting.error = error
            self._cond.notify_all()
        if error is not None:
            raise error

    def _flush_batch(self, batch: List[_Entry]) -> Optional[BaseException]:
        """Write every record, then one fsync.  Returns the failure (if
        any) instead of raising so the leader can wake the group before
        propagating."""
        written = 0
        try:
            for entry in batch:
                self._file.write(entry.data)
                written += len(entry.data)
        except CrashError as crash:
            return crash
        try:
            self._file.fsync()
        except CrashError as crash:
            return crash
        except OSError as exc:
            # The fsync gate: durability was refused and the written
            # bytes are in an unknown state.  Truncate them away so a
            # later recovery cannot replay a commit we are about to
            # refuse, then fail the log for good (PostgreSQL panics
            # here for the same reason).
            try:
                self._file.truncate(self._durable)
            except (OSError, CrashError):
                pass
            return WalError(
                "WAL fsync failed; commit refused and %d unsynced bytes "
                "truncated: %s" % (written, exc))
        commits = sum(1 for entry in batch if entry.is_commit)
        stats = tally()                # this thread led the flush
        stats.records += sum(entry.records for entry in batch)
        stats.bytes += written
        stats.flushes += 1
        stats.fsyncs += 1
        stats.commits += commits
        if commits:
            stats.commit_flushes += 1
            if commits > stats.group_commit_size:
                stats.group_commit_size = commits
        self._durable = self._durable + written
        return None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def failed(self) -> bool:
        return self._failed is not None

    def close(self) -> None:
        self._file.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# building commit records (the Session.commit hook)
# ---------------------------------------------------------------------------

def build_commit_record(db, txn) -> Optional[tuple]:
    """Serialize one transaction's effects as a single WAL record.

    ``("commit", xid, ops, seqs)`` where each op is

    * ``("i", table, tid, (values, label_tags, ilabel_tags))`` — an
      inserted version at heap tid ``tid``, where replay writes it too,
      so a recovered heap has the logging heap's tids;
    * ``("u", table, old_tid, new_tid, row)`` — an update: stamp
      ``xmax`` on the version at ``old_tid``, write the new one at
      ``new_tid``;
    * ``("d", table, tid)`` — a delete: stamp ``xmax`` at ``tid``.

    ``seqs`` carries the sequences this database bumped since the last
    logged commit (name → value at commit time), so sequence state
    recovers with the transaction that made it observable.  Returns
    ``None`` for a read-only transaction with no sequence traffic —
    nothing to make durable.
    """
    ops: List[tuple] = []
    for write in txn.write_set:
        name = write.table.name
        # By name, not ``write.table``: a table dropped since the write
        # must fail the commit here, not at replay.
        table = db.catalog.get_table(name)
        if write.kind == "insert":
            version = table.version(write.tid)
            ops.append(("i", name, write.tid,
                        encode_labeled_row(version.values, version.label,
                                           version.ilabel)))
        elif write.kind == "update":
            version = table.version(write.tid)      # the new version
            ops.append(("u", name, write.prev_tid, write.tid,
                        encode_labeled_row(version.values, version.label,
                                           version.ilabel)))
        else:                                        # "delete"
            ops.append(("d", name, write.tid))
    seqs = db._take_wal_sequences()
    if not ops and not seqs:
        return None
    return ("commit", txn.xid, ops, seqs)


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------

def replay(db, path: str) -> Dict[str, object]:
    """Re-apply the valid record prefix of ``path`` into ``db``.

    Trusted maintenance operation (like dump/restore): heap writes
    bypass Query by Label and labels are restored verbatim (re-interned
    via the shared codec).  The database must share the authority state
    of the logging database so tag ids resolve.

    Idempotent: ``db`` keeps a watermark of applied record indexes, so
    replaying the same log again is a no-op.  To keep the watermark
    meaningful the database must not have committed new (non-replay)
    transactions since — ``Database.recover`` enforces that.
    """
    records, valid_bytes, tail = scan_wal(path)
    skipped = min(db._wal_applied, len(records))
    transactions, ddl = apply_records(db, records)
    return {"records": len(records), "applied": len(records) - skipped,
            "skipped": skipped, "transactions": transactions, "ddl": ddl,
            "valid_bytes": valid_bytes, "tail": tail}


def apply_records(db, records: List[tuple]) -> Tuple[int, int]:
    """Apply ``records`` from ``db``'s watermark on, advancing it per
    record — the one apply loop of recovery and of dump restore.

    While it runs, the database logs none of what it applies.  Returns
    ``(transactions, ddl)`` applied; a ``dump`` record (an image's
    closing record) is a no-op.
    """
    transactions = ddl = 0
    db._wal_replaying = True
    try:
        for index in range(db._wal_applied, len(records)):
            record = records[index]
            kind = record[0]
            if kind == "commit":
                _apply_commit(db, record, index)
                transactions += 1
            elif kind == "ddl":
                db.apply_ddl(record)
                ddl += 1
            elif kind != "dump":
                raise WalError("unknown WAL record kind %r at index %d"
                               % (kind, index))
            db._wal_applied = index + 1
    finally:
        db._wal_replaying = False
    return transactions, ddl


#: A commit record's op letters, as the write kinds replay records.
_OPS = {"i": "insert", "u": "update", "d": "delete"}


def _apply_commit(db, record: tuple, index: int) -> None:
    """Replay commit record ``index`` under a fresh xid.

    Every op names the slot it acts on, so nothing is translated: an
    update or delete stamps the version at ``old_tid``, and an insert
    or an update's new version is written at the tid the op names.
    Commit order is not append order, so a later tid may be filled
    before an earlier one.  An op that stamps an empty slot or writes
    into an occupied one aborts the whole transaction."""
    _kind, _orig_xid, ops, seqs = record
    # Replay writes the heap directly but still records each write, so
    # commit and abort can read the doomed versions off the write set.
    txn = db.txn_manager.begin(replay=True)
    try:
        for op in ops:
            kind, table = _OPS.get(op[0]), db.catalog.get_table(op[1])
            if kind is None:
                raise WalError("unknown WAL op %r in record %d"
                               % (op[0], index))
            old = None
            if kind != "insert":
                old = table.version(op[2])
                if old is None:
                    raise WalError("WAL record %d stamps %s tid %r, an empty "
                                   "slot" % (index, table.name, op[2]))
                table.stamp(old, txn.xid)
            if kind == "delete":
                txn.record_write(table, old.tid, old.label, kind)
                continue
            tid = op[-2]        # an insert's tid, an update's new_tid
            if tid < 0 or table.version(tid) is not None:
                raise WalError("WAL record %d writes %s tid %r, not an "
                               "empty slot" % (index, table.name, tid))
            values, label, ilabel = decode_labeled_row(op[-1])
            table.append(tuple(values), label, ilabel, txn.xid, tid)
            txn.record_write(table, tid, label, kind,
                             None if old is None else old.tid)
    except BaseException:
        db.txn_manager.abort(txn)
        raise
    db.txn_manager.commit(txn)
    for name, value in seqs.items():
        if value > db._sequences.get(name, 0):
            db._sequences[name] = value
