"""Fault injection for the durability subsystem and for spill files.

Crash recovery that is merely *implemented* is recovery that silently
rots; it has to be *proven* against every place a machine can die.  This
module wraps the write-ahead log's file object (see
:mod:`repro.db.wal`) with a deterministic fault schedule so the crash
matrix in ``tests/test_wal.py`` can kill the "process" at every write
boundary, inside a record (torn and short writes), and at the fsync
gate — and then assert that :meth:`repro.db.engine.Database.recover`
reconstructs exactly the acknowledged-commit prefix, labels included.

Injection points are counted over the raw ``write``/``fsync`` calls the
WAL issues (the WAL writes exactly one call per record, one for the
file magic and one for a checkpoint's whole image, which goes to its
temp file before the rename, so "write #N" is a stable, enumerable
coordinate):

``record:N``
    Simulated power loss immediately *before* write ``N``: nothing of
    the record reaches the file.
``torn:N``
    Torn page write: the first half of write ``N``'s bytes reach the
    file, then the machine dies mid-record.
``short:N``
    A short write that dies inside the record *header* (first 3 bytes
    only) — the nastiest tail a scanner can meet.
``fsync:N``
    The ``N``-th ``fsync`` raises ``OSError`` instead of crashing.
    This is not a power loss: the process survives, but the kernel
    refused to promise durability, so the WAL must refuse to
    acknowledge the commit (and truncate the unsynced tail — the
    "fsync-gate" discipline; see :class:`repro.db.wal.WriteAheadLog`).

**Spill files** get a schedule of their own (:class:`SpoolFaults`):
a memory-bounded operator's temp files are not durable state, so there
is nothing to recover — the contract is that the *statement* fails
with a typed :class:`~repro.errors.SpillError`, every descriptor is
released, and the session carries on.  Its coordinates are blocks, the
spool's unit of I/O: ``write:N`` fails the statement's ``N``-th block
write with ``ENOSPC``, ``read:N`` its ``N``-th block read with ``EIO``.

A WAL spec is handed to the log that should fail
(``WriteAheadLog(path, fault=FaultSpec(mode, n))``); no environment
variable installs one, so a log opened without a spec never faults.
After a crash fires, the wrapped file is dead: every further operation
raises :class:`CrashError`, modelling a process that no longer exists.
The bytes already written remain on disk for recovery to find, which
is the point.
"""

from __future__ import annotations

import errno
from typing import Optional

from ..errors import DatabaseError

#: Injection modes that simulate power loss at/inside a write.
CRASH_MODES = ("record", "torn", "short")
#: The non-crash mode: fsync reports failure but the process lives.
FSYNC_MODE = "fsync"


class CrashError(DatabaseError):
    """Simulated power loss: the process owning this file is dead.

    Raised by :class:`FaultyFile` at the scheduled injection point and
    on every operation thereafter.  Test drivers treat it the way an
    operator treats a dead server — discard the in-memory state and
    recover from the log.
    """


class FaultSpec:
    """An injection point: ``(mode, n)``."""

    __slots__ = ("mode", "n")

    def __init__(self, mode: str, n: int):
        if mode not in CRASH_MODES + (FSYNC_MODE,):
            raise ValueError("unknown fault mode %r" % mode)
        if n < 0:
            raise ValueError("fault ordinal must be >= 0, got %d" % n)
        self.mode = mode
        self.n = n

    def __repr__(self):
        return "FaultSpec(%s:%d)" % (self.mode, self.n)


class FaultyFile:
    """A counting, optionally-faulting wrapper around a WAL file.

    Wraps any object exposing ``write(bytes)``, ``fsync()``,
    ``truncate(n)`` and ``close()`` (the
    :class:`repro.db.wal._RealFile` adapter).  With ``spec=None`` it is
    a pure pass-through that counts calls — the crash matrix first does
    a clean run to enumerate ``writes``/``fsyncs``, then replays the
    workload once per coordinate with a live spec.  A checkpoint swaps
    ``inner`` for its temp file; the counts run on.
    """

    __slots__ = ("inner", "spec", "writes", "fsyncs", "dead")

    def __init__(self, inner, spec: Optional[FaultSpec] = None):
        self.inner = inner
        self.spec = spec
        self.writes = 0          # write calls seen
        self.fsyncs = 0          # fsync calls seen
        self.dead = False

    # -- crash machinery -----------------------------------------------
    def _die(self, partial: bytes = b"") -> None:
        """Write the surviving prefix (if any), then die for good."""
        if partial:
            self.inner.write(partial)
        self.dead = True
        raise CrashError(
            "simulated crash at %r (write #%d, fsync #%d)"
            % (self.spec, self.writes, self.fsyncs))

    def _check_alive(self) -> None:
        if self.dead:
            raise CrashError("file is dead (crashed earlier at %r)"
                             % (self.spec,))

    # -- the file interface --------------------------------------------
    def write(self, data: bytes) -> None:
        self._check_alive()
        spec = self.spec
        if spec is not None and spec.mode in CRASH_MODES \
                and self.writes == spec.n:
            self.writes += 1
            if spec.mode == "record":
                self._die()                        # nothing reaches disk
            if spec.mode == "torn":
                self._die(data[:max(1, len(data) // 2)])
            self._die(data[:3])                    # "short": mid-header
        self.writes += 1
        self.inner.write(data)

    def fsync(self) -> None:
        self._check_alive()
        spec = self.spec
        if spec is not None and spec.mode == FSYNC_MODE \
                and self.fsyncs == spec.n:
            self.fsyncs += 1
            raise OSError("simulated fsync failure (fsync #%d)" % spec.n)
        self.fsyncs += 1
        self.inner.fsync()

    def truncate(self, n: int) -> None:
        # Truncation is the WAL's *reaction* to an fsync failure, not a
        # durability promise, so it stays available after an OSError —
        # but not after a simulated power loss.
        self._check_alive()
        self.inner.truncate(n)

    def close(self) -> None:
        self.inner.close()


class SpoolFaults:
    """A counting, optionally-faulting schedule for spill-file blocks.

    Install on a database (``db.spill_faults = SpoolFaults("write",
    3)``): every :class:`~repro.db.spill.SpillFile` of its statements
    reports each block it is about to write or read here.  With
    ``mode=None`` it only counts — a sweep first does a clean run to
    enumerate ``writes``/``reads``, then replays the statement once per
    coordinate.  The fault fires once; the raised ``OSError`` takes the
    path a real one would, so the operator surfaces it as
    :class:`~repro.errors.SpillError`.
    """

    __slots__ = ("mode", "n", "writes", "reads")

    def __init__(self, mode: Optional[str] = None, n: int = 0):
        if mode not in (None, "write", "read"):
            raise ValueError("unknown spool fault mode %r" % mode)
        self.mode = mode
        self.n = n
        self.writes = 0          # block writes seen
        self.reads = 0           # block reads seen

    def block_write(self) -> None:
        self.writes += 1
        if self.mode == "write" and self.writes == self.n + 1:
            raise OSError(errno.ENOSPC, "simulated full temp directory "
                                        "(block write #%d)" % self.n)

    def block_read(self) -> None:
        self.reads += 1
        if self.mode == "read" and self.reads == self.n + 1:
            raise OSError(errno.EIO, "simulated I/O error "
                                     "(block read #%d)" % self.n)
