"""Label-synchronized database connections.

A real IFDB deployment runs the platform and the DBMS in separate
processes; the modified libpq carries the process label and principal to
the server, "coalesced and transmitted lazily with the next statement or
result" (section 7.1).  Here both sides share the process object, so
correctness needs no wire transfer — but the connection still *models*
the protocol's cadence in :class:`ProtocolStats`: before each statement,
if the process's label epoch moved since the last sync, exactly one label
update is counted, no matter how many label changes happened in between
(the rest count as coalesced).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass
class ProtocolStats:
    """Counters for the modelled wire protocol."""

    statements_sent: int = 0
    results_received: int = 0
    label_updates_sent: int = 0
    label_changes_coalesced: int = 0     # changes that rode along for free


class IFConnection:
    """A session plus the modelled label-sync protocol."""

    def __init__(self, process, db):
        self.process = process
        self.db = db
        self.session = db.connect(process)
        self.stats = ProtocolStats()
        self._synced_epoch = -1

    # -- protocol modelling -------------------------------------------------
    def _sync_label(self) -> None:
        runtime = getattr(self.process, "runtime", None)
        if runtime is not None and not runtime.ifc_enabled:
            return                      # baseline: stock libpq, no label sync
        epoch = self.process.label_epoch
        if epoch == self._synced_epoch:
            return
        pending_changes = epoch - max(self._synced_epoch, 0)
        if self._synced_epoch >= 0 and pending_changes > 1:
            self.stats.label_changes_coalesced += pending_changes - 1
        self.stats.label_updates_sent += 1
        self._synced_epoch = epoch

    def _round_trip(self, fn, *args):
        """Send one statement (after syncing the label) and take its
        result.  The server may change the label too (stored procedures);
        the response piggybacks it back, which resynchronizes the epoch."""
        self._sync_label()
        self.stats.statements_sent += 1
        result = fn(*args)
        self.stats.results_received += 1
        self._synced_epoch = self.process.label_epoch
        return result

    # -- statement API -------------------------------------------------------
    def execute(self, sql: str, params: Sequence = ()):
        return self._round_trip(self.session.execute, sql, params)

    def query(self, sql: str, params: Sequence = ()):
        return self.execute(sql, params).rows

    def call(self, procedure: str, *args):
        return self._round_trip(self.session.call, procedure, *args)
    def begin(self, isolation: Optional[str] = None) -> None:
        self.execute("BEGIN" if isolation is None else
                     "BEGIN ISOLATION LEVEL %s" % isolation.upper())

    def commit(self) -> None:
        self.execute("COMMIT")

    def rollback(self) -> None:
        self.execute("ROLLBACK")

    def close(self) -> None:
        self.session.close()
