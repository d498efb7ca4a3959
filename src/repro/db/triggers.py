"""Trigger invocation (section 5.2.3).

Statements run under the session's acting holder: an
:class:`~repro.core.process.IFCProcess` on top of the session's stack,
whose label, integrity label and principal govern reads and writes.  The
root of the stack is the session's process (a detached one with no
authority for ``db.connect()``).  An ordinary trigger runs under the
firing holder itself, so its label changes are the caller's.  Two kinds
of trigger push a fresh, *isolated* holder instead — seeded with the
statement's label and never written back into the caller:

* **Closure triggers** run with the bound principal's authority — their
  contamination does not flow back into the firing process (the paper's
  CarTel triggers read raw locations and write drives "without
  contaminating the process performing the insert", section 8.2.2).
* **Deferred triggers** run at commit time but with the label of the
  *statement* that queued them, never the commit label (section 5.2.3).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.labels import Label
from ..core.process import IFCProcess
from ..errors import DatabaseError
from .catalog import BEFORE, DEFERRED, TriggerDef


class TriggerContext:
    """Handed to trigger functions.

    ``session`` is the live session with the trigger's holder already
    pushed, so any SQL the trigger runs is governed by the right
    label and authority.  ``old``/``new`` are column-name dicts; BEFORE
    triggers may mutate ``new`` (or return a dict of changes) to adjust
    the row being written.
    """

    def __init__(self, session, event: str, table_name: str,
                 old: Optional[Dict], new: Optional[Dict],
                 statement_label: Label):
        self.session = session
        self.event = event
        self.table = table_name
        self.old = old
        self.new = new
        self.statement_label = statement_label

    @property
    def acting(self):
        return self.session.acting

    def add_secrecy(self, tag_id: int) -> None:
        self.session.acting.add_secrecy(tag_id)

    def declassify(self, tag_id: int) -> None:
        self.session.acting.declassify(tag_id)


def fire_triggers(db, session, table, event: str, timing: str,
                  old_values: Optional[Tuple], new_values,
                  statement_label: Label):
    """Run (or queue) all matching triggers.

    Returns possibly-updated new values (BEFORE triggers may modify the
    row): a new tuple when a BEFORE trigger ran, ``new_values`` itself
    otherwise (``Session._write`` tells the two apart by identity).
    DEFERRED triggers are queued on the open transaction with the
    statement's label and the appropriate principal.
    """
    triggers = db.catalog.triggers_for(table.name, event, timing)
    if not triggers:
        return new_values
    columns = table.schema.column_names
    old_dict = dict(zip(columns, old_values)) if old_values is not None \
        else None
    new_dict = dict(zip(columns, new_values)) if new_values is not None \
        else None
    acting = session.acting

    for trigger in triggers:
        if timing == DEFERRED:
            _queue_deferred(db, session, trigger, table, event, old_dict,
                            new_dict, statement_label)
            continue
        changes = _run_trigger(db, session, trigger, event, table, old_dict,
                               new_dict, statement_label, acting)
        if timing == BEFORE and new_dict is not None:
            if isinstance(changes, dict):
                new_dict.update(changes)
    if timing == BEFORE and new_dict is not None:
        return tuple(new_dict[c] for c in columns)
    return new_values


def _run_trigger(db, session, trigger: TriggerDef, event, table, old_dict,
                 new_dict, statement_label, acting):
    if trigger.closure_principal is not None:
        acting = IFCProcess(db.authority, trigger.closure_principal,
                            statement_label, acting.integrity_label)
    ctx = TriggerContext(session, event, table.name, old_dict, new_dict,
                         statement_label)
    with session.acting_as(acting):
        return trigger.fn(ctx)


def _queue_deferred(db, session, trigger: TriggerDef, table, event, old_dict,
                    new_dict, statement_label):
    txn = session.transaction
    if txn is None:
        raise DatabaseError("deferred trigger outside a transaction")
    acting = session.acting
    principal = (trigger.closure_principal
                 if trigger.closure_principal is not None
                 else acting.principal)
    ilabel = acting.integrity_label
    # Freeze the row images now; the heap may move on before commit.
    old_copy = dict(old_dict) if old_dict is not None else None
    new_copy = dict(new_dict) if new_dict is not None else None

    def run():
        ctx = TriggerContext(session, event, table.name, old_copy, new_copy,
                             statement_label)
        with session.acting_as(IFCProcess(db.authority, principal,
                                          statement_label, ilabel)):
            trigger.fn(ctx)

    txn.defer(run)
