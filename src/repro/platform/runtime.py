"""The IFC application runtime (the PHP-IF / Python-IF analogue).

The runtime spawns :class:`AppProcess` objects — IFC processes extended
with *output interposition*: any attempt to send data to the outside
world (HTTP responses, stdout, sockets) goes through :meth:`AppProcess.send`,
which applies the release gate.  A contaminated process simply cannot
emit (section 7.2: "PHP-IF and Python-IF interpose on output, so programs
that are too contaminated can't release information").

The runtime also owns the platform-side authority cache; declassification
and release checks consult it instead of the raw authority state.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.labels import EMPTY_LABEL, Label
from ..core.process import IFCProcess
from ..errors import ReleaseError
from .cache import AuthorityCache
from .connection import IFConnection


class AppProcess(IFCProcess):
    """An IFC process with interposed output and cached authority."""

    def __init__(self, runtime: "IFRuntime", principal: int,
                 label: Label = EMPTY_LABEL):
        super().__init__(runtime.authority, principal, label)
        self.runtime = runtime
        self.outputs: List[Tuple[object, Label]] = []

    # -- baseline guards and cached authority -----------------------------
    # When the runtime has IFC disabled (the "plain PHP" baseline of the
    # benchmarks), label operations are no-ops: the original applications
    # contain none of these calls, so the baseline must not pay for them.
    def add_secrecy(self, tag_id: int) -> None:
        if self.runtime.ifc_enabled:
            super().add_secrecy(tag_id)

    def declassify(self, tag_id: int) -> None:
        if self.runtime.ifc_enabled:
            super().declassify(tag_id)

    def delegate(self, tag_id: int, grantee: int) -> None:
        if self.runtime.ifc_enabled:
            super().delegate(tag_id, grantee)

    def has_authority(self, tag_id: int) -> bool:
        """Answered from the platform cache (hot path in PHP-IF): every
        ``declassify`` and ``endorse`` asks here."""
        return self.runtime.cache.has_authority(self.principal, tag_id)

    # -- output interposition -----------------------------------------------
    def send(self, data, destination_label: Label = EMPTY_LABEL) -> None:
        """Release ``data`` to a destination (default: the outside world).

        Raises :class:`ReleaseError` if the process is contaminated above
        the destination's label.  Delivered data is recorded in
        ``outputs``, the one record of what this process let escape; it
        lives and dies with the process.
        """
        if self.runtime.ifc_enabled and not self.can_release(
                destination_label):
            names = self.authority.describe_label(self.label)
            raise ReleaseError(
                "process contaminated with %r cannot release to a "
                "destination labelled %r" % (names, destination_label))
        self.outputs.append((data, destination_label))

    def try_send(self, data,
                 destination_label: Label = EMPTY_LABEL) -> bool:
        """Like :meth:`send` but returns False instead of raising."""
        try:
            self.send(data, destination_label)
            return True
        except ReleaseError:
            return False

    # -- database access ----------------------------------------------------
    def connect(self, db) -> IFConnection:
        """Open a label-synchronized connection to an IFDB database."""
        return IFConnection(self, db)


class IFRuntime:
    """Factory and shared state for application processes."""

    def __init__(self, authority, *, ifc_enabled: bool = True):
        self.authority = authority
        self.ifc_enabled = ifc_enabled
        self.cache = AuthorityCache(authority)
        self.processes_spawned = 0

    def spawn(self, principal: int, label: Label = EMPTY_LABEL) -> AppProcess:
        self.processes_spawned += 1
        return AppProcess(self, principal, label)

    def spawn_anonymous(self) -> AppProcess:
        """A process with no authority at all (unauthenticated requests).

        Each call creates a fresh principal that owns nothing and holds
        no delegations — the IFDB behaviour that neutered CarTel's
        unauthenticated scripts (section 6.1).
        """
        principal = self.authority.create_principal(
            "anonymous-%d" % (self.processes_spawned + 1))
        return self.spawn(principal.id)
