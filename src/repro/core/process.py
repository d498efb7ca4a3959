"""IFC processes, reduced-authority calls, and authority closures.

An :class:`IFCProcess` is the unit of coarse-grained tracking (section 2):
it carries a secrecy label, an integrity label, and the identity of the
principal whose authority it currently wields.  Label changes are always
*explicit* (section 4.2): reading never silently contaminates a process —
Query by Label filters instead — so the only ways a label changes are
``add_secrecy`` and ``declassify``.

It is also the one label holder of the database: a session's statements,
its triggers, its authority closures and the per-tuple label iterator all
run under an ``IFCProcess`` (see :mod:`repro.db.triggers`).  A holder
with no principal (``principal=None``) has no authority at all.

Authority closures (section 3.3) bind authority to code: the closure runs
with the authority of the principal bound at creation time, and the
creator must hold that authority.  Reduced-authority calls run code with
*less* authority, supporting the Principle of Least Privilege.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..errors import AuthorityError, ClearanceError, IFCViolation
from .authority import AuthorityState
from .labels import EMPTY_LABEL, Label
from .rules import can_flow, can_flow_integrity, strip
from .tags import INTEGRITY, SECRECY


@dataclass(frozen=True)
class Closure:
    """A callable bound to a principal's authority (section 3.3)."""

    name: str
    fn: Callable
    principal: int


class IFCProcess:
    """A process tracked at label granularity.

    The process's *label* grows by explicit ``add_secrecy`` calls and
    shrinks by ``declassify`` (which needs authority).  The *integrity
    label* shrinks by explicit drops and grows by ``endorse`` (which needs
    authority).  Sessions attached to the process (database connections)
    observe label changes so the clearance rule for serializable
    transactions can be enforced at the moment the label is raised.
    """

    def __init__(self, authority: AuthorityState, principal: Optional[int],
                 label: Label = EMPTY_LABEL,
                 integrity_label: Label = EMPTY_LABEL):
        self.authority = authority
        if principal is not None:
            authority.principals.get(principal)     # validate
        self._principal = principal
        self._label = label
        self._ilabel = integrity_label
        self._label_epoch = 0                   # bumped on every change
        self._sessions: "weakref.WeakSet" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def principal(self) -> Optional[int]:
        return self._principal

    @property
    def label(self) -> Label:
        return self._label

    @property
    def integrity_label(self) -> Label:
        return self._ilabel

    @property
    def label_epoch(self) -> int:
        """Monotone counter of label/principal changes, used by the
        client/server protocol to piggyback updates lazily."""
        return self._label_epoch

    def attach_session(self, session) -> bool:
        """Register a database session for clearance-rule callbacks;
        False if it was registered already."""
        if session in self._sessions:
            return False
        self._sessions.add(session)
        return True

    def detach_session(self, session) -> None:
        self._sessions.discard(session)

    # ------------------------------------------------------------------
    # label changes (always explicit)
    # ------------------------------------------------------------------
    def _bump(self) -> None:
        self._label_epoch += 1

    def add_secrecy(self, tag_id: int) -> None:
        """Raise the label with ``tag_id``.

        Anyone may contaminate themselves, *except* that inside a
        serializable transaction the clearance rule (section 5.1) demands
        authority for the tag, because aborts become observable to
        concurrent transactions through conflicts.
        """
        tag = self.authority.tags.get(tag_id)
        if tag.kind != SECRECY:
            raise IFCViolation("tag %r is not a secrecy tag" % tag.name)
        for session in self._sessions:
            if session.requires_clearance():
                if not self.authority.has_authority(self._principal, tag_id):
                    raise ClearanceError(
                        "serializable transaction in progress: raising the "
                        "label with %r requires authority for it" % tag.name)
        if tag_id in self._label:
            return
        self._label = self._label.with_tag(tag_id)
        self._bump()

    def declassify(self, tag_id: int) -> None:
        """Remove ``tag_id`` (or a compound's members) from the label.

        Requires authority for the tag (section 3.2).  Declassifying a
        compound tag strips the compound and all of its members.
        """
        self._require_authority(tag_id)
        new_label = strip(self.authority.tags, self._label, Label((tag_id,)))
        if tag_id in self._label and new_label == self._label:
            new_label = self._label.without((tag_id,))
        if new_label != self._label:
            self._label = new_label
            self._bump()

    def set_label(self, label: Label) -> None:
        """Replace the label, checking each direction tag-by-tag.

        Additions follow ``add_secrecy`` (clearance rule applies);
        removals follow ``declassify`` (authority required).
        """
        for tag_id in label.tags - self._label.tags:
            self.add_secrecy(tag_id)
        for tag_id in self._label.tags - label.tags:
            self.declassify(tag_id)

    # -- integrity (dual rules; extension per DESIGN.md) ----------------
    def endorse(self, tag_id: int) -> None:
        """Add an integrity tag; requires authority (vouching)."""
        tag = self.authority.tags.get(tag_id)
        if tag.kind != INTEGRITY:
            raise IFCViolation("tag %r is not an integrity tag" % tag.name)
        self._require_authority(tag_id)
        if tag_id not in self._ilabel:
            self._ilabel = self._ilabel.with_tag(tag_id)
            self._bump()

    def drop_integrity(self, tag_id: int) -> None:
        """Drop an integrity tag (always allowed, like adding secrecy)."""
        if tag_id in self._ilabel:
            self._ilabel = self._ilabel.without((tag_id,))
            self._bump()

    # ------------------------------------------------------------------
    # release gate
    # ------------------------------------------------------------------
    def can_release(self, destination_label: Label = EMPTY_LABEL,
                    destination_integrity: Label = EMPTY_LABEL) -> bool:
        """May this process send data to a destination with these labels?

        The outside world has the empty label (section 3.2), so a process
        must be uncontaminated to talk to it.
        """
        registry = self.authority.tags
        return (can_flow(registry, self._label, destination_label)
                and can_flow_integrity(registry, self._ilabel,
                                       destination_integrity))

    def check_release(self, destination_label: Label = EMPTY_LABEL) -> None:
        if not self.can_release(destination_label):
            names = self.authority.describe_label(self._label)
            raise IFCViolation(
                "process is contaminated with %r and cannot release to a "
                "destination labelled %r" % (names, destination_label))

    # ------------------------------------------------------------------
    # authority scoping
    # ------------------------------------------------------------------
    def has_authority(self, tag_id: int) -> bool:
        return self.authority.has_authority(self._principal, tag_id)

    def _require_authority(self, tag_id: int) -> None:
        """The one authority check behind ``declassify`` and ``endorse``;
        subclasses answer ``has_authority`` (the platform from its
        cache)."""
        if not self.has_authority(tag_id):
            raise AuthorityError(
                "principal %r has no authority for tag %r"
                % (self._name(), self.authority.tags.get(tag_id).name))

    def _name(self) -> Optional[str]:
        if self._principal is None:
            return None
        return self.authority.principals.get(self._principal).name

    def with_reduced_authority(self, principal: int, fn: Callable, *args,
                               **kwargs):
        """Run ``fn`` with the authority of ``principal`` (section 3.3).

        The label is shared — contamination picked up inside persists —
        but authority is restored afterwards.  No check is made that the
        new principal is "weaker"; the point is choosing *which* authority
        is exposed to the callee.
        """
        saved = self._principal
        self.authority.principals.get(principal)
        self._principal = principal
        self._bump()
        try:
            return fn(*args, **kwargs)
        finally:
            self._principal = saved
            self._bump()

    def make_closure(self, name: str, fn: Callable,
                     principal: Optional[int] = None,
                     grant_tags: Iterable[int] = ()) -> Closure:
        """Create an authority closure.

        By default the closure is bound to a *fresh* principal to which the
        creator delegates exactly ``grant_tags`` — the least-privilege
        pattern of section 3.3.  The creator must hold every granted tag's
        authority (delegation enforces this).  Alternatively an existing
        ``principal`` can be bound directly.
        """
        if principal is None:
            closure_principal = self.authority.create_principal(
                "closure:%s" % name)
            for tag_id in grant_tags:
                self.authority.delegate(tag_id, self._principal,
                                        closure_principal.id, process=self)
            principal = closure_principal.id
        else:
            self.authority.principals.get(principal)
        return Closure(name=name, fn=fn, principal=principal)

    def call_closure(self, closure: Closure, *args, **kwargs):
        """Invoke a closure with its bound authority (section 3.3)."""
        return self.with_reduced_authority(closure.principal, closure.fn,
                                           *args, **kwargs)

    # ------------------------------------------------------------------
    # authority-state mutation through the process (empty-label checks)
    # ------------------------------------------------------------------
    def delegate(self, tag_id: int, grantee: int) -> None:
        """Delegate authority for a tag to another principal.

        Requires this process to have an empty label (the authority state
        is an empty-labelled object, section 3.2)."""
        self.authority.delegate(tag_id, self._principal, grantee, process=self)

    def revoke(self, tag_id: int, grantee: int) -> None:
        self.authority.revoke(tag_id, self._principal, grantee, process=self)

    def __repr__(self) -> str:
        return "IFCProcess(principal=%r, label=%r)" % (self._name(),
                                                        self._label)
