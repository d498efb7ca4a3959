"""The authority state (sections 3.2–3.3).

The authority state records principals, tags, and delegations.  It is
itself an object with an *empty label*: mutations that could act as a
covert channel (delegation and revocation) require the calling process to
have an empty label, which is enforced by :class:`~repro.core.process.IFCProcess`
passing itself to the mutators.

Authority model:

* every tag has an *owner* principal with complete authority over it;
* authority can be *delegated*: a principal with authority for a tag may
  grant it to another principal, and may later *revoke* its own grant;
* revocation is transitive — authority holds only while the grantee is
  reachable from the owner through live delegation edges;
* authority for a *compound* tag implies authority for every member tag
  (transitively), because declassifying the compound declassifies them.

The state carries a monotonically increasing ``version`` so that caches
(the platform's authority cache, section 7.2) can invalidate cheaply.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from ..errors import AuthorityError, IFCViolation, UnknownTagError
from .idgen import IdGenerator
from .labels import Label
from .principals import Principal, PrincipalRegistry
from .tags import INTEGRITY, SECRECY, Tag, TagRegistry


class AuthorityState:
    """Principals, tags, compound membership, and the delegation graph."""

    def __init__(self, idgen: Optional[IdGenerator] = None):
        self.tags = TagRegistry()
        self.principals = PrincipalRegistry()
        self._idgen = idgen or IdGenerator()
        self._used_ids: Set[int] = set()
        # (tag_id) -> {grantee_id -> set of grantor_ids}
        self._grants: Dict[int, Dict[int, Set[int]]] = {}
        self.version = 0
        # The distinguished "system" principal bootstraps the state; it is
        # the analogue of the platform's root of trust, not the DBA (the
        # DBA deliberately has no declassification authority, section 3.3).
        self.system = self._new_principal("system")

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _fresh_id(self) -> int:
        new_id = self._idgen.next_id(self._used_ids)
        self._used_ids.add(new_id)
        return new_id

    def _bump(self) -> None:
        self.version += 1

    def _new_principal(self, name: str) -> Principal:
        principal = Principal(id=self._fresh_id(), name=name)
        self.principals.add(principal)
        self._bump()
        return principal

    @staticmethod
    def _require_empty_label(process) -> None:
        if process is not None and len(process.label) > 0:
            raise IFCViolation(
                "the authority state has an empty label; a process with a "
                "non-empty label (%r) cannot modify it" % (process.label,))

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------
    def create_principal(self, name: str) -> Principal:
        """Create a new principal.  Ids come from the CSPRNG (section 7.3)."""
        principal = self._new_principal(name)
        return principal

    def create_tag(self, name: str, owner: int, *,
                   compounds: Iterable[int] = (),
                   kind: str = SECRECY,
                   creator: Optional[int] = None) -> Tag:
        """Create a tag owned by ``owner``; membership is fixed forever.

        Any principal can create a tag and becomes its owner (section 3.2).
        Linking into a compound requires the *creator* (defaults to the
        owner) to have authority for the compound — otherwise an attacker
        could smuggle a tag under someone else's declassification
        umbrella.  Trusted setup code typically owns the compounds and
        creates user tags with ``owner=user`` (section 6.4's authority
        schema instantiation).
        """
        return self._create_tag(name, owner, compounds, kind, creator,
                                is_compound=False)

    def create_compound_tag(self, name: str, owner: int, *,
                            compounds: Iterable[int] = (),
                            kind: str = SECRECY,
                            creator: Optional[int] = None) -> Tag:
        """Create a compound tag (a group usable as a unit, section 3.1)."""
        return self._create_tag(name, owner, compounds, kind, creator,
                                is_compound=True)

    def _create_tag(self, name: str, owner: int, compounds: Iterable[int],
                    kind: str, creator: Optional[int],
                    is_compound: bool) -> Tag:
        self.principals.get(owner)
        acting = owner if creator is None else creator
        compound_ids = tuple(compounds)
        for compound_id in compound_ids:
            if not self.has_authority(acting, compound_id):
                raise AuthorityError(
                    "principal %d lacks authority for compound tag %d and so "
                    "cannot add members to it" % (acting, compound_id))
        tag = Tag(id=self._fresh_id(), name=name, owner=owner, kind=kind,
                  is_compound=is_compound, compounds=frozenset(compound_ids))
        self.tags.add(tag)
        self._bump()
        return tag

    # ------------------------------------------------------------------
    # delegation and revocation
    # ------------------------------------------------------------------
    def delegate(self, tag_id: int, grantor: int, grantee: int,
                 *, process=None) -> None:
        """Grant ``grantee`` authority for ``tag_id`` on behalf of ``grantor``.

        The grantor must itself have authority.  If ``process`` is given it
        must have an empty label (the authority state's label), preventing
        contaminated processes from using delegations as a covert channel.
        """
        self._require_empty_label(process)
        self.tags.get(tag_id)
        self.principals.get(grantor)
        self.principals.get(grantee)
        if not self.has_authority(grantor, tag_id):
            raise AuthorityError(
                "principal %d has no authority for tag %d to delegate"
                % (grantor, tag_id))
        grantors = self._grants.setdefault(tag_id, {}).setdefault(grantee, set())
        grantors.add(grantor)
        self._bump()

    def revoke(self, tag_id: int, grantor: int, grantee: int,
               *, process=None) -> None:
        """Remove a previously made delegation.

        Only the edge (grantor → grantee) is removed; whether the grantee
        retains authority depends on whether another live path from the
        owner remains.  Requires an empty process label, like delegation.
        """
        self._require_empty_label(process)
        grantors = self._grants.get(tag_id, {}).get(grantee)
        if not grantors or grantor not in grantors:
            raise AuthorityError(
                "no delegation of tag %d from %d to %d" % (tag_id, grantor,
                                                           grantee))
        grantors.discard(grantor)
        if not grantors:
            del self._grants[tag_id][grantee]
        self._bump()

    # ------------------------------------------------------------------
    # authority queries
    # ------------------------------------------------------------------
    def _has_direct_authority(self, principal_id: int, tag_id: int) -> bool:
        """Authority for exactly this tag: ownership or a live delegation
        chain from the owner."""
        tag = self.tags.get(tag_id)
        if tag.owner == principal_id:
            return True
        grants = self._grants.get(tag_id)
        if not grants:
            return False
        # Authority holds iff principal_id is reachable from the owner in
        # the reversed grant graph.  Walk backwards from the principal
        # towards the owner (graphs are tiny in practice).
        seen: Set[int] = set()
        stack = [principal_id]
        while stack:
            current = stack.pop()
            if current == tag.owner:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(grants.get(current, ()))
        return False

    def has_authority(self, principal_id: int, tag_id: int) -> bool:
        """True if the principal can declassify ``tag_id``.

        Holds directly, or via any compound tag that contains it: being
        able to declassify ``all_contacts`` implies being able to
        declassify ``cathy_contact`` (section 6.2).
        """
        if self._has_direct_authority(principal_id, tag_id):
            return True
        for compound_id in self.tags.compounds_of(tag_id):
            if self._has_direct_authority(principal_id, compound_id):
                return True
        return False

    def check_authority(self, principal_id: int, tag_id: int) -> None:
        if not self.has_authority(principal_id, tag_id):
            principal = self.principals.get(principal_id)
            tag = self.tags.get(tag_id)
            raise AuthorityError(
                "principal %r has no authority for tag %r"
                % (principal.name, tag.name))

    # ------------------------------------------------------------------
    # label helpers that need compound expansion
    # ------------------------------------------------------------------
    def expand(self, label: Label) -> FrozenSet[int]:
        """Tag-id closure of a label with compounds expanded."""
        return self.tags.expand(label.tags)

    def resolve_tags(self, names: Iterable[str]) -> Tuple[int, ...]:
        """Map tag names to ids (convenience for SQL and tests)."""
        return tuple(self.tags.lookup(n).id for n in names)

    def label_of(self, *names: str) -> Label:
        """Build a label from tag names."""
        return Label(self.resolve_tags(names))

    def describe_label(self, label: Label) -> Tuple[str, ...]:
        """Human-readable tag names of a label (sorted)."""
        return self.tags.names(label.tags)
