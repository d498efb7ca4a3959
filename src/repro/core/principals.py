"""Principals (section 3.2).

Principals are the entities with security interests: users, roles, and
services.  Authority over tags is bound to principals; each process runs
with the authority of exactly one principal at a time (reduced-authority
calls and closures switch it temporarily).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import UnknownPrincipalError


@dataclass(frozen=True)
class Principal:
    """A principal record in the authority state."""

    id: int
    name: str


class PrincipalRegistry:
    """Stores principal records, indexed by id and by unique name."""

    def __init__(self):
        self._principals: Dict[int, Principal] = {}
        self._by_name: Dict[str, int] = {}

    def add(self, principal: Principal) -> None:
        if principal.id in self._principals:
            raise ValueError("duplicate principal id %d" % principal.id)
        if principal.name in self._by_name:
            raise ValueError("duplicate principal name %r" % principal.name)
        self._principals[principal.id] = principal
        self._by_name[principal.name] = principal.id

    def get(self, principal_id: int) -> Principal:
        try:
            return self._principals[principal_id]
        except KeyError:
            raise UnknownPrincipalError(
                "no principal with id %d" % principal_id) from None

    def __contains__(self, principal_id: int) -> bool:
        return principal_id in self._principals

    def __len__(self) -> int:
        return len(self._principals)
