"""The platform's authority cache (section 7.2).

PHP-IF keeps a shared-memory cache of principals, tags, and authority
state because the platform "frequently checks whether the current
principal is allowed to release information given the contamination
reflected in the process's label", and asking the database every time
would dominate request latency.

This cache memoizes ``has_authority`` lookups, invalidated wholesale
whenever the authority state's version counter moves (delegations,
revocations, or new tags).  Hit/miss statistics feed the benchmark
gate's ``platform.cache.authority_hit_rate`` (``benchmarks/e2e``).
"""

from __future__ import annotations

from typing import Dict, Tuple


class AuthorityCache:
    """Version-validated memo of (principal, tag) -> bool."""

    def __init__(self, authority):
        self.authority = authority
        self._entries: Dict[Tuple[int, int], bool] = {}
        self._version = authority.version
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def _validate(self) -> None:
        if self.authority.version != self._version:
            self._entries.clear()
            self._version = self.authority.version
            self.invalidations += 1

    def has_authority(self, principal: int, tag: int) -> bool:
        self._validate()
        key = (principal, tag)
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = self.authority.has_authority(principal, tag)
        self._entries[key] = result
        return result
