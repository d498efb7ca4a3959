"""The information flow rules (sections 3.2, 4.2, 5.1).

These predicates are shared by the database engine and the application
platform so there is exactly one implementation of each rule:

* **Information Flow Rule** — information may flow from a source labelled
  ``LS`` to a destination labelled ``LD`` iff ``LS ⊆ LD``.
* **Label Confinement Rule** — a query by a process labelled ``LP`` sees
  only tuples ``T`` with ``LT ⊆ LP``.
* **Write Rule** — a process labelled ``LP`` may write a tuple labelled
  ``LT`` only if ``LT ⊇ LP``; combined with confinement, writes carry
  exactly ``LP``.
* **Commit Label Rule** — a transaction may commit only if its label at
  the commit point is no more contaminated than any tuple in its write
  set (``L_commit ⊆ LT`` for every written tuple).

All subset comparisons expand compound tags: a label containing
``all_drives`` covers one containing ``alice_drives``.  Integrity labels
obey the dual rules (``LS ⊇ LD`` for flows).

The expansion-path comparisons are *memoized* per registry, keyed on
``(tuple_label, process_label, registry_version)``: labels are interned
(:mod:`repro.core.labels`), compound membership is fixed at tag-creation
time, and the registry version bumps on every tag registration — so a
cached verdict can never go stale, and the per-tuple ``covers``/``strip``
calls on the scan hot path (Query by Label, section 4.2) collapse to a
single dict hit once a (label, label) pair has been seen.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

from .counters import tally
from .labels import Label
from .tags import TagRegistry

_CACHE_CAP = 1 << 16


class _RuleCache:
    """Memoized covers/strip verdicts for one registry version."""

    __slots__ = ("version", "covers", "strip")

    def __init__(self, version):
        self.version = version
        self.covers = {}
        self.strip = {}


_RULE_CACHES: "WeakKeyDictionary[TagRegistry, _RuleCache]" = \
    WeakKeyDictionary()


def _cache_for(registry: TagRegistry) -> _RuleCache:
    cache = _RULE_CACHES.get(registry)
    version = getattr(registry, "version", None)
    if cache is None or cache.version != version:
        cache = _RuleCache(version)
        _RULE_CACHES[registry] = cache
    return cache


def covers(registry: TagRegistry, low: Label, high: Label) -> bool:
    """True iff ``low ⊆ high`` after compound expansion.

    "``high`` covers ``low``": every tag of ``low`` appears in ``high``
    either directly or as a member of one of ``high``'s compound tags.
    """
    tally().covers_calls += 1
    if low.issubset(high):              # fast path: plain subset
        return True
    memo = _cache_for(registry).covers
    key = (low, high)
    verdict = memo.get(key)
    if verdict is None:
        verdict = low.issubset(registry.expand(high))
        if len(memo) < _CACHE_CAP:
            memo[key] = verdict
    return verdict


def same_contamination(registry: TagRegistry, a: Label, b: Label) -> bool:
    """True iff the two labels denote the same contamination.

    Used by the update/delete rule ("affect only tuples with label LP"):
    equality up to compound expansion.
    """
    if a is b or a == b:                # interned: equal is identical
        return True
    return covers(registry, a, b) and covers(registry, b, a)


def can_flow(registry: TagRegistry, source: Label, destination: Label) -> bool:
    """The Information Flow Rule for secrecy labels."""
    return covers(registry, source, destination)


def can_flow_integrity(registry: TagRegistry, source: Label,
                       destination: Label) -> bool:
    """The dual rule for integrity: the source must vouch for at least the
    destination's integrity (``IS ⊇ ID``)."""
    return covers(registry, destination, source)


def tuple_visible(registry: TagRegistry, tuple_label: Label,
                  process_label: Label) -> bool:
    """The Label Confinement Rule (section 4.2)."""
    return covers(registry, tuple_label, process_label)


def may_write(registry: TagRegistry, tuple_label: Label,
              process_label: Label) -> bool:
    """The Write Rule (section 4.2): ``LT ⊇ LP``."""
    return covers(registry, process_label, tuple_label)


def may_commit(registry: TagRegistry, commit_label: Label,
               written_label: Label) -> bool:
    """The commit-label rule (section 5.1): ``L_commit ⊆ LT``.

    All writes conceptually happen at the commit point, so committing with
    a label above a written tuple's label would launder information into
    a less-contaminated tuple.
    """
    return covers(registry, commit_label, written_label)


def strip(registry: TagRegistry, label: Label, declassified: Label) -> Label:
    """Remove from ``label`` every tag covered by ``declassified``.

    A compound tag in ``declassified`` strips all of its member tags.
    Used by declassifying views (section 4.3) and explicit declassify
    with compound authority.  Memoized like :func:`covers`: a
    declassifying view strips the same (label, declassify) pair for
    every tuple it scans.
    """
    tally().strip_calls += 1
    if not label or not declassified:
        return label
    memo = _cache_for(registry).strip
    key = (label, declassified)
    stripped = memo.get(key)
    if stripped is None:
        stripped = label.without(registry.expand(declassified))
        if len(memo) < _CACHE_CAP:
            memo[key] = stripped
    return stripped


def symmetric_difference(a: Label, b: Label) -> Label:
    """``LA △ LB`` — the tags in exactly one of the labels.

    The Foreign Key Rule (section 5.2.2) requires declassification
    authority over this set when inserting a referencing tuple.
    """
    return Label(a ^ b)
