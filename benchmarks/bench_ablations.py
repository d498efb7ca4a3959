"""Ablation benchmarks for the design choices DESIGN.md calls out.

* authority cache on/off (section 7.2: "the cache is important");
* label-operation micro-costs, including compound expansion;
* label filtering at the scan layer (the section 7.1 design) vs the
  cost of scanning without labels at all;
* polyinstantiation-permitting unique checks vs MATCH LABEL
  constraints that forbid it;
* projection pushdown: a narrow scan that materializes 2 of 8 columns
  vs the same rows at full width.
"""

import random

import pytest

from repro.core import AuthorityState, IFCProcess, Label, SeededIdGenerator
from repro.core.rules import covers, strip
from repro.db import Database
from repro.platform import AuthorityCache
from repro.bench import ReportTable, relative

from .common import SMOKE, report, smoke


# ---------------------------------------------------------------------------
# authority cache
# ---------------------------------------------------------------------------

def _authority_with_chain(depth=6):
    authority = AuthorityState(idgen=SeededIdGenerator(1))
    principals = [authority.create_principal("p%d" % i)
                  for i in range(depth)]
    tag = authority.create_tag("t", owner=principals[0].id)
    for grantor, grantee in zip(principals, principals[1:]):
        authority.delegate(tag.id, grantor.id, grantee.id)
    return authority, principals[-1].id, tag.id


def test_ablation_authority_cache(benchmark):
    authority, principal, tag = _authority_with_chain()
    cached = AuthorityCache(authority, enabled=True)
    uncached = AuthorityCache(authority, enabled=False)

    def run(cache):
        import time
        start = time.perf_counter()
        for _ in range(20000):
            cache.has_authority(principal, tag)
        return time.perf_counter() - start

    with_cache = run(cached)
    without_cache = run(uncached)
    table = ReportTable(
        "Ablation — platform authority cache (20k release checks)",
        ["configuration", "seconds", "vs uncached"])
    table.add("cache enabled", "%.4f" % with_cache,
              relative(with_cache, without_cache))
    table.add("cache disabled", "%.4f" % without_cache, "")
    report(table)
    assert with_cache < without_cache        # the paper's claim

    benchmark(lambda: cached.has_authority(principal, tag))


# ---------------------------------------------------------------------------
# label operations
# ---------------------------------------------------------------------------

def test_ablation_label_ops(benchmark):
    authority = AuthorityState(idgen=SeededIdGenerator(2))
    owner = authority.create_principal("owner")
    compound = authority.create_compound_tag("all", owner=owner.id)
    members = [authority.create_tag("m%d" % i, owner=owner.id,
                                    compounds=(compound.id,))
               for i in range(64)]
    registry = authority.tags
    small = Label([members[0].id])
    big = Label([m.id for m in members[:10]])
    compound_label = Label([compound.id])

    import time
    table = ReportTable("Ablation — label operation micro-costs (1M ops)",
                        ["operation", "ns/op"])

    def time_op(fn):
        n = 200000
        start = time.perf_counter()
        for _ in range(n):
            fn()
        return (time.perf_counter() - start) / n * 1e9

    table.add("covers, plain subset hit",
              "%.0f" % time_op(lambda: covers(registry, small, big)))
    table.add("covers, via compound expansion",
              "%.0f" % time_op(lambda: covers(registry, big,
                                              compound_label)))
    table.add("union (disjoint)",
              "%.0f" % time_op(lambda: small.union(big)))
    table.add("strip compound",
              "%.0f" % time_op(lambda: strip(registry, big,
                                             compound_label)))
    report(table)

    benchmark(lambda: covers(registry, big, compound_label))


# ---------------------------------------------------------------------------
# label filtering at the scan layer
# ---------------------------------------------------------------------------

def _scan_db(ifc_enabled):
    authority = AuthorityState(idgen=SeededIdGenerator(3))
    db = Database(authority, ifc_enabled=ifc_enabled, seed=3)
    owner = authority.create_principal("owner")
    tags = [authority.create_tag("s%d" % i, owner=owner.id)
            for i in range(4)]
    process = IFCProcess(authority, owner.id)
    session = db.connect(process)
    session.execute("CREATE TABLE big (x INT PRIMARY KEY, y INT)")
    rng = random.Random(3)
    for i in range(3000):
        tag = tags[i % len(tags)]
        process.add_secrecy(tag.id)
        session.execute("INSERT INTO big VALUES (?, ?)",
                        (i, rng.randint(0, 100)))
        process.declassify(tag.id)
    for tag in tags:
        process.add_secrecy(tag.id)
    return db, session


def test_ablation_scan_label_filtering(benchmark):
    import time

    def scan_time(session):
        start = time.perf_counter()
        for _ in range(20):
            session.execute("SELECT COUNT(*) FROM big WHERE y < 50")
        return (time.perf_counter() - start) / 20

    _db_ifc, session_ifc = _scan_db(True)
    _db_raw, session_raw = _scan_db(False)
    with_labels = scan_time(session_ifc)
    without_labels = scan_time(session_raw)
    table = ReportTable(
        "Ablation — per-tuple label check in the scan layer "
        "(3000-row seq scan)",
        ["configuration", "ms/scan", "overhead"])
    table.add("IFDB (label filter per tuple)", "%.3f" % (with_labels * 1e3),
              relative(with_labels, without_labels))
    table.add("baseline (no labels)", "%.3f" % (without_labels * 1e3), "")
    report(table)

    benchmark(lambda: session_ifc.execute(
        "SELECT COUNT(*) FROM big WHERE y < 50"))


# ---------------------------------------------------------------------------
# projection pushdown
# ---------------------------------------------------------------------------

def _wide_db():
    db = Database(ifc_enabled=False, seed=5)
    session = db.connect()
    session.execute("CREATE TABLE wide (a INT PRIMARY KEY, b INT, c INT,"
                    " d INT, p1 TEXT, p2 TEXT, p3 TEXT, p4 TEXT)")
    session.begin()
    for i in range(smoke(5000, 200)):
        session.execute(
            "INSERT INTO wide VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (i, i % 97, (i * 13) % 1009, i % 7,
             "pad-one-%04d" % (i % 50), "pad-two-%04d" % (i % 50),
             "pad-three-%04d" % (i % 50), "pad-four-%04d" % (i % 50)))
    session.commit()
    session.execute("ANALYZE")
    return db, session


def test_ablation_projection_pushdown(benchmark):
    """A scan that reads 2 of 8 columns should never pay for the other
    6 (4 of them wide strings): the columnar batches copy exactly the
    cells the plan needs."""
    import time

    from repro.core import counters

    _db, session = _wide_db()

    def scan_time(sql):
        best = None
        for _round in range(smoke(3, 1)):
            start = time.perf_counter()
            for _ in range(smoke(5, 1)):
                session.execute(sql)
            elapsed = (time.perf_counter() - start) / smoke(5, 1)
            best = elapsed if best is None else min(best, elapsed)
        return best

    counters.reset()
    rows = len(session.execute("SELECT b, c FROM wide").rows)
    narrow_cells = counters.tally().columns_materialized
    narrow = scan_time("SELECT b, c FROM wide")
    full = scan_time("SELECT * FROM wide")
    table = ReportTable(
        "Ablation — projection pushdown (%d-row scan, 2 of 8 columns)"
        % rows,
        ["query", "ms/scan", "vs full width"])
    table.add("SELECT b, c", "%.3f" % (narrow * 1e3),
              relative(narrow, full))
    table.add("SELECT *", "%.3f" % (full * 1e3), "")
    report(table)
    assert narrow_cells == 2 * rows
    if not SMOKE:
        assert narrow < full

    benchmark(lambda: session.execute("SELECT b, c FROM wide"))


# ---------------------------------------------------------------------------
# polyinstantiation vs label constraints
# ---------------------------------------------------------------------------

def test_ablation_polyinstantiation(benchmark):
    """Cost of the label-aware unique check, and proof that the MATCH
    LABEL constraint prevents polyinstantiation outright."""
    authority = AuthorityState(idgen=SeededIdGenerator(4))
    db = Database(authority, seed=4)
    owner = authority.create_principal("owner")
    tag = authority.create_tag("secret", owner=owner.id)
    session = db.connect(IFCProcess(authority, owner.id))
    session.execute("CREATE TABLE plain (k INT PRIMARY KEY)")

    labelled = IFCProcess(authority, owner.id)
    labelled_session = db.connect(labelled)
    labelled.add_secrecy(tag.id)
    for i in range(500):
        labelled_session.execute("INSERT INTO plain VALUES (?)", (i,))

    # Unlabelled inserts of the same keys: every one polyinstantiates.
    import time
    start = time.perf_counter()
    for i in range(500):
        session.execute("INSERT INTO plain VALUES (?)", (i,))
    poly_time = time.perf_counter() - start
    poly_count = db.catalog.get_table("plain").polyinstantiation_count

    table = ReportTable(
        "Ablation — polyinstantiating unique checks",
        ["metric", "value"])
    table.add("conflicting inserts", 500)
    table.add("polyinstantiated rows", poly_count)
    table.add("ms per insert (conflict path)",
              "%.3f" % (poly_time / 500 * 1e3))
    report(table)
    assert poly_count == 500

    fresh = iter(range(10_000, 10_000_000))
    benchmark(lambda: session.execute("INSERT INTO plain VALUES (?)",
                                      (next(fresh),)))
