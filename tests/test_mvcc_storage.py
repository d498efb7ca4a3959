"""MVCC internals, vacuum, the page model, and the buffer cache."""

import pytest

from repro.core import IFCProcess, Label, counters
from repro.db import Database
from repro.db.pages import BufferCache, HeapPageAllocator


class TestVersionChains:
    def test_update_creates_new_version(self, db):
        session = db.connect()
        session.execute("CREATE TABLE t (x INT PRIMARY KEY, y INT)")
        session.execute("INSERT INTO t VALUES (1, 10)")
        reader = db.connect()
        reader.execute("BEGIN")               # pins the old version
        session.execute("UPDATE t SET y = 20 WHERE x = 1")
        table = db.catalog.get_table("t")
        assert session.execute("SELECT y FROM t").scalar() == 20
        assert table.version_count == 2       # old + new version
        assert reader.execute("SELECT y FROM t").scalar() == 10

    def test_vacuum_reclaims_dead_versions(self, db):
        session = db.connect()
        session.execute("CREATE TABLE t (x INT PRIMARY KEY, y INT)")
        session.execute("INSERT INTO t VALUES (1, 10)")
        reader = db.connect()
        reader.execute("BEGIN")               # the chain must survive it
        for i in range(5):
            session.execute("UPDATE t SET y = ? WHERE x = 1", (i,))
        table = db.catalog.get_table("t")
        assert table.version_count == 6
        assert db.vacuum("t") == 0
        reader.execute("COMMIT")
        removed = db.vacuum("t")              # ahead of the next begin()
        assert removed == 5
        assert table.version_count == 1
        # Data intact after vacuum.
        assert session.execute("SELECT y FROM t").scalar() == 4

    def test_vacuum_respects_active_snapshots(self, db):
        session = db.connect()
        session.execute("CREATE TABLE t (x INT PRIMARY KEY, y INT)")
        session.execute("INSERT INTO t VALUES (1, 10)")
        reader = db.connect()
        reader.execute("BEGIN")
        reader.execute("SELECT * FROM t")
        session.execute("UPDATE t SET y = 20 WHERE x = 1")
        assert db.vacuum("t") == 0            # old version still needed
        assert reader.execute("SELECT y FROM t").scalar() == 10
        reader.execute("COMMIT")
        assert db.vacuum("t") == 1

    def test_aborted_inserts_vacuumed(self, db):
        session = db.connect()
        session.execute("CREATE TABLE t (x INT PRIMARY KEY)")
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1)")
        session.execute("ROLLBACK")
        assert db.vacuum("t") == 1


class TestPageModel:
    def test_allocator_fills_pages(self):
        allocator = HeapPageAllocator("t", page_size=100)
        pages = {allocator.place(40) for _ in range(5)}
        assert pages == {0, 1, 2}          # 2 per 100-byte page

    def test_labels_increase_tuple_size(self, authority):
        db_plain = Database(authority, seed=1)
        principal = authority.create_principal("p")
        tags = [authority.create_tag("t%d" % i, owner=principal.id)
                for i in range(10)]
        process = IFCProcess(authority, principal.id)
        session = db_plain.connect(process)
        session.execute("CREATE TABLE t (x INT PRIMARY KEY)")
        session.execute("INSERT INTO t VALUES (1)")
        for tag in tags:
            process.add_secrecy(tag.id)
        session.execute("INSERT INTO t VALUES (2)")
        versions = list(db_plain.catalog.get_table("t").all_versions())
        # 4 bytes per tag (section 8.3).
        assert versions[1].size - versions[0].size == 40

    def test_baseline_stores_no_label_bytes(self, authority):
        db_base = Database(authority, ifc_enabled=False, seed=1)
        principal = authority.create_principal("p2")
        tag = authority.create_tag("zz", owner=principal.id)
        process = IFCProcess(authority, principal.id)
        session = db_base.connect(process)
        session.execute("CREATE TABLE t (x INT PRIMARY KEY)")
        session.execute("INSERT INTO t VALUES (1)")
        process.add_secrecy(tag.id)
        session.execute("INSERT INTO t VALUES (2)")
        versions = list(db_base.catalog.get_table("t").all_versions())
        assert versions[0].size == versions[1].size


def _charged(touches):
    """The counter delta of touching ``(cache, page)`` pairs in order."""
    before = counters.read()
    for cache, page in touches:
        cache.touch_run("t", page, 1)
    return counters.delta(before, counters.read())


class TestBufferCache:
    def test_unbounded_cache_never_misses(self):
        cache = BufferCache(capacity=None)
        delta = _charged((cache, i) for i in range(100))
        assert delta["buffer_misses"] == 0
        assert delta["buffer_hits"] == 100

    def test_lru_eviction_and_penalty(self):
        cache = BufferCache(capacity=2, io_penalty=0.5)
        # 1, 2, 1 (hit), 3 (evicts 2, the LRU page), 2 (a miss again)
        delta = _charged((cache, page) for page in (1, 2, 1, 3, 2))
        assert delta["buffer_hits"] == 1
        assert delta["buffer_misses"] == 4
        assert delta["buffer_evictions"] == 2
        assert delta["simulated_io_time"] == pytest.approx(2.0)

    def test_small_cache_causes_io_in_engine(self, authority):
        db_disk = Database(authority, buffer_pages=4, io_penalty=0.001,
                           page_size=256, seed=3)
        session = db_disk.connect()
        session.execute("CREATE TABLE t (x INT PRIMARY KEY, pad TEXT)")
        for i in range(200):
            session.execute("INSERT INTO t VALUES (?, ?)",
                            (i, "p" * 64))
        session.query("SELECT * FROM t WHERE pad LIKE 'q%'")   # full scan
        delta = db_disk.last_statement_metrics()
        assert delta["buffer_misses"] > 0
        assert delta["simulated_io_time"] > 0


class TestDeterministicOrder:
    def test_flag_orders_results(self, authority):
        db_det = Database(authority, deterministic_order=True, seed=4)
        session = db_det.connect()
        session.execute("CREATE TABLE t (x INT PRIMARY KEY)")
        for value in (3, 1, 2):
            session.execute("INSERT INTO t VALUES (?)", (value,))
        rows = session.query("SELECT x FROM t")
        assert [r[0] for r in rows] == [1, 2, 3]
