"""The optimizer layer: access paths, range scans, row-count join
order and estimates, pushdown boundaries, EXPLAIN fidelity, ANALYZE,
and prepared-plan cache invalidation under concurrent DDL."""

import random
import re

import pytest

from repro.core import IFCProcess, counters
from repro.core.labels import EMPTY_LABEL
from repro.db import Database
from repro.db.logical import build_logical
from repro.db.optimizer import (
    DEFAULT_EQ_SEL,
    DEFAULT_LIKE_SEL,
    DEFAULT_NULL_SEL,
    DEFAULT_RANGE_SEL,
    DEFAULT_SEL,
    ROW_FLOOR,
)
from repro.db.physical import (
    Filter,
    HashJoin,
    IndexLoopJoin,
    IndexRangeScan,
    IndexScan,
    Scan,
    ViewPlan,
    explain_plan,
)
from repro.errors import CatalogError


def walk(plan):
    """Every operator in a physical plan tree, preorder."""
    yield plan
    for child in plan.children():
        yield from walk(child)


def plan_for(db, sql):
    return db.prepare_select(db.parse(sql), sql).plan


@pytest.fixture
def store():
    db = Database(ifc_enabled=False)
    session = db.connect()
    session.execute_script("""
        CREATE TABLE items (id INT PRIMARY KEY, category TEXT, price FLOAT);
        CREATE TABLE sales (sid INT PRIMARY KEY, item_id INT, qty INT);
    """)
    for i in range(20):
        session.execute("INSERT INTO items VALUES (?, ?, ?)",
                        (i, "cat%d" % (i % 3), float(i)))
        session.execute("INSERT INTO sales VALUES (?, ?, ?)",
                        (100 + i, i % 10, i))
    return db, session


class TestAccessPaths:
    def test_index_scan_for_pk_equality(self, store):
        db, _session = store
        plan = plan_for(db, "SELECT price FROM items WHERE id = 7")
        scans = [n for n in walk(plan) if isinstance(n, Scan)]
        assert len(scans) == 1
        assert isinstance(scans[0], IndexScan)
        assert scans[0].predicate is None        # fully consumed by the key

    def test_full_scan_without_index(self, store):
        db, _session = store
        plan = plan_for(db, "SELECT id FROM items WHERE category = 'cat1'")
        scans = [n for n in walk(plan) if isinstance(n, Scan)]
        assert not isinstance(scans[0], IndexScan)
        assert scans[0].predicate is not None    # pushed-down filter

    def test_index_scan_keeps_residual_predicate(self, store):
        db, session = store
        session.execute("CREATE INDEX items_cat ON items (category)")
        plan = plan_for(
            db, "SELECT id FROM items WHERE category = 'cat1' AND price > 5")
        scans = [n for n in walk(plan) if isinstance(n, IndexScan)]
        assert len(scans) == 1
        assert scans[0].index.name == "items_cat"
        assert scans[0].predicate is not None    # price > 5 stays residual
        rows = session.query(
            "SELECT id FROM items WHERE category = 'cat1' AND price > 5")
        assert sorted(r[0] for r in rows) == [7, 10, 13, 16, 19]

    def test_equality_results_match_full_scan(self, store):
        db, session = store
        with_index = session.query("SELECT price FROM items WHERE id = 7")
        # The same predicate on an unindexed expression goes through a
        # full scan; results must agree.
        no_index = session.query(
            "SELECT price FROM items WHERE id + 0 = 7")
        assert [list(r) for r in with_index] == [list(r) for r in no_index]

    def test_index_join_selected_for_equi_join(self, store):
        db, _session = store
        plan = plan_for(db, "SELECT s.qty FROM sales s "
                            "JOIN items i ON i.id = s.item_id")
        assert any(isinstance(n, IndexLoopJoin) for n in walk(plan))

    def test_hash_join_when_inner_has_no_index(self, store):
        db, _session = store
        plan = plan_for(db, "SELECT s.qty FROM sales s "
                            "JOIN items i ON i.category = s.item_id")
        assert any(isinstance(n, HashJoin) for n in walk(plan))

    def test_transitive_equi_join_keeps_both_conditions(self, store):
        # a.id = b.id AND b.id = c.id funnels two equi-pairs onto the
        # same inner column after join reordering; the probe consumes
        # one, the other must survive as a residual condition.
        db, session = store
        session.execute_script("""
            CREATE TABLE ta (id INT PRIMARY KEY, x INT);
            CREATE TABLE tb (id INT PRIMARY KEY, y INT);
            CREATE TABLE tc (id INT PRIMARY KEY, z INT);
        """)
        for i in range(5):
            session.execute("INSERT INTO ta VALUES (?, ?)", (i, 10 * i))
            session.execute("INSERT INTO tb VALUES (?, ?)", (i, 100 * i))
            session.execute("INSERT INTO tc VALUES (?, ?)", (i, 1000 * i))
        rows = session.query(
            "SELECT a.x, b.y, c.z FROM ta a, tb b, tc c "
            "WHERE a.id = b.id AND b.id = c.id AND c.z = 3000")
        assert [list(r) for r in rows] == [[30, 300, 3000]]

    def test_constant_folding_in_pushed_predicate(self, store):
        db, _session = store
        plan = plan_for(db, "SELECT price FROM items WHERE id = 3 + 4")
        scans = [n for n in walk(plan) if isinstance(n, IndexScan)]
        assert len(scans) == 1
        assert "id = 7" in scans[0].explain


class TestViewBoundary:
    """Pushdown must never move a predicate past a label-stripping view."""

    def _census(self, medical):
        clinic = medical.db.connect(medical.process_for(medical.clinic))
        clinic.execute(
            "CREATE VIEW census AS SELECT patient_name, condition "
            "FROM HIVPatients WITH DECLASSIFYING (all_medical)")
        return clinic

    def test_filter_stays_above_view_plan(self, medical):
        session = self._census(medical)
        sql = ("SELECT patient_name FROM census "
               "WHERE LABEL_SIZE(_label) = 0")
        plan = plan_for(medical.db, sql)
        # Structure: the predicate is a Filter wrapping the ViewPlan,
        # and the scan below the boundary carries no pushed predicate.
        filters = [n for n in walk(plan) if isinstance(n, Filter)]
        assert any(isinstance(f.child, ViewPlan) for f in filters)
        scans = [n for n in walk(plan) if isinstance(n, Scan)]
        assert all(s.predicate is None for s in scans)

    def test_predicate_observes_stripped_labels(self, medical):
        session = self._census(medical)
        # The view strips every patient tag, so the *output* labels are
        # empty; a predicate evaluated above the boundary sees size 0.
        # (Below the boundary each tuple's stored label has one tag.)
        rows = session.query("SELECT patient_name FROM census "
                             "WHERE LABEL_SIZE(_label) = 0")
        assert len(rows) == 3
        assert session.query("SELECT patient_name FROM census "
                             "WHERE LABEL_SIZE(_label) > 0") == []


class TestExplain:
    def test_explain_matches_executed_plan(self, store):
        db, session = store
        sql = ("SELECT s.qty, i.price FROM sales s "
               "JOIN items i ON i.id = s.item_id "
               "WHERE s.qty > 3 ORDER BY i.price LIMIT 4")
        explain_rows = [r[0] for r in session.execute("EXPLAIN " + sql)]
        prepared = db.prepare_select(db.parse(sql), sql)
        assert explain_rows == explain_plan(prepared.plan)
        # And the plan executes: EXPLAIN described a runnable tree.
        assert len(session.query(sql)) == 4

    def test_explain_shows_index_access_path(self, store):
        _db, session = store
        rows = [r[0] for r in session.execute(
            "EXPLAIN SELECT price FROM items WHERE id = ? AND price > 1")]
        index_lines = [line for line in rows if "IndexScan" in line]
        assert len(index_lines) == 1
        assert "id = ?" in index_lines[0]
        assert "filter (price > 1)" in index_lines[0]

    def test_explain_dml(self, store):
        _db, session = store
        rows = [r[0] for r in session.execute(
            "EXPLAIN UPDATE items SET price = 0 WHERE id = 3")]
        assert rows[0] == "Update items"
        assert "IndexScan items using" in rows[1]
        assert "id = 3" in rows[1]

    def test_explain_dml_shows_range_access_path(self, store):
        # The acceptance shape for unified DML planning: a range
        # predicate on an ordered-indexed column plans as an
        # IndexRangeScan, with the optimizer's cost/row annotations.
        _db, session = store
        session.execute(
            "CREATE ORDERED INDEX items_cat_price ON items "
            "(category, price)")
        rows = [r[0] for r in session.execute(
            "EXPLAIN UPDATE items SET price = 0 WHERE "
            "category = 'cat1' AND price BETWEEN 4 AND 9")]
        assert rows[0] == "Update items"
        assert "IndexRangeScan items using items_cat_price" in rows[1]
        assert "price >= 4" in rows[1] and "price <= 9" in rows[1]
        assert "(cost=" in rows[1] and "rows=" in rows[1]
        rows = [r[0] for r in session.execute(
            "EXPLAIN DELETE FROM items WHERE category = 'cat2' "
            "AND price > 10")]
        assert rows[0] == "Delete items"
        assert "IndexRangeScan items using items_cat_price" in rows[1]
        assert "price > 10" in rows[1]
        assert "(cost=" in rows[1]

    def test_explain_matches_executed_dml_plan(self, store):
        db, session = store
        sql = "UPDATE items SET price = price + 1 WHERE id = 3"
        explain_rows = [r[0] for r in session.execute("EXPLAIN " + sql)]
        prepared = db.prepare_dml(db.parse(sql), sql)
        assert explain_rows == ["Update items"] \
            + explain_plan(prepared.plan, indent=1)

    def test_explain_does_not_execute(self, store):
        db, session = store
        before = counters.read()
        session.execute("EXPLAIN UPDATE items SET price = 0")
        assert counters.delta(before, counters.read())["rows_updated"] == 0
        assert session.query("SELECT COUNT(*) FROM items "
                             "WHERE price = 0")[0][0] == 1   # only id 0

    def test_explain_delete_does_not_execute(self, store):
        db, session = store
        before_count = session.query(
            "SELECT COUNT(*) FROM items")[0][0]
        before = counters.read()
        session.execute("EXPLAIN DELETE FROM items WHERE id >= 0")
        assert counters.delta(before, counters.read())["rows_deleted"] == 0
        assert session.query(
            "SELECT COUNT(*) FROM items")[0][0] == before_count


class TestPlanCache:
    def test_cached_plan_matches_fresh_plan_under_ddl(self, store):
        db, session = store
        sql = "SELECT price FROM items WHERE category = 'cat2'"
        before = session.query(sql)
        assert not isinstance(
            next(n for n in walk(plan_for(db, sql)) if isinstance(n, Scan)),
            IndexScan)
        # Concurrent DDL: an index appears between two executions.
        session.execute("CREATE INDEX items_cat ON items (category)")
        after = session.query(sql)
        assert [list(r) for r in before] == [list(r) for r in after]
        # The cache replanned: the same SQL now runs through the index.
        scans = [n for n in walk(plan_for(db, sql))
                 if isinstance(n, IndexScan)]
        assert scans and scans[0].index.name == "items_cat"
        # ... and DROP INDEX invalidates again.
        session.execute("DROP INDEX items_cat")
        assert not any(isinstance(n, IndexScan)
                       for n in walk(plan_for(db, sql)))
        assert [list(r) for r in session.query(sql)] == \
            [list(r) for r in before]

    def test_dml_plans_replan_on_index_ddl(self, store):
        db, session = store
        sql = "UPDATE items SET price = price WHERE category = 'cat1'"
        session.execute(sql)
        plan = db.prepare_dml(db.parse(sql), sql).plan
        assert not isinstance(plan, IndexScan)
        session.execute("CREATE INDEX items_cat ON items (category)")
        plan = db.prepare_dml(db.parse(sql), sql).plan
        assert isinstance(plan, IndexScan)
        assert plan.index.name == "items_cat"

    def test_stats_refresh_evicts_dml_plans(self, store):
        # DML plans are cost-based now, so a statistics refresh must
        # evict them along with the SELECT plans reading the table.
        db, session = store
        sql = "UPDATE items SET price = price WHERE id = 1"
        session.execute(sql)
        key = db.parse(sql).plan_key
        assert db._plan_cache[sql][1] is not None
        assert db._plan_cache[key][1] is not None
        db.invalidate_plans_for("items")
        assert db._plan_cache[sql][1] is None
        assert db._plan_cache[key][1] is None

    def test_epoch_covers_tag_registry_mutations(self, db, authority):
        session = db.connect()
        session.execute("CREATE TABLE notes (id INT PRIMARY KEY, body TEXT)")
        sql = "SELECT body FROM notes WHERE id = 1"
        session.execute(sql)
        epoch_before = db.plan_cache_epoch()
        assert db._plan_cache
        owner = authority.create_principal("owner")
        authority.create_tag("note_tag", owner=owner.id)
        assert db.plan_cache_epoch() != epoch_before
        session.execute(sql)                     # triggers the epoch check
        assert db._plan_epoch == db.plan_cache_epoch()

    def test_view_changes_invalidate(self, store):
        db, session = store
        session.execute("CREATE VIEW cheap AS "
                        "SELECT id FROM items WHERE price < 3")
        assert len(session.query("SELECT id FROM cheap")) == 3
        epoch = db.plan_cache_epoch()
        session.execute("DROP VIEW cheap")
        assert db.plan_cache_epoch() != epoch

    def test_drop_index_backing_unique_is_refused(self, store):
        db, session = store
        with pytest.raises(CatalogError):
            session.execute("DROP INDEX items_items_pkey_idx")

    def test_drop_index_with_ambiguous_name_is_refused(self, store):
        _db, session = store
        session.execute("CREATE INDEX dup ON items (category)")
        session.execute("CREATE INDEX dup ON sales (qty)")
        with pytest.raises(CatalogError, match="ambiguous"):
            session.execute("DROP INDEX dup")


# ---------------------------------------------------------------------------
# cardinality: heap row counts and default selectivities
# ---------------------------------------------------------------------------

@pytest.fixture
def events():
    db = Database(ifc_enabled=False)
    session = db.connect()
    session.execute_script("""
        CREATE TABLE events (id INT PRIMARY KEY, kind TEXT, ts FLOAT,
                             note TEXT);
        CREATE ORDERED INDEX events_by_ts ON events (ts);
        CREATE ORDERED INDEX events_kind_ts ON events (kind, ts);
    """)
    session.begin()
    for i in range(1000):
        session.execute(
            "INSERT INTO events VALUES (?, ?, ?, ?)",
            (i, "k%d" % (i % 4), float(i % 200),
             None if i % 10 == 0 else "n%d" % i))
    session.commit()
    return db, session


class TestRangeAccessPaths:
    RANGE_SQL = "SELECT id FROM events WHERE ts < 10"

    def _range_scans(self, db, sql):
        return [n for n in walk(plan_for(db, sql))
                if isinstance(n, IndexRangeScan)]

    def test_range_scan_without_stats(self, events):
        # Satellite: range predicates reach scan_range even when the
        # table was never analyzed (default selectivity).
        db, _session = events
        scans = self._range_scans(db, self.RANGE_SQL)
        assert len(scans) == 1
        assert scans[0].index.name == "events_by_ts"
        assert scans[0].predicate is None     # consumed by the bounds

    def test_range_scan_matches_full_scan_results(self, events):
        db, session = events
        indexed = session.query(self.RANGE_SQL)
        full = session.query("SELECT id FROM events WHERE ts + 0 < 10")
        assert sorted(r[0] for r in indexed) == sorted(r[0] for r in full)

    def test_between_uses_range_scan(self, events):
        db, session = events
        sql = "SELECT id FROM events WHERE ts BETWEEN 5 AND 9"
        scans = self._range_scans(db, sql)
        assert len(scans) == 1
        rows = session.query(sql)
        full = session.query(
            "SELECT id FROM events WHERE ts + 0 BETWEEN 5 AND 9")
        assert sorted(r[0] for r in rows) == sorted(r[0] for r in full)

    def test_eq_prefix_plus_range(self, events):
        db, session = events
        sql = "SELECT id FROM events WHERE kind = 'k1' AND ts >= 190"
        scans = self._range_scans(db, sql)
        assert len(scans) == 1
        assert scans[0].index.name == "events_kind_ts"
        rows = session.query(sql)
        full = session.query(
            "SELECT id FROM events WHERE kind = 'k1' AND ts + 0 >= 190")
        assert sorted(r[0] for r in rows) == sorted(r[0] for r in full)

    def test_parameterized_bounds(self, events):
        _db, session = events
        rows = session.query(
            "SELECT id FROM events WHERE ts > ? AND ts <= ?", (190, 195))
        full = session.query(
            "SELECT id FROM events WHERE ts + 0 > ? AND ts + 0 <= ?",
            (190, 195))
        assert sorted(r[0] for r in rows) == sorted(r[0] for r in full)
        # NULL bound: comparison is UNKNOWN, no rows.
        assert session.query(
            "SELECT id FROM events WHERE ts > ?", (None,)) == []

    def test_residual_predicate_survives(self, events):
        db, session = events
        sql = ("SELECT id FROM events WHERE ts < 10 AND note LIKE 'n%'")
        scans = self._range_scans(db, sql)
        assert len(scans) == 1
        assert scans[0].predicate is not None
        rows = session.query(sql)
        full = session.query(
            "SELECT id FROM events WHERE ts + 0 < 10 AND note LIKE 'n%'")
        assert sorted(r[0] for r in rows) == sorted(r[0] for r in full)

    def test_equality_still_beats_range(self, events):
        # kind = 'k1' AND ts = 5 fully covers events_kind_ts: the eq
        # probe is cheaper than a range scan.
        db, _session = events
        plan = plan_for(
            db, "SELECT id FROM events WHERE kind = 'k1' AND ts = 5")
        scans = [n for n in walk(plan) if isinstance(n, IndexScan)
                 and not isinstance(n, IndexRangeScan)]
        assert len(scans) == 1


class TestRowCountJoinOrder:
    def _tables(self, small_rows, big_rows):
        db = Database(ifc_enabled=False)
        session = db.connect()
        session.execute_script("""
            CREATE TABLE alpha (a_id INT PRIMARY KEY, beta_id INT);
            CREATE TABLE beta (b_id INT PRIMARY KEY, payload INT);
        """)
        session.begin()
        for i in range(small_rows):
            session.execute("INSERT INTO alpha VALUES (?, ?)",
                            (i, i % max(big_rows, 1)))
        for i in range(big_rows):
            session.execute("INSERT INTO beta VALUES (?, ?)", (i, i))
        session.commit()
        session.execute("ANALYZE")
        return db, session

    SQL = ("SELECT a.a_id, b.payload FROM alpha a "
           "JOIN beta b ON b.b_id = a.beta_id")

    def _leading_table(self, db):
        # Preorder walk puts the outer (driving) side first, whether
        # the inner side is index-probed or hashed.
        plan = plan_for(db, self.SQL)
        scans = [n for n in walk(plan) if isinstance(n, Scan)]
        assert scans
        return scans[0].table.name

    def test_small_table_leads(self):
        db, _session = self._tables(small_rows=30, big_rows=600)
        assert self._leading_table(db) == "alpha"

    def test_order_flips_when_sizes_flip(self):
        db, _session = self._tables(small_rows=600, big_rows=30)
        assert self._leading_table(db) == "beta"

    def test_results_identical_either_order(self):
        db1, s1 = self._tables(30, 600)
        db2, s2 = self._tables(600, 30)
        rows1 = s1.query(self.SQL)
        assert sorted(tuple(r) for r in rows1) == \
            sorted((i, i % 600) for i in range(30))
        rows2 = s2.query(self.SQL)
        assert sorted(tuple(r) for r in rows2) == \
            sorted((i, i % 30) for i in range(600))


class TestEstimates:
    def test_explain_shows_cost_and_rows(self, events):
        _db, session = events
        lines = [r[0] for r in session.execute(
            "EXPLAIN SELECT id FROM events WHERE ts < 50")]
        range_lines = [l for l in lines if "IndexRangeScan" in l]
        assert len(range_lines) == 1
        assert "cost=" in range_lines[0] and "rows=" in range_lines[0]
        # Estimated rows within a factor of the actual 250.
        rows = int(re.search(r"rows=(\d+)", range_lines[0]).group(1))
        assert 100 <= rows <= 500

    def test_join_operators_carry_estimates(self, events):
        _db, session = events
        session.execute_script(
            "CREATE TABLE kinds (kind TEXT PRIMARY KEY, descr TEXT)")
        for k in range(4):
            session.execute("INSERT INTO kinds VALUES (?, ?)",
                            ("k%d" % k, "kind %d" % k))
        lines = [r[0] for r in session.execute(
            "EXPLAIN SELECT e.id, k.descr FROM events e "
            "JOIN kinds k ON k.kind = e.kind WHERE e.ts < 10")]
        assert all("cost=" in l and "rows=" in l for l in lines), lines


class TestCardinality:
    """Every estimate is the heap's row count (``Table.approx_rows``,
    floored at ``ROW_FLOOR``) times default selectivities: nothing about
    the values stored, or the literal compared against, reaches it."""

    @staticmethod
    def _estimate(db, sql):
        query = build_logical(db.parse(sql), db.catalog, None,
                              EMPTY_LABEL, [])
        db.planner.optimizer.optimize(query)
        return query.est_rows

    @pytest.mark.parametrize("predicate, selectivity", [
        ("kind = 'k1'", DEFAULT_EQ_SEL),
        # A primary key is not special: one row is still 0.5% of them.
        ("id = 3", DEFAULT_EQ_SEL),
        ("id IN (1, 2, 3)", 3 * DEFAULT_EQ_SEL),
        ("ts < 50", DEFAULT_RANGE_SEL),
        ("ts BETWEEN 5 AND 9", DEFAULT_RANGE_SEL ** 2),
        ("note IS NULL", DEFAULT_NULL_SEL),
        ("note IS NOT NULL", 1 - DEFAULT_NULL_SEL),
        ("note LIKE 'n1%'", DEFAULT_LIKE_SEL),
        ("ts + 1 > 3", DEFAULT_SEL),
    ])
    def test_a_predicate_keeps_its_default_selectivity(self, events,
                                                       predicate,
                                                       selectivity):
        db, _session = events
        assert self._estimate(db, "SELECT id FROM events WHERE "
                              + predicate) == \
            pytest.approx(1000 * selectivity)

    def test_a_new_plan_reads_the_current_row_count(self, events):
        db, session = events
        sql = "SELECT id FROM events WHERE ts < %d"
        assert self._estimate(db, sql % 1) == \
            pytest.approx(1000 * DEFAULT_RANGE_SEL)
        session.begin()
        for i in range(1000, 1500):
            session.execute("INSERT INTO events VALUES (?, 'k9', 1.0, 'x')",
                            (i,))
        session.commit()
        assert db.catalog.get_table("events").approx_rows == 1500
        assert self._estimate(db, sql % 2) == \
            pytest.approx(1500 * DEFAULT_RANGE_SEL)

    def test_empty_table_is_costed_at_the_row_floor(self, events):
        db, session = events
        session.execute("CREATE TABLE empty (x INT PRIMARY KEY, y INT)")
        assert db.catalog.get_table("empty").approx_rows == 0
        assert self._estimate(db, "SELECT x FROM empty") == ROW_FLOOR
        session.execute("INSERT INTO empty VALUES (1, 1)")
        assert self._estimate(db, "SELECT y FROM empty") == ROW_FLOOR

    def test_rolled_back_delete_keeps_the_row_count(self, events):
        # An aborted DELETE stamps xmax with an aborted xid; those
        # versions are still live and still counted.
        db, session = events
        sql = "SELECT id FROM events WHERE ts < 50"
        estimate = self._estimate(db, sql)
        session.begin()
        session.execute("DELETE FROM events")
        session.rollback()
        assert db.catalog.get_table("events").approx_rows == 1000
        assert self._estimate(db, sql) == estimate
        assert len(session.query(sql)) == 250

    def test_reclaimed_versions_leave_the_row_count(self, events):
        db, session = events
        session.execute("DELETE FROM events WHERE id < 500")
        db.vacuum("events")
        assert db.catalog.get_table("events").approx_rows == 500
        assert self._estimate(db, "SELECT id FROM events") == 500
        assert len(session.query("SELECT id FROM events")) == 500

    def test_index_ddl_replans_against_the_same_row_count(self, events):
        db, session = events
        sql = "SELECT id FROM events WHERE ts < 10"
        assert any(isinstance(n, IndexRangeScan)
                   for n in walk(plan_for(db, sql)))
        estimate = self._estimate(db, sql)
        rows = sorted(r[0] for r in session.query(sql))
        session.execute("DROP INDEX events_by_ts")
        # Without the index only the compound one is left, and it does
        # not lead with ts: the replanned statement scans the heap.
        assert not any(isinstance(n, IndexScan)
                       for n in walk(plan_for(db, sql)))
        assert self._estimate(db, sql) == estimate
        assert sorted(r[0] for r in session.query(sql)) == rows

    def test_recreated_table_plans_from_its_own_rows(self, tmp_path):
        """Both paths that drop a table — the SQL statement, and its
        replay from the log — leave nothing of the old heap behind: a
        table recreated under the same name is costed from its own
        row count."""
        path = str(tmp_path / "phoenix.wal")
        db = Database(ifc_enabled=False, wal=path)
        session = db.connect()
        session.execute("CREATE TABLE phoenix (x INT PRIMARY KEY)")
        session.begin()
        for i in range(300):
            session.execute("INSERT INTO phoenix VALUES (?)", (i,))
        session.commit()
        recovered = Database(db.authority, ifc_enabled=False)
        recovered.recover(path)
        sql = "SELECT x FROM phoenix WHERE x < 50"
        for database in (db, recovered):
            assert self._estimate(database, sql) == \
                pytest.approx(300 * DEFAULT_RANGE_SEL)
            assert len(database.connect().query(sql)) == 50
        session.execute("DROP TABLE phoenix")
        session.execute("CREATE TABLE phoenix (x INT PRIMARY KEY)")
        for i in range(40):
            session.execute("INSERT INTO phoenix VALUES (?)", (i,))
        recovered.recover(path)                  # the rest of the log
        for database in (db, recovered):
            assert database.catalog.get_table("phoenix").approx_rows == 40
            assert self._estimate(database, sql) == \
                pytest.approx(40 * DEFAULT_RANGE_SEL)
            assert len(database.connect().query(sql)) == 40
        db.close()

    def test_drop_table_evicts_its_plans(self, events):
        db, session = events
        session.execute("CREATE TABLE doomed (x INT PRIMARY KEY)")
        sql = "SELECT x FROM doomed WHERE x = 1"
        session.execute(sql)
        assert db._plan_cache[sql][1] is not None
        epoch = db.plan_cache_epoch()
        session.execute("DROP TABLE doomed")
        assert db.plan_cache_epoch() != epoch
        session.execute("SELECT id FROM events WHERE id = 1")
        assert all(prepared is None or "doomed" not in tables
                   for _statement, prepared, tables
                   in db._plan_cache.values())
        with pytest.raises(CatalogError):
            session.execute("ANALYZE doomed")
        with pytest.raises(CatalogError):
            session.execute(sql)

    def test_a_unique_key_join_meets_one_row_per_probe(self):
        # 100 facts join 1 000 dimension rows: through a unique key each
        # fact meets one row; through a plain column, DEFAULT_EQ_SEL of
        # them.
        db = Database(ifc_enabled=False)
        session = db.connect()
        session.execute_script("""
            CREATE TABLE f (id INT PRIMARY KEY, d INT);
            CREATE TABLE du (k INT PRIMARY KEY, v INT);
            CREATE TABLE dn (k INT, v INT);
        """)
        session.begin()
        for i in range(100):
            session.execute("INSERT INTO f VALUES (?, ?)", (i, i * 7))
        for i in range(1000):
            session.execute("INSERT INTO du VALUES (?, ?)", (i, i))
            session.execute("INSERT INTO dn VALUES (?, ?)", (i, i))
        session.commit()
        sql = "SELECT f.id, d.v FROM f JOIN %s d ON d.k = f.d"
        assert self._estimate(db, sql % "du") == pytest.approx(100)
        assert self._estimate(db, sql % "dn") == \
            pytest.approx(100 * 1000 * DEFAULT_EQ_SEL)
        expected = sorted((i, i * 7) for i in range(100))
        for table in ("du", "dn"):
            assert sorted(tuple(r) for r in session.query(sql % table)) \
                == expected

    def test_analyze_tallies_each_table_it_covers(self, events):
        db, session = events
        session.execute("CREATE TABLE other (x INT PRIMARY KEY)")

        def collected():
            return counters.snapshot()["stats"]["tables_collected"]

        before = collected()
        session.execute("ANALYZE events")
        assert collected() == before + 1
        session.execute("ANALYZE")
        assert collected() == before + 1 + len(db.catalog.tables)
        assert db.analyze("other") == ["other"]
        assert collected() == before + 2 + len(db.catalog.tables)

    def test_analyze_without_table_covers_all(self, events):
        db, session = events
        session.execute("CREATE TABLE other (x INT PRIMARY KEY)")
        statements = ["SELECT id FROM events WHERE ts < 10",
                      "SELECT x FROM other WHERE x = 1",
                      "UPDATE other SET x = x WHERE x = 2"]
        for sql in statements:
            session.execute(sql)
            assert db._plan_cache[sql][1] is not None
        session.execute("ANALYZE")
        assert all(db._plan_cache[sql][1] is None for sql in statements)
        assert all(prepared is None
                   for _statement, prepared, _tables
                   in db._plan_cache.values())


class TestSelectivityProperties:
    """Property-style checks of the estimator over seeded random
    conjunct sets: every estimate stays in [0, 1] of the heap's row
    count, and widening a predicate — dropping a conjunct, one bound of
    a range, or adding an IN item — never shrinks it."""

    COLUMNS = ("id", "kind", "ts", "note")

    def _conjunct(self, rng):
        col = rng.choice(self.COLUMNS)
        shape = rng.choice(("eq", "lt", "ge", "between", "in", "like",
                            "null", "notnull", "other"))
        if shape == "eq":
            return "%s = %d" % (col, rng.randint(0, 300))
        if shape in ("lt", "ge"):
            return "%s %s %d" % (col, "<" if shape == "lt" else ">=",
                                 rng.randint(0, 300))
        if shape == "between":
            low = rng.randint(0, 300)
            return "%s BETWEEN %d AND %d" % (col, low,
                                              low + rng.randint(0, 50))
        if shape == "in":
            return "%s IN (%s)" % (col, ", ".join(
                str(rng.randint(0, 300))
                for _ in range(rng.randint(1, 300))))
        if shape == "like":
            return "note LIKE 'n%d%%'" % rng.randint(0, 9)
        if shape in ("null", "notnull"):
            return "%s IS %sNULL" % (col, "NOT " if shape == "notnull"
                                     else "")
        return "%s + 1 > %d" % (col, rng.randint(0, 300))

    @staticmethod
    def _fraction(db, conjuncts):
        sql = "SELECT id FROM events"
        if conjuncts:
            sql += " WHERE " + " AND ".join(conjuncts)
        query = build_logical(db.parse(sql), db.catalog, None,
                              EMPTY_LABEL, [])
        db.planner.optimizer.optimize(query)
        return query.est_rows / db.catalog.get_table("events").approx_rows

    def test_estimates_always_in_unit_interval(self, events):
        db, _session = events
        rng = random.Random(0xD1FF)
        for _ in range(300):
            conjuncts = [self._conjunct(rng)
                         for _ in range(rng.randint(0, 4))]
            assert 0.0 <= self._fraction(db, conjuncts) <= 1.0, conjuncts

    def test_estimate_monotone_in_predicate_widening(self, events):
        db, _session = events
        rng = random.Random(0xD1CE)
        for _ in range(200):
            conjuncts = [self._conjunct(rng)
                         for _ in range(rng.randint(1, 4))]
            base = self._fraction(db, conjuncts)
            # Dropping any conjunct never shrinks the estimate.
            for i in range(len(conjuncts)):
                assert self._fraction(
                    db, conjuncts[:i] + conjuncts[i + 1:]) >= base - 1e-12
        # A one-sided range covers at least the two-sided one, and an IN
        # list at least what a shorter one does.
        assert self._fraction(db, ["ts >= 5"]) >= \
            self._fraction(db, ["ts BETWEEN 5 AND 9"])
        shorter = self._fraction(db, ["id IN (1, 2)"])
        assert self._fraction(db, ["id IN (1, 2, 3)"]) >= shorter
        assert self._fraction(db, ["id = 1"]) <= shorter


class TestAnalyze:
    """``ANALYZE [table]`` collects nothing: it evicts the cached plans
    that read the table, which then re-cost against the heap's current
    row count (``Table.approx_rows``)."""

    SQL = "SELECT s.sid, t.id FROM s JOIN t ON t.k = s.x"

    @staticmethod
    def _cached(db, sql):
        return db._plan_cache[sql][1]

    def test_analyze_recosts_a_plan_cached_on_a_small_table(self):
        db = Database(ifc_enabled=False)
        session = db.connect()
        session.execute_script("""
            CREATE TABLE s (sid INT PRIMARY KEY, x INT);
            CREATE TABLE t (id INT PRIMARY KEY, k INT);
            CREATE INDEX t_k ON t (k);
        """)
        for i in range(50):
            session.execute("INSERT INTO s VALUES (?, ?)", (i, i % 5))
        for i in range(3):
            session.execute("INSERT INTO t VALUES (?, ?)", (i, i))
        rows = sorted(tuple(r) for r in session.query(self.SQL))
        assert len(rows) == 30
        # Three rows: t leads and is hashed against a scan of s.
        cached = self._cached(db, self.SQL)
        small = explain_plan(cached.plan)
        assert "Scan t" in small[2] and not any("t_k" in l for l in small)
        # Two thousand rows, none of which join: the cached plan stays
        # as it was costed, though a fresh plan would differ.
        session.begin()
        for i in range(3, 2000):
            session.execute("INSERT INTO t VALUES (?, ?)", (i, 10000 + i))
        session.commit()
        assert sorted(tuple(r) for r in session.query(self.SQL)) == rows
        assert self._cached(db, self.SQL) is cached
        fresh = [r[0] for r in session.execute("EXPLAIN " + self.SQL)]
        assert any("IndexLoopJoin" in l and "t_k" in l for l in fresh)
        # ANALYZE t re-costs it: s leads and probes t through t_k.
        before = counters.snapshot()["stats"]["tables_collected"]
        assert session.execute("ANALYZE t").rowcount == 0
        assert counters.snapshot()["stats"]["tables_collected"] \
            == before + 1
        assert self._cached(db, self.SQL) is None
        assert sorted(tuple(r) for r in session.query(self.SQL)) == rows
        assert explain_plan(self._cached(db, self.SQL).plan) == fresh

    def test_analyze_evicts_only_the_plans_reading_the_table(self, events):
        db, session = events
        session.execute("CREATE TABLE other (x INT PRIMARY KEY)")
        sql_events = "SELECT id FROM events WHERE ts < 10"
        sql_other = "SELECT x FROM other WHERE x = 1"
        session.execute(sql_events)
        session.execute(sql_other)
        statement = db._plan_cache[sql_events][0]
        assert db.analyze("events") == ["events"]
        # The text keeps its statement, and so does its plan key.
        assert db._plan_cache[sql_events] == (statement, None, ())
        assert db._plan_cache[sql_other][1] is not None
        assert db._plan_cache[statement.plan_key][1] is None
        assert db._plan_cache[db.parse(sql_other).plan_key][1] is not None
        # Without a table, every table's plans go.
        assert sorted(db.analyze()) == ["events", "other"]
        assert db._plan_cache[db.parse(sql_other).plan_key][1] is None

    def test_analyze_unknown_table_fails(self, events):
        _db, session = events
        with pytest.raises(CatalogError):
            session.execute("ANALYZE nonexistent")

    def test_analyze_results_unaffected_by_plan_choice(self, events):
        # The same query returns identical rows before and after
        # ANALYZE, whatever access path the row counts steer it to.
        _db, session = events
        sql = "SELECT id FROM events WHERE ts >= 195 AND kind = 'k3'"
        before = sorted(r[0] for r in session.query(sql))
        session.execute("ANALYZE")
        after = sorted(r[0] for r in session.query(sql))
        assert before == after


class TestQueryByLabelUnaffected:
    def test_range_scan_respects_labels(self, medical):
        """A range predicate on an ordered-indexed column must not
        surface tuples the process label does not cover."""
        db = medical.db
        clinic = db.connect(medical.process_for(medical.clinic))
        clinic.execute(
            "CREATE ORDERED INDEX patients_by_name ON HIVPatients "
            "(patient_name)")
        alice = db.connect(medical.process_for(medical.alice,
                                               medical.alice_medical))
        rows = alice.query("SELECT patient_name FROM HIVPatients "
                           "WHERE patient_name >= 'A'")
        assert [r[0] for r in rows] == ["Alice"]
        # With the compound tag, everything in range is visible.
        staff = db.connect(medical.process_for(medical.clinic,
                                               medical.all_medical))
        rows = staff.query("SELECT patient_name FROM HIVPatients "
                           "WHERE patient_name >= 'A'")
        assert sorted(r[0] for r in rows) == ["Alice", "Bob", "Cathy"]
