"""The optimizer layer: access paths, pushdown boundaries, EXPLAIN
fidelity, and prepared-plan cache invalidation under concurrent DDL."""

import pytest

from repro.core import IFCProcess, counters
from repro.db import Database
from repro.db.physical import (
    Filter,
    HashJoin,
    IndexLoopJoin,
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
