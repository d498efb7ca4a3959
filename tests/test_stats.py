"""The statistics subsystem: ANALYZE, histograms, selectivity,
stats-driven plan choice, range access paths, and invalidation."""

import pytest

from repro.db import Database
from repro.db.physical import (
    HashJoin,
    IndexLoopJoin,
    IndexRangeScan,
    IndexScan,
    Scan,
)
from repro.db.stats import Histogram
from repro.errors import CatalogError


def walk(plan):
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


class TestAnalyze:
    def test_analyze_statement_collects_stats(self, store):
        db, session = store
        assert db.stats_manager.peek("events") is None
        session.execute("ANALYZE events")
        stats = db.stats_manager.peek("events")
        assert stats is not None
        assert stats.row_count == 1000
        assert stats.columns["id"].ndv == 1000
        assert stats.columns["kind"].ndv == 4
        assert stats.columns["ts"].ndv == 200

    def test_analyze_without_table_covers_all(self, store):
        db, session = store
        session.execute("CREATE TABLE other (x INT PRIMARY KEY)")
        session.execute("ANALYZE")
        assert set(db.stats_manager.analyzed()) >= {"events", "other"}

    def test_analyze_unknown_table_fails(self, store):
        _db, session = store
        with pytest.raises(CatalogError):
            session.execute("ANALYZE nonexistent")

    def test_null_fraction(self, store):
        db, session = store
        session.execute("ANALYZE events")
        note = db.stats_manager.peek("events").columns["note"]
        assert note.null_frac == pytest.approx(0.1, abs=0.01)

    def test_min_max(self, store):
        db, session = store
        session.execute("ANALYZE events")
        ts = db.stats_manager.peek("events").columns["ts"]
        assert ts.min_value == 0.0
        assert ts.max_value == 199.0

    def test_measured_column_widths(self, store):
        """ANALYZE samples per-column byte widths with the spill
        estimator's accounting, and avg_row_bytes() sums them over the
        row container — restricted to a projected column subset when
        asked."""
        db, session = store
        session.execute("ANALYZE events")
        stats = db.stats_manager.peek("events")
        assert stats.columns["id"].avg_width == 28          # all ints
        note = stats.columns["note"].avg_width
        # 90% "n%d" strings (49+len), 10% NULLs at 8 bytes.
        assert 40 < note < 60
        assert stats.avg_row_bytes(["id"]) == 64 + 28
        total = stats.avg_row_bytes()
        assert total == 64 + sum(stats.columns[c].avg_width
                                 for c in stats.columns)
        assert stats.avg_row_bytes(["id", "nope"]) is None


class TestHistogram:
    def test_equi_depth_on_skewed_data(self):
        # 900 copies of 1 plus 100 distinct high values: equi-depth
        # buckets concentrate where the data does.
        values = sorted([1] * 900 + list(range(1000, 1100)))
        hist = Histogram.build(values, buckets=10)
        assert hist.total == 1000
        assert sum(hist.counts) == 1000
        # At least ~90% of the mass sits at or below the value 1.
        assert hist.fraction_below(1) >= 0.85
        # The skewed head never swallows the tail completely.
        assert hist.fraction_below(999) < 1.0
        assert hist.fraction_below(1100) == 1.0
        assert hist.fraction_below(0) == 0.0

    def test_fraction_below_interpolates(self):
        hist = Histogram.build(list(range(100)), buckets=4)
        for value, expected in ((10, 0.11), (50, 0.51), (90, 0.91)):
            assert hist.fraction_below(value) == \
                pytest.approx(expected, abs=0.05)

    def test_incomparable_value_returns_none(self):
        hist = Histogram.build([1, 2, 3])
        assert hist.fraction_below("zebra") is None

    def test_selectivity_within_tolerance(self, store):
        db, session = store
        session.execute("ANALYZE events")
        ts = db.stats_manager.peek("events").columns["ts"]
        # Actual fraction of ts < 50 is 50/200 = 0.25.
        assert ts.range_selectivity(None, 50.0, include_high=False) == \
            pytest.approx(0.25, abs=0.05)
        # ts BETWEEN 20 AND 119 covers 100/200 of the distinct values.
        assert ts.range_selectivity(20.0, 119.0) == \
            pytest.approx(0.5, abs=0.05)
        # Equality on kind: 4 distinct values, uniform.
        kind = db.stats_manager.peek("events").columns["kind"]
        assert kind.eq_selectivity() == pytest.approx(0.25, abs=0.01)


class TestRangeAccessPaths:
    RANGE_SQL = "SELECT id FROM events WHERE ts < 10"

    def _range_scans(self, db, sql):
        return [n for n in walk(plan_for(db, sql))
                if isinstance(n, IndexRangeScan)]

    def test_range_scan_without_stats(self, store):
        # Satellite: range predicates reach scan_range even when the
        # table was never analyzed (default selectivity).
        db, _session = store
        scans = self._range_scans(db, self.RANGE_SQL)
        assert len(scans) == 1
        assert scans[0].index.name == "events_by_ts"
        assert scans[0].predicate is None     # consumed by the bounds

    def test_range_scan_matches_full_scan_results(self, store):
        db, session = store
        indexed = session.query(self.RANGE_SQL)
        full = session.query("SELECT id FROM events WHERE ts + 0 < 10")
        assert sorted(r[0] for r in indexed) == sorted(r[0] for r in full)

    def test_between_uses_range_scan(self, store):
        db, session = store
        sql = "SELECT id FROM events WHERE ts BETWEEN 5 AND 9"
        scans = self._range_scans(db, sql)
        assert len(scans) == 1
        rows = session.query(sql)
        full = session.query(
            "SELECT id FROM events WHERE ts + 0 BETWEEN 5 AND 9")
        assert sorted(r[0] for r in rows) == sorted(r[0] for r in full)

    def test_eq_prefix_plus_range(self, store):
        db, session = store
        sql = "SELECT id FROM events WHERE kind = 'k1' AND ts >= 190"
        scans = self._range_scans(db, sql)
        assert len(scans) == 1
        assert scans[0].index.name == "events_kind_ts"
        rows = session.query(sql)
        full = session.query(
            "SELECT id FROM events WHERE kind = 'k1' AND ts + 0 >= 190")
        assert sorted(r[0] for r in rows) == sorted(r[0] for r in full)

    def test_parameterized_bounds(self, store):
        _db, session = store
        rows = session.query(
            "SELECT id FROM events WHERE ts > ? AND ts <= ?", (190, 195))
        full = session.query(
            "SELECT id FROM events WHERE ts + 0 > ? AND ts + 0 <= ?",
            (190, 195))
        assert sorted(r[0] for r in rows) == sorted(r[0] for r in full)
        # NULL bound: comparison is UNKNOWN, no rows.
        assert session.query(
            "SELECT id FROM events WHERE ts > ?", (None,)) == []

    def test_residual_predicate_survives(self, store):
        db, session = store
        sql = ("SELECT id FROM events WHERE ts < 10 AND note LIKE 'n%'")
        scans = self._range_scans(db, sql)
        assert len(scans) == 1
        assert scans[0].predicate is not None
        rows = session.query(sql)
        full = session.query(
            "SELECT id FROM events WHERE ts + 0 < 10 AND note LIKE 'n%'")
        assert sorted(r[0] for r in rows) == sorted(r[0] for r in full)

    def test_equality_still_beats_range(self, store):
        # kind = 'k1' AND ts = 5 fully covers events_kind_ts: the eq
        # probe is cheaper than a range scan.
        db, _session = store
        plan = plan_for(
            db, "SELECT id FROM events WHERE kind = 'k1' AND ts = 5")
        scans = [n for n in walk(plan) if isinstance(n, IndexScan)
                 and not isinstance(n, IndexRangeScan)]
        assert len(scans) == 1


class TestStatsDrivenJoinOrder:
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


class TestExplainEstimates:
    def test_explain_shows_cost_and_rows(self, store):
        db, session = store
        session.execute("ANALYZE events")
        lines = [r[0] for r in session.execute(
            "EXPLAIN SELECT id FROM events WHERE ts < 50")]
        range_lines = [l for l in lines if "IndexRangeScan" in l]
        assert len(range_lines) == 1
        assert "cost=" in range_lines[0] and "rows=" in range_lines[0]
        # Estimated rows within a factor of the actual 250.
        import re
        rows = int(re.search(r"rows=(\d+)", range_lines[0]).group(1))
        assert 100 <= rows <= 500

    def test_join_operators_carry_estimates(self, store):
        db, session = store
        session.execute_script(
            "CREATE TABLE kinds (kind TEXT PRIMARY KEY, descr TEXT)")
        for k in range(4):
            session.execute("INSERT INTO kinds VALUES (?, ?)",
                            ("k%d" % k, "kind %d" % k))
        session.execute("ANALYZE")
        lines = [r[0] for r in session.execute(
            "EXPLAIN SELECT e.id, k.descr FROM events e "
            "JOIN kinds k ON k.kind = e.kind WHERE e.ts < 10")]
        assert all("cost=" in l and "rows=" in l for l in lines), lines


class TestInvalidationAndRefresh:
    def test_index_ddl_keeps_stats(self, store):
        db, session = store
        session.execute("ANALYZE events")
        before = db.stats_manager.peek("events")
        # DROP INDEX replans, but the histograms describe data, which
        # index DDL cannot change: the next planning pass reads them
        # as they are.
        session.execute("DROP INDEX events_by_ts")
        session.execute("SELECT id FROM events WHERE ts < 10")
        assert db.stats_manager.peek("events") is before

    def test_recreated_table_starts_without_stats(self, tmp_path):
        """Both paths that drop a table forget its stats — the SQL
        statement, and its replay from the log — so a table recreated
        under the same name never plans from the old one's numbers."""
        path = str(tmp_path / "phoenix.wal")
        db = Database(ifc_enabled=False, wal=path)
        session = db.connect()
        session.execute("CREATE TABLE phoenix (x INT PRIMARY KEY)")
        session.execute("INSERT INTO phoenix VALUES (1)")
        recovered = Database(db.authority, ifc_enabled=False)
        recovered.recover(path)
        for database in (db, recovered):
            database.analyze("phoenix")
            assert database.stats_manager.peek("phoenix").row_count == 1
        session.execute("DROP TABLE phoenix")
        session.execute("CREATE TABLE phoenix (x INT PRIMARY KEY)")
        for i in range(40):
            session.execute("INSERT INTO phoenix VALUES (?)", (i,))
        recovered.recover(path)                  # the rest of the log
        for database in (db, recovered):
            reader = database.connect()
            assert len(reader.execute(
                "SELECT x FROM phoenix WHERE x < 50").rows) == 40
            assert database.stats_manager.peek("phoenix") is None
        db.close()

    def test_rolled_back_delete_keeps_stats_rows(self, store):
        # An aborted DELETE stamps xmax with an aborted xid; those
        # versions are still live and must still be counted.
        db, session = store
        session.begin()
        session.execute("DELETE FROM events")
        session.rollback()
        session.execute("ANALYZE events")
        assert db.stats_manager.peek("events").row_count == 1000

    def test_drop_table_forgets_stats(self, store):
        db, session = store
        session.execute("CREATE TABLE doomed (x INT PRIMARY KEY)")
        session.execute("ANALYZE doomed")
        assert db.stats_manager.peek("doomed") is not None
        session.execute("DROP TABLE doomed")
        assert db.stats_manager.peek("doomed") is None

    @staticmethod
    def _drift(db, session):
        """Drift past the refresh threshold (max(2048, 0.5*1000) = 2048
        modifications) while staying under the engine's periodic-sweep
        interval, so the *test* controls when the refresh happens: 250
        real inserts plus a simulated backlog on the counter."""
        db._stats_probe = 0
        session.begin()
        for i in range(1000, 1250):
            session.execute("INSERT INTO events VALUES (?, 'k9', ?, 'x')",
                            (i, float(i)))
        session.commit()
        db.catalog.get_table("events").modifications += 2000

    def test_modification_drift_triggers_refresh(self, store):
        db, session = store
        session.execute("ANALYZE events")
        assert db.stats_manager.peek("events").row_count == 1000
        self._drift(db, session)
        # 250 modifications > max(64, 0.2 * 1000): planning refreshes.
        session.execute("SELECT id FROM events WHERE ts < 10")
        assert db.stats_manager.peek("events").row_count == 1250

    def test_small_drift_keeps_stats(self, store):
        db, session = store
        session.execute("ANALYZE events")
        collected = db.stats_manager.peek("events")
        session.execute("INSERT INTO events VALUES (5000, 'k0', 1.0, 'x')")
        session.execute("SELECT id FROM events WHERE ts < 10")
        assert db.stats_manager.peek("events") is collected

    def test_refresh_evicts_only_affected_plans(self, store):
        db, session = store
        session.execute("CREATE TABLE other (x INT PRIMARY KEY)")
        session.execute("ANALYZE")
        sql_events = "SELECT id FROM events WHERE ts < 10"
        sql_other = "SELECT x FROM other WHERE x = 1"
        session.execute(sql_events)
        session.execute(sql_other)
        assert db._plan_cache[sql_events][1] is not None
        assert db._plan_cache[sql_other][1] is not None
        statement = db._plan_cache[sql_events][0]
        self._drift(db, session)
        refreshed = db.stats_manager.refresh_drifted()
        assert refreshed == ["events"]
        # Only the plan reading the refreshed table was evicted; the
        # text keeps its statement, and so does its plan key.
        assert db._plan_cache[sql_events] == (statement, None, ())
        assert db._plan_cache[sql_other][1] is not None
        assert db._plan_cache[statement.plan_key][1] is None
        assert db._plan_cache[db.parse(sql_other).plan_key][1] is not None

    def test_periodic_sweep_refreshes_without_replanning(self, store):
        # Even with every hot plan cached (so no planning pass ever
        # consults the stats), the engine's probe-interval sweep picks
        # up the drift.
        db, session = store
        session.execute("ANALYZE events")
        sql = "SELECT id FROM events WHERE ts < 10"
        session.execute(sql)
        self._drift(db, session)
        for _ in range(db.STATS_PROBE_INTERVAL + 1):
            session.execute(sql)
        assert db.stats_manager.peek("events").row_count == 1250

    def test_analyze_results_unaffected_by_plan_choice(self, store):
        # The same query returns identical rows before and after
        # ANALYZE, whatever access path the stats steer it to.
        db, session = store
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


class TestSelectivityProperties:
    """Property-style checks of the estimator: seeded random columns,
    hundreds of random bounds, and the invariants the cost model relies
    on — estimates stay in [0, 1], widening a range never shrinks its
    estimate, and degenerate columns (all-null, single-value) behave."""

    @staticmethod
    def _column_stats(values):
        from repro.db.stats import ColumnStats
        non_null = [v for v in values if v is not None]
        null_frac = 1.0 - len(non_null) / len(values) if values else 0.0
        return ColumnStats(len(set(non_null)), null_frac,
                           min(non_null) if non_null else None,
                           max(non_null) if non_null else None,
                           Histogram.build(sorted(non_null)))

    def _random_columns(self, rng, count=12):
        columns = []
        for _ in range(count):
            n = rng.randint(1, 400)
            shape = rng.choice(("uniform", "skewed", "dupes", "nulls"))
            if shape == "uniform":
                values = [rng.uniform(-100, 100) for _ in range(n)]
            elif shape == "skewed":
                values = [rng.expovariate(0.05) for _ in range(n)]
            elif shape == "dupes":
                values = [float(rng.randint(0, 5)) for _ in range(n)]
            else:
                values = [rng.uniform(0, 10) if rng.random() < 0.5
                          else None for _ in range(n)]
            columns.append(self._column_stats(values))
        return columns

    def test_estimates_always_in_unit_interval(self):
        import random
        rng = random.Random(0xD1FF)
        for cs in self._random_columns(rng):
            assert 0.0 <= cs.eq_selectivity() <= 1.0
            for _ in range(50):
                low = rng.uniform(-150, 150) if rng.random() < 0.8 else None
                high = rng.uniform(-150, 150) if rng.random() < 0.8 else None
                sel = cs.range_selectivity(
                    low, high, include_low=rng.random() < 0.5,
                    include_high=rng.random() < 0.5)
                assert 0.0 <= sel <= 1.0, (low, high, sel)

    def test_range_estimate_monotone_in_bound_widening(self):
        import random
        rng = random.Random(0xD1CE)
        for cs in self._random_columns(rng):
            for _ in range(30):
                low = rng.uniform(-120, 120)
                high = low + rng.uniform(0, 120)
                base = cs.range_selectivity(low, high)
                # Widening either bound never shrinks the estimate.
                assert cs.range_selectivity(low - rng.uniform(0, 50),
                                            high) >= base - 1e-12
                assert cs.range_selectivity(
                    low, high + rng.uniform(0, 50)) >= base - 1e-12
                # Inclusive bounds cover at least what exclusive do.
                assert cs.range_selectivity(low, high) >= \
                    cs.range_selectivity(low, high, include_low=False,
                                         include_high=False) - 1e-12

    def test_fraction_below_monotone(self):
        import random
        rng = random.Random(99)
        values = sorted([1.0] * 300
                        + [rng.uniform(0, 50) for _ in range(300)])
        hist = Histogram.build(values, buckets=16)
        for inclusive in (True, False):
            probes = sorted(rng.uniform(-5, 60) for _ in range(200))
            fracs = [hist.fraction_below(p, inclusive=inclusive)
                     for p in probes]
            assert all(a <= b + 1e-12 for a, b in zip(fracs, fracs[1:]))

    def test_all_null_column(self):
        cs = self._column_stats([None] * 50)
        assert cs.eq_selectivity() == 0.0
        assert cs.range_selectivity(1.0, 2.0) == 0.0
        assert cs.range_selectivity(None, 10.0) == 0.0
        assert cs.histogram is None and cs.ndv == 0

    def test_single_value_column(self):
        cs = self._column_stats([7.0] * 80 + [None] * 20)
        assert cs.eq_selectivity() == pytest.approx(0.8)
        # A range containing the value captures the non-null mass...
        assert cs.range_selectivity(0.0, 10.0) == pytest.approx(0.8)
        assert cs.range_selectivity(7.0, 7.0) == pytest.approx(0.8)
        # ... and ranges strictly beside it capture nothing.
        assert cs.range_selectivity(None, 7.0, include_high=False) == 0.0
        assert cs.range_selectivity(7.0, None, include_low=False) == 0.0
        assert cs.range_selectivity(8.0, 9.0) == 0.0
