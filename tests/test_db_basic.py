"""Basic relational-engine behaviour (no labels): CRUD, types, queries."""

import pytest

from repro.db import Database
from repro.errors import (
    CatalogError,
    DatabaseError,
    SQLSyntaxError,
    TypeError_,
)


@pytest.fixture
def session(db):
    s = db.connect()
    s.execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT, c REAL DEFAULT 1.5,"
              " d BOOLEAN DEFAULT FALSE)")
    return s


class TestInsertAndTypes:
    def test_insert_and_select(self, session):
        session.execute("INSERT INTO t (a, b) VALUES (1, 'x')")
        row = session.execute("SELECT * FROM t").first()
        assert row == [1, "x", 1.5, False]

    def test_defaults_applied(self, session):
        session.execute("INSERT INTO t (a) VALUES (1)")
        row = session.execute("SELECT c, d FROM t").first()
        assert row == [1.5, False]

    def test_type_coercion(self, session):
        session.execute("INSERT INTO t (a, b, c) VALUES ('5', 7, '2.5')")
        row = session.execute("SELECT a, b, c FROM t").first()
        assert row == [5, "7", 2.5]

    def test_bad_type_rejected(self, session):
        with pytest.raises(TypeError_):
            session.execute("INSERT INTO t (a) VALUES ('not a number')")

    def test_not_null_enforced(self, db):
        s = db.connect()
        s.execute("CREATE TABLE n (x INT NOT NULL)")
        with pytest.raises(TypeError_):
            s.execute("INSERT INTO n (x) VALUES (NULL)")

    def test_varchar_length(self, db):
        s = db.connect()
        s.execute("CREATE TABLE v (x VARCHAR(3))")
        s.execute("INSERT INTO v VALUES ('abc')")
        with pytest.raises(TypeError_):
            s.execute("INSERT INTO v VALUES ('abcd')")

    def test_wrong_arity_rejected(self, session):
        with pytest.raises(DatabaseError):
            session.execute("INSERT INTO t (a, b) VALUES (1)")

    def test_unknown_column_rejected(self, session):
        with pytest.raises(CatalogError):
            session.execute("INSERT INTO t (zz) VALUES (1)")


class TestQueries:
    @pytest.fixture(autouse=True)
    def populate(self, session):
        for i in range(10):
            session.execute("INSERT INTO t (a, b, c) VALUES (?, ?, ?)",
                            (i, "name%d" % (i % 3), float(i)))
        self.session = session

    def test_where_comparisons(self):
        assert len(self.session.query("SELECT * FROM t WHERE a >= 5")) == 5
        assert len(self.session.query(
            "SELECT * FROM t WHERE a BETWEEN 2 AND 4")) == 3
        assert len(self.session.query(
            "SELECT * FROM t WHERE b LIKE 'name%'")) == 10
        assert len(self.session.query(
            "SELECT * FROM t WHERE b LIKE '%1'")) == 3

    def test_order_by_and_limit(self):
        rows = self.session.query(
            "SELECT a FROM t ORDER BY a DESC LIMIT 3")
        assert [r[0] for r in rows] == [9, 8, 7]
        rows = self.session.query(
            "SELECT a FROM t ORDER BY a LIMIT 2 OFFSET 4")
        assert [r[0] for r in rows] == [4, 5]

    def test_order_by_position_and_alias(self):
        rows = self.session.query(
            "SELECT a * -1 AS neg FROM t ORDER BY neg LIMIT 1")
        assert rows[0][0] == -9
        rows = self.session.query("SELECT a FROM t ORDER BY 1 DESC LIMIT 1")
        assert rows[0][0] == 9

    def test_distinct(self):
        rows = self.session.query("SELECT DISTINCT b FROM t ORDER BY b")
        assert [r[0] for r in rows] == ["name0", "name1", "name2"]

    def test_group_by_with_having(self):
        rows = self.session.query(
            "SELECT b, COUNT(*) AS n, SUM(a) FROM t GROUP BY b "
            "HAVING COUNT(*) > 3 ORDER BY b")
        assert [list(r) for r in rows] == [["name0", 4, 18]]

    def test_global_aggregates(self):
        row = self.session.execute(
            "SELECT COUNT(*), MIN(a), MAX(a), AVG(c) FROM t").first()
        assert list(row) == [10, 0, 9, 4.5]

    def test_global_aggregate_on_empty_input(self):
        row = self.session.execute(
            "SELECT COUNT(*), SUM(a), MIN(a) FROM t WHERE a > 100").first()
        assert list(row) == [0, None, None]

    def test_count_distinct(self):
        assert self.session.execute(
            "SELECT COUNT(DISTINCT b) FROM t").scalar() == 3

    def test_parameters_positional(self):
        rows = self.session.query(
            "SELECT a FROM t WHERE a > ? AND a < ?", (2, 6))
        assert [r[0] for r in rows] == [3, 4, 5]

    def test_select_without_from(self, session):
        row = session.execute("SELECT 1 + 1, 'x' || 'y'").first()
        assert list(row) == [2, "xy"]

    def test_case_expression(self):
        rows = self.session.query(
            "SELECT CASE WHEN a < 5 THEN 'low' ELSE 'high' END AS bucket, "
            "COUNT(*) FROM t GROUP BY CASE WHEN a < 5 THEN 'low' "
            "ELSE 'high' END ORDER BY bucket")
        assert [list(r) for r in rows] == [["high", 5], ["low", 5]]

    def test_builtin_functions(self):
        row = self.session.execute(
            "SELECT ABS(-3), LENGTH('abcd'), UPPER('x'), LOWER('Y'), "
            "COALESCE(NULL, 7), SUBSTR('hello', 2, 3)").first()
        assert list(row) == [3, 4, "X", "y", 7, "ell"]

    def test_null_semantics_in_where(self, db):
        s = db.connect()
        s.execute("CREATE TABLE nt (x INT, y INT)")
        s.execute("INSERT INTO nt VALUES (1, NULL)")
        s.execute("INSERT INTO nt VALUES (2, 5)")
        assert len(s.query("SELECT * FROM nt WHERE y > 1")) == 1
        assert len(s.query("SELECT * FROM nt WHERE y IS NULL")) == 1
        # NULL = NULL is unknown, not true
        assert len(s.query("SELECT * FROM nt WHERE y = NULL")) == 0


class TestUpdateDelete:
    @pytest.fixture(autouse=True)
    def populate(self, session):
        for i in range(5):
            session.execute("INSERT INTO t (a, b) VALUES (?, 'x')", (i,))
        self.session = session

    def test_update_with_expression(self):
        count = self.session.execute(
            "UPDATE t SET a = a + 100 WHERE a >= 3").rowcount
        assert count == 2
        rows = self.session.query("SELECT a FROM t ORDER BY a")
        assert [r[0] for r in rows] == [0, 1, 2, 103, 104]

    def test_delete(self):
        assert self.session.execute(
            "DELETE FROM t WHERE a % 2 = 0").rowcount == 3
        assert self.session.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_update_everything(self):
        assert self.session.execute("UPDATE t SET b = 'z'").rowcount == 5
        assert len(self.session.query(
            "SELECT * FROM t WHERE b = 'z'")) == 5


class TestCatalogDDL:
    def test_duplicate_table_rejected(self, session):
        with pytest.raises(CatalogError):
            session.execute("CREATE TABLE t (x INT)")

    def test_if_not_exists(self, session):
        session.execute("CREATE TABLE IF NOT EXISTS t (x INT)")

    def test_drop_table(self, session):
        session.execute("CREATE TABLE gone (x INT)")
        session.execute("DROP TABLE gone")
        with pytest.raises(CatalogError):
            session.execute("SELECT * FROM gone")

    def test_unknown_table(self, session):
        with pytest.raises(CatalogError):
            session.execute("SELECT * FROM nothere")

    def test_syntax_error(self, session):
        with pytest.raises(SQLSyntaxError):
            session.execute("SELEC * FROM t")

    def test_create_index_used_for_lookup(self, session, db):
        session.execute("CREATE INDEX t_b ON t (b)")
        for i in range(20):
            session.execute("INSERT INTO t (a, b) VALUES (?, ?)",
                            (100 + i, "k%d" % i))
        rows = session.query("SELECT a FROM t WHERE b = 'k5'")
        assert [r[0] for r in rows] == [105]


class TestEnvironmentSettings:
    """``REPRO_BATCH_SIZE`` and ``REPRO_WORK_MEM`` are read by one
    rule: blank means unset, anything else must be an integer, and the
    error names the variable and the text."""

    VARIABLES = ("REPRO_BATCH_SIZE", "REPRO_WORK_MEM")

    def test_blank_is_unset(self, monkeypatch):
        for name in self.VARIABLES:
            monkeypatch.delenv(name, raising=False)
        unset = Database()
        for name in self.VARIABLES:
            monkeypatch.setenv(name, " ")
        blank = Database()
        assert (blank.batch_size, blank.work_mem) \
            == (unset.batch_size, unset.work_mem) == (1024, 0)

    @pytest.mark.parametrize("name", VARIABLES)
    def test_malformed_names_the_variable(self, monkeypatch, name):
        monkeypatch.setenv(name, "lots")
        with pytest.raises(ValueError, match="%s='lots'" % name):
            Database()

    def test_values_are_clamped_and_keywords_win(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "0")
        monkeypatch.setenv("REPRO_WORK_MEM", "-5")
        db = Database()
        assert (db.batch_size, db.work_mem) == (1, 0)
        db = Database(batch_size=7, work_mem=2048)
        assert (db.batch_size, db.work_mem) == (7, 2048)
