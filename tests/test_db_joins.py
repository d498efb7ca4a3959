"""Join strategies and subqueries in the planner/executor."""

import pytest

from repro.errors import CatalogError


@pytest.fixture
def session(db):
    s = db.connect()
    s.execute("CREATE TABLE dept (id INT PRIMARY KEY, name TEXT)")
    s.execute("CREATE TABLE emp (id INT PRIMARY KEY, dept_id INT, "
              "name TEXT, salary REAL)")
    s.execute("CREATE INDEX emp_by_dept ON emp (dept_id)")
    for i, name in enumerate(["eng", "ops", "empty"], start=1):
        s.execute("INSERT INTO dept VALUES (?, ?)", (i, name))
    rows = [(1, 1, "ann", 100.0), (2, 1, "ben", 120.0),
            (3, 2, "cat", 90.0), (4, None, "dan", 80.0)]
    for row in rows:
        s.execute("INSERT INTO emp VALUES (?, ?, ?, ?)", row)
    return s


class TestJoins:
    def test_inner_join(self, session):
        rows = session.query(
            "SELECT e.name, d.name FROM emp e JOIN dept d "
            "ON d.id = e.dept_id ORDER BY e.name")
        assert [list(r) for r in rows] == [
            ["ann", "eng"], ["ben", "eng"], ["cat", "ops"]]

    def test_left_join_preserves_unmatched(self, session):
        rows = session.query(
            "SELECT e.name, d.name FROM emp e LEFT JOIN dept d "
            "ON d.id = e.dept_id ORDER BY e.name")
        assert ["dan", None] in [list(r) for r in rows]
        assert len(rows) == 4

    def test_left_join_other_direction(self, session):
        rows = session.query(
            "SELECT d.name, e.name FROM dept d LEFT JOIN emp e "
            "ON e.dept_id = d.id ORDER BY d.name, e.name")
        assert ["empty", None] in [list(r) for r in rows]

    def test_implicit_cross_join_with_where(self, session):
        rows = session.query(
            "SELECT e.name FROM emp e, dept d "
            "WHERE e.dept_id = d.id AND d.name = 'ops'")
        assert [r[0] for r in rows] == ["cat"]

    def test_three_way_join(self, session):
        session.execute("CREATE TABLE badge (emp_id INT PRIMARY KEY, "
                        "code TEXT)")
        session.execute("INSERT INTO badge VALUES (1, 'A')")
        rows = session.query(
            "SELECT e.name, d.name, b.code FROM emp e "
            "JOIN dept d ON d.id = e.dept_id "
            "JOIN badge b ON b.emp_id = e.id")
        assert [list(r) for r in rows] == [["ann", "eng", "A"]]

    def test_self_join(self, session):
        rows = session.query(
            "SELECT a.name, b.name FROM emp a JOIN emp b "
            "ON b.dept_id = a.dept_id AND b.id <> a.id ORDER BY a.name")
        assert [list(r) for r in rows] == [["ann", "ben"], ["ben", "ann"]]

    def test_join_with_expression_key(self, session):
        rows = session.query(
            "SELECT d.name FROM dept d JOIN emp e ON e.id = d.id + 0 "
            "ORDER BY d.name")
        assert len(rows) == 3

    def test_cross_join(self, session):
        rows = session.query("SELECT COUNT(*) FROM dept CROSS JOIN emp")
        assert rows[0][0] == 12

    def test_where_on_left_join_right_side(self, session):
        rows = session.query(
            "SELECT e.name FROM emp e LEFT JOIN dept d "
            "ON d.id = e.dept_id WHERE d.name IS NULL")
        assert [r[0] for r in rows] == ["dan"]


class TestSubqueries:
    def test_in_subquery(self, session):
        rows = session.query(
            "SELECT name FROM emp WHERE dept_id IN "
            "(SELECT id FROM dept WHERE name = 'eng') ORDER BY name")
        assert [r[0] for r in rows] == ["ann", "ben"]

    def test_not_in_subquery(self, session):
        rows = session.query(
            "SELECT name FROM dept WHERE id NOT IN "
            "(SELECT dept_id FROM emp WHERE dept_id IS NOT NULL) "
            "ORDER BY name")
        assert [r[0] for r in rows] == ["empty"]

    def test_a_name_ambiguous_in_a_subquery_binds_no_outer_column(
            self, session):
        """``id`` is ambiguous inside the subquery (emp and dept both
        have one): an error there, not ``d.id`` of the outer query."""
        with pytest.raises(CatalogError,
                           match="column reference 'id' is ambiguous"):
            session.query(
                "SELECT d.name FROM dept d WHERE EXISTS (SELECT 1 FROM "
                "emp e JOIN dept x ON x.id = e.dept_id WHERE id = 1)")

    def test_a_name_ambiguous_at_top_level_is_reported_as_ambiguous(
            self, session):
        with pytest.raises(CatalogError,
                           match="column reference 'id' is ambiguous"):
            session.query("SELECT id FROM emp e JOIN dept d "
                          "ON d.id = e.dept_id")

    def test_correlated_exists(self, session):
        rows = session.query(
            "SELECT d.name FROM dept d WHERE EXISTS "
            "(SELECT 1 FROM emp e WHERE e.dept_id = d.id) ORDER BY d.name")
        assert [r[0] for r in rows] == ["eng", "ops"]

    def test_not_exists(self, session):
        rows = session.query(
            "SELECT d.name FROM dept d WHERE NOT EXISTS "
            "(SELECT 1 FROM emp e WHERE e.dept_id = d.id)")
        assert [r[0] for r in rows] == ["empty"]

    def test_scalar_subquery(self, session):
        value = session.execute(
            "SELECT (SELECT MAX(salary) FROM emp)").scalar()
        assert value == 120.0

    def test_from_subquery(self, session):
        rows = session.query(
            "SELECT s.n FROM (SELECT dept_id AS d, COUNT(*) AS n FROM emp "
            "WHERE dept_id IS NOT NULL GROUP BY dept_id) s ORDER BY s.n")
        assert [r[0] for r in rows] == [1, 2]

    def test_aggregate_with_join_group(self, session):
        rows = session.query(
            "SELECT d.name, COUNT(*) AS n, AVG(e.salary) FROM emp e "
            "JOIN dept d ON d.id = e.dept_id "
            "GROUP BY d.name ORDER BY d.name")
        assert [list(r) for r in rows] == [["eng", 2, 110.0],
                                           ["ops", 1, 90.0]]
