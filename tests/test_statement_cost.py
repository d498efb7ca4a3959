"""The fixed cost of a statement, as a call budget.

Each statement below runs inside an explicit transaction on a table
with no triggers, through an IFC session, with its plan already cached.
The test counts the Python function calls it makes (``sys.setprofile``
``call`` events: no timing, so the count is the same on any host) and
pins each count as an upper bound.  A change that puts per-statement
work back into the bracket — a generator context manager, a rebuilt
column map, a trigger lookup on a table with none, a full-row coercion
for a one-column UPDATE — raises a count and fails here.  Lower a
bound when a change lowers the count; raise one only with a reason.

Four more (:data:`PROBE_BUDGET`) pin the index probe path over 24
parents of 10 children each, ``c`` under an ordered index on
``(pid, ts)``: a 24-key index join (one lookup per key, one visibility
pass per outer batch), a prefix probe and a range scan (two bisections
and a slice each), and a four-key IN list on ``c``'s primary key (one
lookup per key, one visibility pass).  Their database has the default chunk size and no
memory budget whatever the environment asks for, since a probe's count
depends on both; the one-row statements run on the environment-sized
database.
"""

import gc
import sys

import pytest

from repro.core import IFCProcess
from repro.db import Database, physical

#: Python calls per in-transaction statement (upper bounds), as read on
#: CPython 3.11; 3.12 inlines comprehensions and counts fewer.
BUDGET = {
    "select_1": 40,
    "select_by_key": 74,
    "insert": 64,
    "update_by_key": 89,
}

#: Python calls per index probe statement (upper bounds), read the same
#: way on :func:`probe_session`'s tables.
PROBE_BUDGET = {
    "index_join_group_by": 285,
    "ordered_prefix_top_5": 106,
    "ordered_range": 78,
    "in_list_probe": 90,
}


def _calls(fn) -> int:
    """The Python calls ``fn`` makes, with the collector held off: a
    collection would also count the ``gc.callbacks`` other libraries
    install (Hypothesis has one), whenever earlier tests' allocations
    happen to trigger it mid-statement."""
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event == "call":
            count += 1

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return count


@pytest.fixture
def session(authority, db):
    user = authority.create_principal("user")
    s = db.connect(IFCProcess(authority, user.id))
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT, n INT, x REAL)")
    for i in range(20):
        s.execute("INSERT INTO t (id, v, n, x) VALUES (?, ?, ?, ?)",
                  (i, "v%d" % i, i, 0.5))
    return s


@pytest.fixture
def probe_session(authority):
    db = Database(authority, seed=12345,
                  batch_size=physical.DEFAULT_BATCH_SIZE, work_mem=0)
    user = authority.create_principal("user")
    s = db.connect(IFCProcess(authority, user.id))
    s.execute("CREATE TABLE p (id INT PRIMARY KEY, name TEXT)")
    s.execute("CREATE TABLE c (id INT PRIMARY KEY, pid INT, ts INT, v INT)")
    s.execute("CREATE ORDERED INDEX c_by_p ON c (pid, ts)")
    for i in range(24):
        s.execute("INSERT INTO p (id, name) VALUES (?, ?)", (i, "p%d" % i))
        for j in range(10):
            s.execute("INSERT INTO c (id, pid, ts, v) VALUES (?, ?, ?, ?)",
                      (i * 10 + j, i, j, j))
    s.execute("ANALYZE")
    return s


def _statements(session):
    keys = iter(range(1000, 2000))
    rows = iter(range(20))      # each UPDATE finds a one-version chain
    return {
        "select_1": lambda: session.execute("SELECT 1"),
        "select_by_key": lambda: session.execute(
            "SELECT v, n FROM t WHERE id = ?", (7,)),
        "insert": lambda: session.execute(
            "INSERT INTO t (id, v, n, x) VALUES (?, ?, ?, ?)",
            (next(keys), "w", 1, 1.5)),
        "update_by_key": lambda: session.execute(
            "UPDATE t SET n = n + 1 WHERE id = ?", (next(rows),)),
    }


def _probes(session):
    return {
        "index_join_group_by": lambda: session.execute(
            INDEX_JOIN_GROUP_BY),
        "ordered_prefix_top_5": lambda: session.execute(
            "SELECT ts, v FROM c WHERE pid = ? ORDER BY ts DESC LIMIT 5",
            (7,)),
        "ordered_range": lambda: session.execute(
            "SELECT id FROM c WHERE pid = ? AND ts >= ? AND ts < ?",
            (7, 2, 6)),
        "in_list_probe": lambda: session.execute(
            "SELECT id, v FROM c WHERE id IN (?, ?, ?, ?)", (78, 72, 75, 73)),
    }


INDEX_JOIN_GROUP_BY = ("SELECT p.id, COUNT(*), MAX(c.ts) FROM p "
                       "JOIN c ON c.pid = p.id GROUP BY p.id")


def test_probe_statements_plan_the_index_paths(probe_session):
    """The probe budgets measure the index paths they name."""
    def plan(sql):
        return "\n".join(row[0] for row
                         in probe_session.execute("EXPLAIN " + sql))

    assert "IndexLoopJoin (inner) c using c_by_p" in plan(INDEX_JOIN_GROUP_BY)
    assert "IndexScan c using c_by_p" in plan(
        "SELECT ts, v FROM c WHERE pid = 7 ORDER BY ts DESC LIMIT 5")
    assert "IndexRangeScan c using c_by_p" in plan(
        "SELECT id FROM c WHERE pid = 7 AND ts >= 2 AND ts < 6")
    assert "IndexScan c using c_c_pkey_idx (id IN (78, 72, 75, 73))" in plan(
        "SELECT id, v FROM c WHERE id IN (78, 72, 75, 73)")
    statements = _probes(probe_session)
    assert len(statements["index_join_group_by"]().rows) == 24
    assert [tuple(row) for row in statements["ordered_prefix_top_5"]().rows] \
        == [(9, 9), (8, 8), (7, 7), (6, 6), (5, 5)]
    assert sorted(row[0] for row in statements["ordered_range"]().rows) \
        == [72, 73, 74, 75]
    assert [tuple(row) for row in statements["in_list_probe"]().rows] \
        == [(72, 2), (73, 3), (75, 5), (78, 8)]


def _within_budget(session, statements, budget, name):
    statement = statements[name]
    session.begin()
    for _ in range(3):                  # parse, plan and warm every cache
        statement()
    calls = _calls(statement)
    session.rollback()
    assert calls <= budget[name], (
        "%s made %d Python calls in a transaction; its budget is %d"
        % (name, calls, budget[name]))


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_in_transaction_statement_stays_within_its_call_budget(
        session, name):
    _within_budget(session, _statements(session), BUDGET, name)


@pytest.mark.parametrize("name", sorted(PROBE_BUDGET))
def test_index_probe_stays_within_its_call_budget(probe_session, name):
    _within_budget(probe_session, _probes(probe_session), PROBE_BUDGET,
                   name)


@pytest.mark.parametrize("make_session, make_statements", [
    ("session", _statements), ("probe_session", _probes)],
    ids=["statements", "probes"])
def test_counts_are_deterministic(request, make_session, make_statements):
    session = request.getfixturevalue(make_session)
    statements = make_statements(session)
    session.begin()
    for statement in statements.values():
        for _ in range(3):
            statement()
    first = {name: _calls(fn) for name, fn in statements.items()}
    second = {name: _calls(fn) for name, fn in statements.items()}
    session.rollback()
    assert first == second
