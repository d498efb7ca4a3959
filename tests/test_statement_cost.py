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
"""

import sys

import pytest

from repro.core import IFCProcess

#: Python calls per in-transaction statement (upper bounds), as read on
#: CPython 3.11; 3.12 inlines comprehensions and counts fewer.
BUDGET = {
    "select_1": 40,
    "select_by_key": 74,
    "insert": 64,
    "update_by_key": 89,
}


def _calls(fn) -> int:
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
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


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_in_transaction_statement_stays_within_its_call_budget(
        session, name):
    statement = _statements(session)[name]
    session.begin()
    for _ in range(3):                  # parse, plan and warm every cache
        statement()
    calls = _calls(statement)
    session.rollback()
    assert calls <= BUDGET[name], (
        "%s made %d Python calls in a transaction; its budget is %d"
        % (name, calls, BUDGET[name]))


def test_counts_are_deterministic(session):
    statements = _statements(session)
    session.begin()
    for statement in statements.values():
        for _ in range(3):
            statement()
    first = {name: _calls(fn) for name, fn in statements.items()}
    second = {name: _calls(fn) for name, fn in statements.items()}
    session.rollback()
    assert first == second
