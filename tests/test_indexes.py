"""An ordered index answers a prefix or a range with two bisections and
a slice; these properties hold it to a brute-force filter over its
entries.

Keys are composites of INT, TEXT and REAL columns drawn from small
pools, so duplicate keys (one key, several tids) are common; some
entries are removed again before the index is read.  Every prefix
length is asked for (none, part of the key, all of it), and every bound
shape on the column after a prefix — absent, inclusive, exclusive,
outside the keys' values, and a low bound above the high one.

A NaN compares false with everything, so the index holds it as a key
that sorts after every number, and a NULL compares with nothing, so
it is held as a key that sorts before every value; the index answers
as SQL compares: a NULL or a NaN in a prefix or a bound matches
nothing, a NaN key meets no bound and a NULL key no range at all.
Whatever order NULLs, NaNs and numbers arrive in, removal finds each
entry and a range scan answers as a full scan does.  A ``LIMIT`` over a wide
range gathers only the segments it reads.
"""

from __future__ import annotations

from itertools import permutations
from operator import eq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator
from repro.core.counters import tally
from repro.db import Database
from repro.db.indexes import OrderedIndex
from repro.db.storage import SET_AT_A_TIME_MIN, Table

NAN = float("nan")

#: Values the keys hold, per column type, and the wider pools bounds
#: are drawn from (values below, between and above the keys').
KEY_VALUES = {"INT": st.none() | st.integers(-3, 3),
              "TEXT": st.sampled_from([None, "", "a", "ab", "b", "ba"]),
              "REAL": st.sampled_from([-1.5, 0.0, 0.5, 2.0, NAN, None])}
BOUND_VALUES = {"INT": st.integers(-6, 6),
                "TEXT": st.sampled_from(["", "0", "a", "aa", "ab", "b",
                                         "bb", "zz"]),
                "REAL": st.sampled_from([-3.0, 0.0, 0.25, 0.5, 3.0, NAN])}


@st.composite
def _indexes(draw):
    """``(index, types, entries)``: an index over 1–3 columns after its
    inserts and removes, and the ``(key, tid)`` entries it holds."""
    types = draw(st.lists(st.sampled_from(sorted(KEY_VALUES)),
                          min_size=1, max_size=3))
    keys = draw(st.lists(st.tuples(*[KEY_VALUES[t] for t in types]),
                         max_size=40))
    index = OrderedIndex("ix", ["c%d" % i for i in range(len(types))],
                         range(len(types)))
    entries = list(zip(keys, range(len(keys))))
    for key, tid in draw(st.permutations(entries)):
        index.insert(key, tid)
    removed = draw(st.sets(st.sampled_from(entries))) if entries else set()
    for key, tid in removed:
        index.remove(key, tid)
    return index, types, [entry for entry in entries
                          if entry not in removed]


def _prefix(data, types, keys, width) -> tuple:
    """A prefix of a held key, or one drawn from the wider pools."""
    if keys and data.draw(st.booleans()):
        return data.draw(st.sampled_from(keys))[:width]
    return tuple(data.draw(BOUND_VALUES[t]) for t in types[:width])


def _starts_with(key, prefix) -> bool:
    """``key`` starts with ``prefix`` as SQL compares: NULL and NaN
    equal nothing, themselves included."""
    return None not in prefix and all(map(eq, key, prefix))


def _in_order(entries, keep) -> list:
    """The kept tids in index order: by key, a NULL before every value
    and a NaN after every number, then by tid."""
    def order(entry):
        key, tid = entry
        return tuple((-1, 0) if v is None else (1, 0) if v != v else (0, v)
                     for v in key), tid
    return [tid for key, tid in sorted(entries, key=order) if keep(key)]


@given(_indexes(), st.data())
@settings(max_examples=300, deadline=None)
def test_lookup_is_a_prefix_filter(built, data):
    index, types, entries = built
    keys = [key for key, _tid in entries]
    for width in range(len(types) + 1):
        prefix = _prefix(data, types, keys, width)
        before = tally().lookups
        got = index.lookup(prefix)
        assert tally().lookups == before + 1
        assert type(got) is list
        assert got == _in_order(
            entries, lambda key: _starts_with(key, prefix)), prefix


@given(_indexes(), st.data())
@settings(max_examples=300, deadline=None)
def test_scan_range_is_a_bounds_filter(built, data):
    index, types, entries = built
    keys = [key for key, _tid in entries]
    for _ in range(4):
        width = data.draw(st.integers(0, len(types) - 1))
        prefix = _prefix(data, types, keys, width)
        pool = st.none() | BOUND_VALUES[types[width]]
        low, high = data.draw(pool), data.draw(pool)
        include_low, include_high = data.draw(st.booleans()), \
            data.draw(st.booleans())

        def keep(key):
            value = key[width]
            return _starts_with(key, prefix) and value is not None and (
                low is None
                or (low <= value if include_low else low < value)) and (
                high is None
                or (value <= high if include_high else value < high))

        before = tally().range_scans
        got = index.scan_range(prefix, low, high, include_low=include_low,
                               include_high=include_high)
        assert tally().range_scans == before + 1
        assert type(got) is list
        assert got == _in_order(entries, keep), (prefix, low, high,
                                                 include_low, include_high)


def test_empty_index_and_low_above_high():
    index = OrderedIndex("ix", ["a", "b"], (0, 1))
    assert index.lookup((1,)) == []
    assert index.lookup(()) == []
    assert index.scan_range(()) == []
    assert index.scan_range((), 1, 0) == []
    for tid, key in enumerate([(0, "x"), (1, "y"), (1, "y"), (2, "z")]):
        index.insert(key, tid)
    assert index.scan_range((), 2, 1) == []
    assert index.scan_range((1,), "y", "y", include_low=False) == []
    assert index.scan_range((), 1, 1) == [1, 2]
    assert index.scan_range((), 1, 1, include_high=False) == []
    assert index.lookup((1, "y")) == [1, 2]
    index.remove((1, "y"), 1)
    assert index.lookup((1,)) == [2]
    for key, tid in [((0, "x"), 0), ((1, "y"), 2), ((2, "z"), 3)]:
        index.remove(key, tid)
    assert len(index) == 0
    assert index.scan_range(()) == [] == index.lookup((1,))



def test_nan_keys_keep_one_order_and_are_removed():
    """Whatever order they arrive in, the NaNs sort after the numbers
    (``[1.0, NaN, 0.5]`` compared as floats would stay unsorted, and
    removing ``0.5`` would bisect past its entry), and a NaN in a
    prefix matches nothing."""
    values = [1.0, NAN, 0.5, float("nan"), 2.0]
    for order in permutations(range(len(values))):
        index = OrderedIndex("ix", ["g", "x"], (0, 1))
        for tid in order:
            index.insert((7, values[tid]), tid)
        assert index.lookup((7,)) == [2, 0, 4, 1, 3]
        assert index.scan_range((7,)) == [2, 0, 4, 1, 3]
        assert index.scan_range((7,), 0.5) == [2, 0, 4]
        assert index.scan_range((7,), 0.5, 2.0, include_low=False) == [0, 4]
        assert index.scan_range((7,), NAN) == []
        assert index.lookup((7, NAN)) == []
        for tid in reversed(order):
            index.remove((7, values[tid]), tid)
        assert len(index) == 0, order


#: Predicates on ``x`` (a REAL under the ordered indexes) and the plan
#: node each must take on ``t``; every one is asked with a number and
#: with a NaN.
NAN_PREDICATES = (
    ("g = 1 AND x >= ?", "IndexRangeScan t using t_gx"),
    ("g = 1 AND x > ?", "IndexRangeScan t using t_gx"),
    ("g = 1 AND x < ?", "IndexRangeScan t using t_gx"),
    ("g = 1 AND x <= ? AND x > 0.1", "IndexRangeScan t using t_gx"),
    ("g = 1 AND x = ?", "IndexScan t using t_gx"),
    ("g = 1 AND x <> ?", "IndexScan t using t_gx"),
    ("x >= ?", "IndexRangeScan s using s_x"),
    ("x < ?", "IndexRangeScan s using s_x"),
)


def test_nan_under_an_ordered_index_answers_like_a_full_scan():
    """NULLs, NaNs and numbers inserted in every order, a number and a
    NaN deleted and vacuumed away, then every predicate through an
    index and through a full scan of an unindexed twin."""
    values = [1.0, NAN, 0.5, None, 2.0]
    for order in permutations(values):
        authority = AuthorityState(idgen=SeededIdGenerator(7))
        session = Database(authority, seed=7).connect()
        for table, index in (("t", "CREATE ORDERED INDEX t_gx ON t (g, x)"),
                             ("s", "CREATE ORDERED INDEX s_x ON s (x)"),
                             ("u", None)):
            session.execute("CREATE TABLE %s (id INT PRIMARY KEY, g INT, "
                            "x REAL)" % table)
            if index:
                session.execute(index)
            for i, x in enumerate(order):
                for g in (1, 2):
                    session.execute("INSERT INTO %s (id, g, x) VALUES "
                                    "(?, ?, ?)" % table, (2 * i + g, g, x))
            session.execute("DELETE FROM %s WHERE g = 1 AND id IN (?, ?)"
                            % table, (2 * order.index(0.5) + 1,
                                      2 * order.index(NAN) + 1))
        session.execute("VACUUM")
        for predicate, node in NAN_PREDICATES:
            for param in (0.7, 0.5, 3.0, NAN):
                got = {}
                for table in ("t", "s", "u"):
                    sql = "SELECT id FROM %s WHERE %s" % (table, predicate)
                    got[table] = sorted(row[0] for row in session.execute(
                        sql, (param,)).rows)
                    plan = "\n".join(row[0] for row in session.execute(
                        "EXPLAIN " + sql, (param,)).rows)
                    if node.split()[1] == table:
                        assert node in plan, plan
                assert got["t"] == got["s"] == got["u"], (
                    order, predicate, param, got)


def test_a_limit_over_a_range_gathers_only_the_segments_it_reads(
        monkeypatch):
    authority = AuthorityState(idgen=SeededIdGenerator(7))
    session = Database(authority, seed=7, batch_size=8).connect()
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT)")
    session.execute("CREATE ORDERED INDEX t_k ON t (k)")
    for i in range(100):
        session.execute("INSERT INTO t (id, k) VALUES (?, ?)", (i, i))
    gathered = []
    versions_for_tids = Table.versions_for_tids

    def counting(table, tids):
        gathered.append(len(tids))
        return versions_for_tids(table, tids)

    monkeypatch.setattr(Table, "versions_for_tids", counting)
    sql = "SELECT id FROM t WHERE k >= ? LIMIT 3"
    assert "IndexRangeScan t using t_k" in "\n".join(
        row[0] for row in session.execute("EXPLAIN " + sql, (10,)).rows)
    gathered.clear()
    assert [row[0] for row in session.execute(sql, (10,)).rows] \
        == [10, 11, 12]
    assert gathered == [8]


def test_null_keys_sort_first_and_match_nothing():
    """Whatever order they arrive in, NULLs sort before every value
    (``bisect.insort`` of a NULL among numbers used to raise a bare
    TypeError), removal finds them, and no lookup or range meets one —
    a range without a lower bound starts past them."""
    values = [1.0, None, 0.5, None, NAN]
    for order in permutations(range(len(values))):
        index = OrderedIndex("ix", ["g", "x"], (0, 1))
        for tid in order:
            index.insert((7, values[tid]), tid)
        assert index.lookup((7,)) == [1, 3, 2, 0, 4]
        assert index.lookup((7, None)) == [] == index.lookup((None,))
        assert index.scan_range((7,), None, 1.0) == [2, 0]
        assert index.scan_range((7,)) == [2, 0, 4]
        assert index.scan_range((None,), 0.0) == []
        for tid in reversed(order):
            index.remove((7, values[tid]), tid)
        assert len(index) == 0, order


def test_a_nan_matches_nothing_through_a_hash_index():
    """``x = ?`` with a NaN returns what the unindexed twin's filter
    returns — nothing — through a hash index and a UNIQUE one, even
    asked with the very NaN object the row holds (a dict compares keys
    by identity first)."""
    session = Database(AuthorityState(idgen=SeededIdGenerator(7)),
                       seed=7).connect()
    session.execute("CREATE TABLE h (id INT PRIMARY KEY, x REAL, y REAL, "
                    "UNIQUE (y))")
    session.execute("CREATE INDEX h_x ON h (x)")
    session.execute("CREATE TABLE u (id INT PRIMARY KEY, x REAL, y REAL)")
    nan = float("nan")
    for table in ("h", "u"):
        for i, value in enumerate((nan, 1.5, nan, 2.5)):
            session.execute("INSERT INTO %s VALUES (?, ?, ?)" % table,
                            (i, value, value if i != 2 else 9.0))
    for column, node in (("x", "IndexScan h using h_x"),
                         ("y", "IndexScan h using h_h_unique1_idx")):
        for param in (nan, float("nan"), 1.5, 9.0):
            got = {}
            for table in ("h", "u"):
                sql = "SELECT id FROM %s WHERE %s = ?" % (table, column)
                got[table] = sorted(row[0] for row in session.execute(
                    sql, (param,)).rows)
            assert node in "\n".join(row[0] for row in session.execute(
                "EXPLAIN SELECT id FROM h WHERE %s = ?" % column,
                (param,)).rows)
            assert got["h"] == got["u"], (column, param, got)


@pytest.mark.parametrize("batch_size", [1024, 1])
def test_a_write_an_index_refuses_publishes_nothing(monkeypatch, batch_size):
    """An index that raises inside ``Table.append`` leaves no trace: the
    entries made before it come back out and the version is never
    published, so afterwards a full scan, a primary-key probe, an
    ordered-index range, ``COUNT(*)`` and a re-insert of the same key
    agree that the row does not exist — on a table of at least
    ``SET_AT_A_TIME_MIN`` versions, whose segments are summarized."""
    session = Database(AuthorityState(idgen=SeededIdGenerator(7)), seed=7,
                       batch_size=batch_size).connect()
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT)")
    session.execute("CREATE ORDERED INDEX t_a ON t (a)")
    for i in (1, 2, 3):
        session.execute("INSERT INTO t VALUES (?, ?)", (i, i))
    table = session.db.catalog.get_table("t")
    refusing = table.indexes["t_a"]

    def refuse(values, tid):
        raise RuntimeError("index full")

    monkeypatch.setattr(refusing, "insert", refuse)
    with pytest.raises(RuntimeError):
        session.execute("INSERT INTO t VALUES (99, 99)")
    monkeypatch.undo()
    for i in range(4, 4 + SET_AT_A_TIME_MIN):
        session.execute("INSERT INTO t VALUES (?, ?)", (i, i))
    rows = 3 + SET_AT_A_TIME_MIN
    assert sorted(row[0] for row in session.execute(
        "SELECT id FROM t").rows) == list(range(1, rows + 1))
    assert session.execute("SELECT COUNT(*) FROM t").rows[0][0] == rows
    assert session.execute("SELECT a FROM t WHERE id = 99").rows == []
    assert session.execute("SELECT id FROM t WHERE a >= 50").rows == []
    assert all(len(index) == rows for index in table.indexes.values())
    session.execute("INSERT INTO t VALUES (99, 1)")
    assert session.execute(
        "SELECT a FROM t WHERE id = 99").rows[0][0] == 1
    assert session.execute("SELECT COUNT(*) FROM t").rows[0][0] == rows + 1


#: Predicates on ``{c}`` — ``ts`` under an ordered index, or ``u``, its
#: unindexed twin holding the same values — with what each is asked
#: with, and the access path the indexed one must take.  Every value
#: is TEXT against an INT column, so no comparison can place it.
UNPLACEABLE = (
    ("SELECT id FROM t WHERE {c} = 'a'", (), "IndexScan t using t_ts"),
    ("SELECT id FROM t WHERE {c} = ?", ("a",), "IndexScan t using t_ts"),
    ("SELECT id FROM t WHERE {c} IN (3, 'a')", (), "IndexScan t using t_ts"),
    ("SELECT id FROM t WHERE {c} < 'a'", (), "IndexRangeScan"),
    ("SELECT id FROM t WHERE {c} <= ?", ("a",), "IndexRangeScan"),
    ("SELECT id FROM t WHERE {c} > 'a'", (), "IndexRangeScan"),
    ("SELECT id FROM t WHERE {c} >= ?", ("a",), "IndexRangeScan"),
    ("SELECT id FROM t WHERE {c} >= 3 AND {c} < 'a'", (), "IndexRangeScan"),
    ("SELECT id FROM t WHERE {c} BETWEEN 'a' AND 'b'", (), "IndexRangeScan"),
    ("SELECT id FROM t WHERE id > 100 AND {c} >= 'a'", (), "IndexRangeScan"),
    ("SELECT id FROM t WHERE {c} >= 'a' AND id > 100", (), "IndexRangeScan"),
    ("UPDATE t SET id = id + 100 WHERE {c} > ?", ("a",), "IndexRangeScan"),
    ("DELETE FROM t WHERE {c} <= 'a'", (), "IndexRangeScan"),
    ("SELECT s.id, t.id FROM s JOIN t ON t.{c} = s.name", (),
     "IndexLoopJoin (inner) t using t_ts"),
)


def _unplaceable_world(batch_size, reader_sees_rows):
    """``t`` (``ts`` under an ordered index, ``u`` unindexed, the same
    values in both, NULL in one row) and ``s`` (one TEXT key per row);
    the reader sees ``t``'s rows, or none of them when they were all
    written under a tag it does not hold."""
    authority = AuthorityState(idgen=SeededIdGenerator(7))
    db = Database(authority, seed=7, batch_size=batch_size)
    owner = authority.create_principal("owner")
    hidden = authority.create_tag("hidden", owner=owner.id)
    admin = db.connect(IFCProcess(authority, owner.id))
    admin.execute_script(
        "CREATE TABLE t (id INT PRIMARY KEY, ts INT, u INT);"
        "CREATE ORDERED INDEX t_ts ON t (ts);"
        "CREATE TABLE s (id INT PRIMARY KEY, name TEXT);"
        "INSERT INTO s VALUES (1, 'a');")
    writer = IFCProcess(authority, owner.id)
    if not reader_sees_rows:
        writer.add_secrecy(hidden.id)
    writer = db.connect(writer)
    for i in range(10):
        value = None if i == 4 else i
        writer.execute("INSERT INTO t VALUES (?, ?, ?)", (i, value, value))
    admin.execute("ANALYZE")
    return admin


def _outcome(session, sql, params):
    try:
        result = session.execute(sql, params)
    except Exception as exc:                    # noqa: BLE001 — observed
        return ("error", type(exc).__name__, str(exc))
    return ("ok", result.rowcount, sorted(tuple(row) for row in result.rows))


@pytest.mark.parametrize("reader_sees_rows", [True, False])
@pytest.mark.parametrize("batch_size", [1, 1024])
def test_a_value_the_index_cannot_place_answers_as_the_filter_does(
        batch_size, reader_sees_rows):
    """A key or bound that does not compare with an ordered index's
    column (TEXT against INT) used to raise a bare ``TypeError`` from
    the bisection.  Now an equality matches nothing, as the filter's
    ``=`` does, and a bound raises the filter's typed error and message
    exactly when a visible row reaches it — never because a bisection
    met a hidden version's key: with every row hidden, nothing raises.
    Each statement runs on a fresh pair, since the writes change it."""
    for sql, params, node in UNPLACEABLE:
        indexed, twin = (sql.format(c=c) for c in ("ts", "u"))
        session = _unplaceable_world(batch_size, reader_sees_rows)
        plan = "\n".join(row[0] for row in session.execute(
            "EXPLAIN " + indexed, params).rows)
        assert node in plan, (sql, plan)
        got = _outcome(session, indexed, params)
        want = _outcome(_unplaceable_world(batch_size, reader_sees_rows),
                        twin, params)
        assert got == want, (sql, got, want)
        if not reader_sees_rows:
            assert got[0] == "ok", (sql, got)
    assert want[0] == "ok"
    session = _unplaceable_world(batch_size, True)
    assert _outcome(session, "SELECT id FROM t WHERE ts >= 'a'", ()) == (
        "error", "ExpressionError", "cannot evaluate INT >= TEXT: '>=' not "
        "supported between instances of 'int' and 'str'")
