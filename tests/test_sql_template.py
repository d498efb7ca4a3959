"""Statement templates (sql/template.py): a new text of a known shape
is lexed and bound, never parsed, and must come out as a fresh parse of
that text would.

The property test rebinds every literal token of a corpus — the texts
of the parser and SQL-surface suites, the CarTel, HotCRP and TPC-C
applications' statements, and the six ``adhoc_sql`` templates — and
compares the bound statement with a fresh parse, node type by node
type, subqueries included.  The named hazards below pin the places
where a literal is not a plain value: ordinals, raw values the parser
reads itself (type lengths, DEFAULT, DECLASSIFYING tag names),
parameters, subqueries, and texts that differ only in layout.
"""

from __future__ import annotations

import ast as pyast
import dataclasses
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import counters
from repro.db import Database
from repro.db import expressions as ex
from repro.errors import SQLSyntaxError
from repro.sql.lexer import NUMBER, STRING, tokenize
from repro.sql.parser import parse_expression, parse_statement

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SOURCES = ["tests/test_sql_parser.py", "tests/test_sql_surface.py",
           "src/repro/workloads/tpcc.py"] + [
    os.path.join(folder, name)
    for app in ("cartel", "hotcrp")
    for folder in [os.path.join("src/repro/apps", app)]
    for name in sorted(os.listdir(os.path.join(ROOT, folder)))
    if name.endswith(".py")]

#: One instance of each ``adhoc_sql`` template (benchmarks/e2e).
ADHOC = [
    "SELECT i_name, i_price FROM Item WHERE i_id = 17 "
    "AND i_price >= 42.1250",
    "SELECT c_id, c_discount FROM Customer WHERE c_w_id = 1 "
    "AND c_d_id = 3 AND c_id >= 7 AND c_discount < 0.2500 "
    "ORDER BY c_id LIMIT 5",
    "SELECT o.o_c_id, ol.ol_number, ol.ol_i_id FROM Orders o "
    "JOIN OrderLine ol ON ol.ol_w_id = o.o_w_id "
    "AND ol.ol_d_id = o.o_d_id AND ol.ol_o_id = o.o_id "
    "WHERE o.o_w_id = 2 AND o.o_d_id = 1 AND o.o_id = 9 "
    "AND ol.ol_amount <= 5120.25",
    "SELECT ol.ol_number, i.i_name FROM Orders o "
    "JOIN OrderLine ol ON ol.ol_w_id = o.o_w_id "
    "AND ol.ol_d_id = o.o_d_id AND ol.ol_o_id = o.o_id "
    "JOIN Item i ON i.i_id = ol.ol_i_id "
    "WHERE o.o_w_id = 1 AND o.o_d_id = 4 AND o.o_id = 3 "
    "AND i.i_price >= 12.5000",
    "SELECT ol_o_id, COUNT(*), SUM(ol_quantity) FROM OrderLine "
    "WHERE ol_w_id = 2 AND ol_d_id = 2 AND ol_o_id >= 4 "
    "AND ol_o_id < 9 AND ol_amount <= 777.77 GROUP BY ol_o_id",
    "SELECT s_i_id, s_quantity FROM Stock WHERE s_w_id = 1 "
    "AND s_i_id IN (3, 14, 15, 92)",
]


def _corpus():
    """Every string constant (or ``;``-separated piece of one) in
    :data:`SOURCES` that parses as a statement, plus :data:`ADHOC`."""
    texts = dict.fromkeys(ADHOC)
    for path in SOURCES:
        with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
            tree = pyast.parse(handle.read())
        for node in pyast.walk(tree):
            if isinstance(node, pyast.Constant) \
                    and isinstance(node.value, str):
                for piece in node.value.split(";"):
                    try:
                        parse_statement(piece)
                    except SQLSyntaxError:
                        continue
                    texts.setdefault(piece.strip())
    return list(texts)


CORPUS = _corpus()
_NUMBER_TEXT = re.compile(r"\d*(?:\.\d*)?(?:[eE][+-]?\d+)?")


def _literals(sql):
    return [token for token in tokenize(sql)
            if token.kind in (NUMBER, STRING)]


def _substitute(sql, replacements):
    """``sql`` with each ``(literal token, new value)`` written over
    the token's text."""
    for token, value in sorted(replacements, key=lambda r: -r[0].position):
        if token.kind == STRING:
            end = token.position + 1
            while True:
                end = sql.index("'", end)
                if not sql.startswith("''", end):
                    break
                end += 2
            end += 1
            text = "'%s'" % value.replace("'", "''")
        else:
            end = _NUMBER_TEXT.match(sql, token.position).end()
            text = repr(value)
        sql = sql[:token.position] + text + sql[end:]
    return sql


def _parts(node):
    """The attributes of a statement or expression node, the items of
    a list or tuple; ``None`` for a value."""
    if isinstance(node, ex.Expr):
        return [getattr(node, name) for cls in type(node).__mro__
                for name in cls.__dict__.get("__slots__", ())]
    if dataclasses.is_dataclass(node):
        return [getattr(node, field.name)
                for field in dataclasses.fields(node)] + [
            getattr(node, "fingerprint", None)]
    if isinstance(node, (list, tuple)):
        return list(node)
    return None


def _tree(node):
    """``node`` as nested tuples that name every node's type and every
    value's, descending into subquery ``Select``\\ s — a fresh parse's
    subquery nodes compare by identity, and ``Literal(1)`` equals
    ``Literal(1.0)``."""
    parts = _parts(node)
    if parts is None:
        return (type(node).__name__, node)
    return (type(node).__name__,) + tuple(_tree(part) for part in parts)


def _spine(statement) -> set:
    """ids of the nodes that hold a literal parsed from a token."""
    ids = set()

    def holds(node) -> bool:
        if isinstance(node, ex.Literal):
            found = type(node.value) in (int, float, str)
        else:
            found = any([holds(part) for part in _parts(node) or ()])
        if found:
            ids.add(id(node))
        return found
    holds(statement)
    return ids


def _check_rebinding(text, new):
    """Bind ``new`` into the template ``text`` left, and compare."""
    db = Database(seed=1)
    first = db.parse(text)
    bound = db.parse(new)
    if new == text:
        assert bound is first
        return
    fresh = parse_statement(new)
    assert _tree(bound) == _tree(fresh), new
    assert bound.fingerprint == fresh.fingerprint == first.fingerprint
    assert not _spine(first) & _spine(bound)
    # Binding changed nothing the earlier statement holds.
    assert _tree(first) == _tree(parse_statement(text))


def _other(value):
    if isinstance(value, str):
        return value + "x"
    return value + (7 if isinstance(value, int) else 0.5)


def test_the_corpus_covers_every_source():
    assert len(CORPUS) > 100
    for marker in ("DECLASSIFYING", "EXISTS", "IN (SELECT", "ORDER BY",
                   "CREATE TABLE", "LIMIT"):
        assert any(marker in text.upper() for text in CORPUS), marker


def test_every_literal_of_the_corpus_rebinds_to_a_fresh_parse():
    checked = 0
    for text in CORPUS:
        for token in _literals(text):
            _check_rebinding(text, _substitute(
                text, [(token, _other(token.value))]))
            checked += 1
    assert checked > 50


NUMBERS = st.one_of(st.integers(min_value=0, max_value=10 ** 12),
                    st.floats(min_value=0, max_value=1e12,
                              allow_nan=False, allow_infinity=False))
STRINGS = st.text(max_size=12)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_literals_bind_to_a_fresh_parse(data):
    text = data.draw(st.sampled_from([text for text in CORPUS
                                      if _literals(text)]))
    replacements = [
        (token, data.draw(NUMBERS if token.kind == NUMBER else STRINGS))
        for token in _literals(text)]
    _check_rebinding(text, _substitute(text, replacements))


# ---------------------------------------------------------------------------
# named hazards
# ---------------------------------------------------------------------------

ROWS = [(1, 30, 200), (2, 10, 300), (3, 20, 100), (4, 50, 500),
        (5, 40, 400), (6, 60, 50)]


def _db():
    db = Database(seed=1)
    session = db.connect()
    session.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT, c INT)")
    for row in ROWS:
        session.execute("INSERT INTO t VALUES (?, ?, ?)", row)
    return db, session


def _outcome(session, sql, params=()):
    try:
        return [tuple(row) for row in session.execute(sql, params).rows]
    except Exception as error:                    # compared, not hidden
        return type(error).__name__


def _parses(db, texts):
    """``{text: statement}`` through ``db``, and the parse counters."""
    counters.reset()
    statements = {text: db.parse(text) for text in texts}
    return statements, db.stats()["parse"]


def test_a_string_one_and_a_number_one_are_two_shapes():
    db, _session = _db()
    statements, counts = _parses(db, ["SELECT a FROM t WHERE b = '1'",
                                      "SELECT a FROM t WHERE b = 1"])
    assert counts["parses"] == 2 and counts["shape_hits"] == 0
    values = [s.where.right.value for s in statements.values()]
    assert values == ["1", 1] and type(values[1]) is int


@pytest.mark.parametrize("setup, texts", [
    (["CREATE TABLE q (a INT, b INT)", "INSERT INTO q VALUES (1, 2)"],
     ["SELECT a b FROM q", 'SELECT "a b" FROM q']),
    (['CREATE TABLE q ("?" TEXT)', "INSERT INTO q VALUES ('x')"],
     ['SELECT 3, "?" FROM q', 'SELECT "?", 3 FROM q']),
], ids=["alias_or_quoted_name", "quoted_question_mark"])
@pytest.mark.parametrize("order", [1, -1], ids=["forward", "backward"])
def test_a_quoted_identifier_is_its_own_shape(setup, texts, order):
    """Quotes are part of the shape key: a quoted name never binds a
    template of the unquoted words, nor a ``"?"`` one of a parameter.
    Each text gives on one database, after the other, what it gives on
    a fresh one — rows or error type."""
    def fresh():
        session = Database(seed=1).connect()
        for sql in setup:
            session.execute(sql)
        return session

    session = fresh()
    texts = texts[::order]
    outcomes = [_outcome(session, text) for text in texts]
    assert outcomes == [_outcome(fresh(), text) for text in texts]
    assert len(set(map(str, outcomes))) == 2


@pytest.mark.parametrize("texts", [
    ["SELECT a, b, c FROM t ORDER BY 2", "SELECT a, b, c FROM t ORDER BY 3",
     "SELECT a, b, c FROM t ORDER BY 2.0", "SELECT a FROM t ORDER BY 2"],
    ["SELECT a FROM t ORDER BY a LIMIT 5", "SELECT a FROM t ORDER BY a LIMIT 2",
     "SELECT a FROM t ORDER BY a LIMIT 5.0"],
], ids=["order_by_ordinal", "limit"])
def test_ordinals_and_limits_are_bound_and_planned_per_text(texts):
    db, session = _db()
    outcomes = [_outcome(session, text) for text in texts]
    for text, outcome in zip(texts, outcomes):
        assert _tree(db.parse(text)) == _tree(parse_statement(text))
        assert outcome == _outcome(_db()[1], text), text     # a fresh db
    assert outcomes[0] != outcomes[1]
    plans = [db._plan_cache[text][1] for text in texts]
    planned = [plan for plan in plans if plan is not None]
    assert len({id(plan) for plan in planned}) == len(planned) >= 2


def test_declassifying_tag_names_are_never_slots():
    db, _session = _db()
    texts = ["INSERT INTO t VALUES (1, 2, 3) DECLASSIFYING ('a')",
             "INSERT INTO t VALUES (4, 5, 6) DECLASSIFYING ('b')",
             "INSERT INTO t VALUES (7, 8, 9) DECLASSIFYING ('b')",
             "CREATE VIEW v AS SELECT a FROM t WHERE b = 1 "
             "WITH DECLASSIFYING ('a')",
             "CREATE VIEW v AS SELECT a FROM t WHERE b = 2 "
             "WITH DECLASSIFYING ('b')"]
    statements, counts = _parses(db, texts)
    assert [s.declassifying for s in statements.values()] == [
        ["a"], ["b"], ["b"], ["a"], ["b"]]
    # A different tag does not fit the template and is parsed; the same
    # tag binds into the template that parse left.
    assert counts == {"text_hits": 0, "shape_hits": 1, "parses": 4}
    for text, statement in statements.items():
        assert _tree(statement) == _tree(parse_statement(text))


def test_type_lengths_and_defaults_are_never_slots():
    db, _session = _db()
    texts = ["CREATE TABLE x (s VARCHAR(20), n INT DEFAULT 5)",
             "CREATE TABLE x (s VARCHAR(30), n INT DEFAULT 5)",
             "CREATE TABLE x (s VARCHAR(30), n INT DEFAULT -5)",
             "CREATE TABLE x (s VARCHAR(30), n INT DEFAULT 6)",
             "CREATE TABLE x (s VARCHAR(30), n INT DEFAULT 6.0)"]
    statements, counts = _parses(db, texts)
    assert [(s.columns[0].type_length, s.columns[1].default)
            for s in statements.values()] == [
        (20, 5), (30, 5), (30, -5), (30, 6), (30, 6.0)]
    assert type(statements[texts[-1]].columns[1].default) is float
    assert counts["parses"] == 5
    # A new text with the raw values the template was parsed with fits.
    statement = db.parse("CREATE TABLE x (s VARCHAR(30),n INT DEFAULT 6.0)")
    assert db.stats()["parse"]["shape_hits"] == 1
    assert _tree(statement) == _tree(statements[texts[-1]])


def test_parameters_keep_their_indices():
    db, session = _db()
    texts = ["SELECT a FROM t WHERE b = ? AND c > 100 AND a = ?",
             "SELECT a FROM t WHERE b = ? AND c > 250 AND a = ?"]
    statements, counts = _parses(db, texts)
    assert counts["shape_hits"] == 1
    where = statements[texts[1]].where.items
    assert (where[0].right.index, where[2].right.index) == (0, 1)
    assert where[1].right.value == 250
    assert _outcome(session, texts[0], (30, 1)) == [(1,)]
    assert _outcome(session, texts[1], (30, 1)) == []
    assert _outcome(session, texts[1], (10, 2)) == [(2,)]


@pytest.mark.parametrize("template, values", [
    ("SELECT a FROM t WHERE a IN (SELECT a FROM t WHERE b <= {}) "
     "ORDER BY a", (20, 50, 60)),
    ("SELECT a FROM t WHERE EXISTS (SELECT a FROM t WHERE b = {}) "
     "AND a < 3 ORDER BY a", (20, 55, 60)),
    ("SELECT a, (SELECT c FROM t WHERE a = {}) FROM t WHERE a < 3 "
     "ORDER BY a", (1, 2, 9)),
], ids=["in_select", "exists", "scalar_subquery"])
def test_literals_inside_subqueries_are_bound(template, values):
    db, session = _db()
    texts = [template.format(value) for value in values]
    outcomes = [_outcome(session, text) for text in texts]
    assert db.stats()["parse"]["shape_hits"] >= 2
    for text, outcome in zip(texts, outcomes):
        assert _tree(db.parse(text)) == _tree(parse_statement(text))
        assert outcome == _outcome(_db()[1], text), text
    assert len(set(map(str, outcomes))) > 1


def test_whitespace_and_comment_variants_share_one_shape():
    db, session = _db()
    texts = ["SELECT a FROM t WHERE b = 10",
             "SELECT  a\n  FROM t   WHERE b=20",
             "SELECT a /* which */ FROM t WHERE b = 30 -- row one\n"]
    statements, counts = _parses(db, texts)
    assert counts == {"text_hits": 0, "shape_hits": 2, "parses": 1}
    assert len({s.fingerprint for s in statements.values()}) == 1
    assert [_outcome(session, text) for text in texts] == [
        [(2,)], [(3,)], [(1,)]]


# ---------------------------------------------------------------------------
# plan keys: one plan per key, each text with its own literals
# ---------------------------------------------------------------------------

def _key(db, text):
    return db.parse(text).plan_key


def _literal_outcome(text, params=()):
    """What ``text`` gives planned with its own literal values: parsed
    on its own and run with no text, so no plan key is involved."""
    _fresh, session = _db()
    try:
        result = session.execute_statement(parse_statement(text),
                                           tuple(params))
    except Exception as error:                    # compared, not hidden
        return type(error).__name__
    return [tuple(row) for row in result.rows]


def _typed(outcome):
    """An outcome with each value's type beside it: ``1`` is not
    ``1.0``."""
    if isinstance(outcome, str):
        return outcome
    return [tuple((type(value), value) for value in row) for row in outcome]


def _check_key_texts(texts, params=()):
    """Run ``texts`` in order on one database: each gives what it gives
    planned with its own literals, value for value and type for type."""
    db, session = _db()
    for text in texts:
        assert _typed(_outcome(session, text, params)) \
            == _typed(_literal_outcome(text, params)), text
    return db, session


def test_an_order_by_ordinal_is_part_of_the_plan_key():
    texts = ["SELECT a, b, c FROM t WHERE c > 100 ORDER BY 2",
             "SELECT a, b, c FROM t WHERE c > 150 ORDER BY 2",
             "SELECT a, b, c FROM t WHERE c > 100 ORDER BY 3",
             "SELECT a, b, c FROM t WHERE c > 100 ORDER BY 2.0"]
    db, session = _check_key_texts(texts)
    keys = [_key(db, text) for text in texts]
    assert keys[0] == keys[1]
    assert len({keys[0], keys[2], keys[3]}) == 3
    assert _outcome(session, texts[0]) != _outcome(session, texts[2])


def test_limit_and_offset_values_are_part_of_the_plan_key():
    """A LIMIT and an OFFSET size the TopN estimate, so each count is
    planned on its own; the other literals still share the plan."""
    from repro.db.physical import TopN
    texts = ["SELECT a FROM t WHERE c > 90 ORDER BY b LIMIT 2 OFFSET 1",
             "SELECT a FROM t WHERE c > 150 ORDER BY b LIMIT 2 OFFSET 1",
             "SELECT a FROM t WHERE c > 90 ORDER BY b LIMIT 3 OFFSET 1",
             "SELECT a FROM t WHERE c > 90 ORDER BY b LIMIT 2 OFFSET 2",
             "SELECT a FROM t WHERE c > 90 ORDER BY b LIMIT 2.0 OFFSET 1"]
    db, _session = _check_key_texts(texts)
    keys = [_key(db, text) for text in texts]
    assert keys[0] == keys[1] and len(set(keys)) == 4
    for text, rows in zip(texts[:3], (2, 2, 3)):
        plan = db.prepare_select(db.parse(text), text).plan
        (top,) = [node for node in _operators(plan) if type(node) is TopN]
        assert top.est_rows == rows, text


def _operators(plan):
    found = [plan]
    for child in plan.children():
        found += _operators(child)
    return found


@pytest.mark.parametrize("texts", [
    ["SELECT CASE WHEN a < 5 THEN 'lo' ELSE 'hi' END, COUNT(*) FROM t "
     "GROUP BY CASE WHEN a < 5 THEN 'lo' ELSE 'hi' END",
     "SELECT CASE WHEN a < 3 THEN 'lo' ELSE 'hi' END, COUNT(*) FROM t "
     "GROUP BY CASE WHEN a < 3 THEN 'lo' ELSE 'hi' END",
     "SELECT CASE WHEN a < 3 THEN 'lo' ELSE 'hi' END, COUNT(*) FROM t "
     "GROUP BY CASE WHEN a < 5 THEN 'lo' ELSE 'hi' END"],
    ["SELECT a % 2, COUNT(*) FROM t GROUP BY a % 2",
     "SELECT a % 3, COUNT(*) FROM t GROUP BY a % 3",
     "SELECT a % 3.0, COUNT(*) FROM t GROUP BY a % 3.0",
     "SELECT a % 3, COUNT(*) FROM t GROUP BY a % 3.0"],
], ids=["case", "modulo"])
def test_equal_literals_share_one_slot(texts):
    """A select item matches its GROUP BY expression only if their
    literals are equal — as a fresh parse compares them, in value and
    type: ``3`` is not ``3.0`` — so which literals are equal is part of
    the key."""
    db, _session = _check_key_texts(texts)
    keys = [_key(db, text) for text in texts]
    assert keys[0] == keys[1] == keys[-2] != keys[-1]
    assert isinstance(_literal_outcome(texts[-1]), str)    # an error


def test_one_one_point_zero_and_true_are_three_literals():
    """``1``, ``1.0`` and ``TRUE`` are three literals, in a fresh parse
    and in a plan key: ``x + 1.0`` does not match ``GROUP BY x + 1``
    (the error ``x + 2`` gives), and ``x + 1.0`` still matches
    ``GROUP BY x + 1.0`` — REAL — on the first text of its key and on
    a later one."""
    assert parse_expression("x + 1.0") != parse_expression("x + 1")
    assert parse_expression("x = TRUE") != parse_expression("x = 1")
    db, session = _db()
    for text in ("SELECT a + 1.0 FROM t GROUP BY a + 1",
                 "SELECT a + 2 FROM t GROUP BY a + 1"):
        assert _outcome(session, text) == _literal_outcome(text) \
            == "CatalogError", text
    texts = ["SELECT a + 1.0 FROM t WHERE a = 1 GROUP BY a + 1.0",
             "SELECT a + 2.0 FROM t WHERE a = 1 GROUP BY a + 2.0"]
    _check_key_texts(texts)
    assert _key(db, texts[0]) == _key(db, texts[1])
    for text, total in zip(texts, (2.0, 3.0)):
        assert _typed(_outcome(session, text)) == [((float, total),)]


def test_a_slot_never_equals_a_parameter():
    text = "SELECT a % 2, COUNT(*) FROM t GROUP BY a % ?"
    db, _session = _check_key_texts([text], (2,))
    assert isinstance(_literal_outcome(text, (2,)), str)
    slot = ex.LiteralSlot(0, 0, 0)
    assert slot != ex.Param(0) and slot != ex.Literal(0)
    assert slot == ex.LiteralSlot(1, 0, 7) != ex.LiteralSlot(0, 1, 0)


def test_slot_values_travel_apart_from_the_parameters():
    from repro.errors import DatabaseError
    db, session = _db()
    texts = ["SELECT a FROM t WHERE b > 15 AND c > ? ORDER BY a",
             "SELECT a FROM t WHERE b > 25 AND c > ? ORDER BY a"]
    assert _outcome(session, texts[0], (150,)) == [(1,), (4,), (5,)]
    for text in texts:
        with pytest.raises(DatabaseError,
                           match="requires at least 1 parameters, got 0"):
            session.execute(text)
    assert _outcome(session, texts[1], (150,)) == [(1,), (4,), (5,)]
    assert _key(db, texts[0]) == _key(db, texts[1])
    assert db.parse(texts[1]).slot_values == (25,)


def _holds_a_slot(node) -> bool:
    parts = _parts(node)
    if parts is None:
        return isinstance(node, ex.LiteralSlot)
    return isinstance(node, ex.LiteralSlot) or any(map(_holds_a_slot, parts))


def test_what_the_catalog_stores_keeps_its_literals(tmp_path):
    """View bodies, CHECK constraints, the statements a trigger runs and
    the DDL log record hold literal values, never slots — however many
    texts of their shapes ran first."""
    from repro.db import wal as wal_mod
    from repro.db.catalog import AFTER, INSERT
    db = Database(seed=1, wal=str(tmp_path / "log"))
    session = db.connect()
    session.execute("CREATE TABLE u (a INT PRIMARY KEY, b INT, "
                    "CHECK (b < 90))")
    session.execute("CREATE TABLE audit (a INT PRIMARY KEY, note TEXT)")
    for b in (5, 6):
        session.execute("SELECT a FROM u WHERE b = %d" % b)
    session.execute("CREATE VIEW v AS SELECT a FROM u WHERE b = 7")
    def log(ctx):
        ctx.session.execute("INSERT INTO audit VALUES (%d, 'b=%d')"
                            % (ctx.new["a"], ctx.new["b"]))
    db.create_trigger("log", "u", INSERT, AFTER, log)
    for a, b in ((1, 7), (2, 8), (3, 7)):
        session.execute("INSERT INTO u VALUES (%d, %d)" % (a, b))
    view = db.catalog.get_view("v")
    assert not _holds_a_slot(view.select)
    assert view.select.where.right.value == 7
    (check,) = db.catalog.get_table("u").schema.checks
    assert not _holds_a_slot(check.expr) and check.expr.right.value == 90
    records, _end, _tail = wal_mod.scan_wal(str(tmp_path / "log"))
    ddl = [record for record in records if record[0] == "ddl"]
    assert ddl and not any(_holds_a_slot(list(record)) for record in ddl)
    assert [tuple(row) for row in session.execute(
        "SELECT a, note FROM audit ORDER BY a").rows] == [
        (1, "b=7"), (2, "b=8"), (3, "b=7")]
    assert [tuple(row) for row in session.execute(
        "SELECT a FROM v ORDER BY a").rows] == [(1,), (3,)]
    db.close()


def test_an_int_and_a_float_in_matching_positions():
    """``2`` and ``2.0`` are two equality classes, so a text holding
    both keys like one whose literals differ in value, not like one
    holding ``2`` twice, and each text reads its own literal: value and
    type."""
    texts = ["SELECT a, 1 FROM t WHERE a = 2",
             "SELECT a, 1.0 FROM t WHERE a = 2",
             "SELECT a, 2 FROM t WHERE a = 2.0",
             "SELECT a, 2 FROM t WHERE a = 2"]
    db, session = _check_key_texts(texts)
    keys = [_key(db, text) for text in texts]
    assert keys[0] == keys[1] == keys[2] != keys[3]
    assert _typed(_outcome(session, texts[1])) == [((int, 2), (float, 1.0))]
    assert _typed(_outcome(session, texts[2])) == [((int, 2), (int, 2))]


_ESTIMATES = re.compile(r"\(cost=[^)]*\)|mem=\d+B|time=[\d.]+ms")


def test_explain_shows_one_tree_with_each_texts_literals():
    """EXPLAIN and EXPLAIN ANALYZE plan a text as its plan key is
    planned: two texts of one key show one operator tree, each with its
    own literals — the tree each text runs."""
    db, session = _db()
    texts = ["SELECT a FROM t WHERE b > 15 AND c < 450 ORDER BY a LIMIT 3",
             "SELECT a FROM t WHERE b > 26 AND c < 350 ORDER BY a LIMIT 3"]
    assert _key(db, texts[0]) == _key(db, texts[1])
    shapes = []
    for text, literals in zip(texts, (("15", "450"), ("26", "350"))):
        lines = [row[0] for row in session.execute("EXPLAIN " + text).rows]
        analyzed = [row[0] for row in
                    session.execute("EXPLAIN ANALYZE " + text).rows]
        for shown in ("\n".join(lines), "\n".join(analyzed)):
            assert "b > %s" % literals[0] in shown
            assert "c < %s" % literals[1] in shown
        shapes.append([_ESTIMATES.sub("", line).replace(literals[0], "B")
                       .replace(literals[1], "C") for line in lines])
        runs = db.prepare_select(db.parse(text), text).plan
        assert [type(node).__name__ for node in _operators(runs)] == [
            line.split()[0] for line in lines]
    assert shapes[0] == shapes[1]
    for text in texts:
        assert _outcome(session, text) == _literal_outcome(text)


def _adhoc_db():
    from repro.workloads.tpcc import TPCCConfig, TPCCWorkload
    db = Database(seed=3)
    TPCCWorkload(db, TPCCConfig(warehouses=2, districts_per_warehouse=4,
                                customers_per_district=8, items=40,
                                initial_orders_per_district=6)).load()
    return db


def test_adhoc_texts_are_optimized_once_per_plan_key(monkeypatch):
    """``adhoc_sql``-style texts — every one new, literals drawn at
    random — run the optimizer once per plan key, and each key's plan
    is the tree a text gets planned with its own literals, and the tree
    planned with a ``?`` in place of each slot literal."""
    import random
    from repro.db.optimizer import Optimizer
    db = _adhoc_db()
    session = db.connect()
    calls = []
    optimize = Optimizer.optimize
    monkeypatch.setattr(Optimizer, "optimize",
                        lambda self, query: calls.append(query)
                        or optimize(self, query))
    rng = random.Random(5)
    keys, optimized, texts = set(), 0, 0
    for template in ADHOC:
        trees = set()
        for _ in range(12):
            text = _substitute(template, [
                (token, rng.randint(1, 8) if type(token.value) is int
                 else round(rng.uniform(0, 100), 2))
                for token in _literals(template)])
            keys.add(_key(db, text))
            before = len(calls)
            session.execute(text)
            optimized += len(calls) - before
            texts += 1
            generic = db.prepare_select(db.parse(text), text).plan
            literal = db.prepare_select(parse_statement(text), None).plan
            assert _tree_of(literal) == _tree_of(generic), text
            trees.add(_tree_of(generic))
        marked = _parameterized(template, db.parse(template).plan_key)
        assert trees == {_tree_of(db.prepare_select(
            parse_statement(marked), None).plan)}, marked
    assert optimized == len(keys) < texts / 2


def _parameterized(text, key) -> str:
    """``text`` with a ``?`` written over each literal that is a slot
    of its plan key."""
    tokens = [token for token in tokenize(text)]
    for index in sorted(key[0].free, reverse=True):
        token = tokens[index]
        end = _NUMBER_TEXT.match(text, token.position).end()
        text = text[:token.position] + "?" + text[end:]
    return text


def _tree_of(plan) -> tuple:
    """A plan's operator classes, with the access path of each scan."""
    return tuple((type(node).__name__,
                  getattr(getattr(node, "index", None), "name", None))
                 for node in _operators(plan))
