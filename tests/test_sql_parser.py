"""SQL lexer and parser tests, including the IFDB dialect extensions."""

import pytest

from repro.db import expressions as ex
from repro.errors import SQLSyntaxError
from repro.sql import ast, parse_expression, parse_script, parse_statement
from repro.sql.lexer import tokenize


class TestLexer:
    def test_strings_with_escaped_quotes(self):
        tokens = tokenize("SELECT 'it''s'")
        assert tokens[1].value == "it's"

    def test_line_and_block_comments(self):
        tokens = tokenize("SELECT 1 -- comment\n + /* block */ 2")
        values = [t.value for t in tokens if t.kind == "number"]
        assert values == [1, 2]

    def test_numbers(self):
        tokens = tokenize("1 2.5 1e3 .25")
        assert [t.value for t in tokens[:-1]] == [1, 2.5, 1000.0, 0.25]

    def test_quoted_identifier(self):
        tokens = tokenize('"Weird Name"')
        assert tokens[0].kind == "ident"
        assert tokens[0].value == "Weird Name"

    def test_unterminated_string_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT 'oops")

    @pytest.mark.parametrize("text, position", [
        ("SELECT 1e FROM t", 7), ("SELECT 2E+", 7), ("SELECT x, 1.5e- 2", 10),
        ("SELECT 1.e5x, .5E", 14), ("SELECT \u00b2", 7),
        ("SELECT \u0663 FROM t", 7)])
    def test_malformed_numbers_are_syntax_errors(self, text, position):
        """Numbers are ASCII digits with a digit in any exponent; a
        text breaking that is a syntax error at the number, also
        through ``Database.parse``."""
        from repro.db import Database
        for lex in (tokenize, Database(seed=1).parse):
            with pytest.raises(SQLSyntaxError) as error:
                lex(text)
            assert str(error.value).endswith("at %d" % position)

    def test_params(self):
        tokens = tokenize("a = ? AND b = ?")
        assert sum(1 for t in tokens if t.kind == "param") == 2


class TestSelectParsing:
    def test_simple_select(self):
        statement = parse_statement("SELECT a, b FROM t WHERE a = 1")
        assert isinstance(statement, ast.Select)
        assert len(statement.items) == 2
        assert isinstance(statement.where, ex.Compare)

    def test_star_and_qualified_star(self):
        statement = parse_statement("SELECT *, t.* FROM t")
        assert isinstance(statement.items[0].expr, ex.Star)
        assert statement.items[1].expr.table == "t"

    def test_joins(self):
        statement = parse_statement(
            "SELECT * FROM a JOIN b ON a.x = b.x "
            "LEFT OUTER JOIN c ON c.y = b.y")
        join = statement.from_items[0]
        assert isinstance(join, ast.Join)
        assert join.kind == "left"
        assert join.left.kind == "inner"

    def test_group_order_limit(self):
        statement = parse_statement(
            "SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING COUNT(*) > 1 "
            "ORDER BY n DESC, b ASC LIMIT 5 OFFSET 2")
        assert len(statement.group_by) == 1
        assert statement.having is not None
        assert statement.order_by[0].descending
        assert not statement.order_by[1].descending
        assert statement.limit.value == 5
        assert statement.offset.value == 2

    def test_aggregates_and_distinct(self):
        statement = parse_statement("SELECT COUNT(DISTINCT a), AVG(b) FROM t")
        agg = statement.items[0].expr
        assert isinstance(agg, ex.Aggregate)
        assert agg.distinct

    def test_subqueries(self):
        statement = parse_statement(
            "SELECT * FROM (SELECT a FROM t) s "
            "WHERE EXISTS (SELECT 1 FROM u) AND a IN (SELECT a FROM v)")
        assert isinstance(statement.from_items[0], ast.SubqueryRef)

    def test_case_expression(self):
        statement = parse_statement(
            "SELECT CASE WHEN a = 1 THEN 'one' ELSE 'other' END FROM t")
        assert isinstance(statement.items[0].expr, ex.Case)

    def test_alias_forms(self):
        statement = parse_statement("SELECT a AS x, b y FROM t AS u")
        assert statement.items[0].alias == "x"
        assert statement.items[1].alias == "y"
        assert statement.from_items[0].alias == "u"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT 1 SELECT 2")


class TestDMLParsing:
    def test_insert_values(self):
        statement = parse_statement(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert statement.columns == ["a", "b"]
        assert len(statement.rows) == 2

    def test_insert_select(self):
        statement = parse_statement("INSERT INTO t SELECT * FROM u")
        assert statement.select is not None

    def test_insert_declassifying_clause(self):
        statement = parse_statement(
            "INSERT INTO Drives VALUES (1, 2) "
            "DECLASSIFYING (alice_drives, 'alice-cars')")
        assert statement.declassifying == ["alice_drives", "alice-cars"]

    def test_update(self):
        statement = parse_statement(
            "UPDATE t SET a = a + 1, b = ? WHERE c = 3")
        assert len(statement.assignments) == 2
        assert isinstance(statement.where, ex.Compare)

    def test_delete(self):
        statement = parse_statement("DELETE FROM t WHERE a IS NOT NULL")
        assert isinstance(statement.where, ex.IsNull)
        assert statement.where.negated


class TestDDLParsing:
    def test_create_table_with_constraints(self):
        statement = parse_statement("""
            CREATE TABLE t (
                id INT PRIMARY KEY,
                name VARCHAR(20) NOT NULL UNIQUE,
                parent INT REFERENCES p(id) MATCH LABEL,
                amount NUMERIC(12, 2) DEFAULT 0,
                UNIQUE (name, parent),
                FOREIGN KEY (parent) REFERENCES p(id),
                CHECK (amount >= 0),
                LABEL CHECK (LABEL_CONTAINS(_label, 'secret'))
            )""")
        assert isinstance(statement, ast.CreateTable)
        assert statement.columns[1].type_length == 20
        assert statement.columns[1].not_null
        assert statement.columns[3].has_default
        assert statement.columns[3].default == 0
        # A column's constraints come first, in their table-level form.
        kinds = [(c.kind, c.name, c.columns)
                 for c in statement.constraints]
        assert kinds == [("primary_key", None, ("id",)),
                         ("unique", "t_name_key", ("name",)),
                         ("foreign_key", None, ("parent",)),
                         ("unique", None, ("name", "parent")),
                         ("foreign_key", None, ("parent",)),
                         ("check", None, ()),
                         ("label_check", None, ())]
        references = [(c.ref_table, c.ref_columns, c.match_label)
                      for c in statement.constraints
                      if c.kind == "foreign_key"]
        assert references == [("p", ("id",), True), ("p", ("id",), False)]

    def test_deferrable_foreign_key_is_rejected(self):
        """No deferred constraint checking exists, so the keyword is not
        accepted and then ignored."""
        with pytest.raises(SQLSyntaxError):
            parse_statement("CREATE TABLE t (a INT, "
                            "FOREIGN KEY (a) REFERENCES p(id) DEFERRABLE)")

    def test_unique_index_is_rejected(self):
        """Nothing would make the index unique: uniqueness is declared
        with the table, where a write polyinstantiates it."""
        with pytest.raises(SQLSyntaxError, match=r"UNIQUE \(\.\.\.\) in "
                           "CREATE TABLE"):
            parse_statement("CREATE UNIQUE INDEX i ON t (b)")

    def test_a_row_locking_clause_is_rejected(self):
        """No row is locked, so the clause is not accepted and then
        ignored."""
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT a FROM t FOR UPDATE")

    def test_create_view_with_declassifying(self):
        statement = parse_statement(
            "CREATE VIEW PCMembers AS SELECT firstName FROM ContactInfo "
            "WHERE isPC = TRUE WITH DECLASSIFYING (all_contacts)")
        assert isinstance(statement, ast.CreateView)
        assert statement.declassifying == ["all_contacts"]

    def test_create_index(self):
        statement = parse_statement("CREATE ORDERED INDEX i ON t (a, b)")
        assert statement.ordered
        assert statement.columns == ["a", "b"]

    def test_drop(self):
        assert isinstance(parse_statement("DROP TABLE IF EXISTS t"),
                          ast.DropTable)
        assert isinstance(parse_statement("DROP VIEW v"), ast.DropView)


class TestTransactionsAndScripts:
    def test_begin_variants(self):
        assert parse_statement("BEGIN").isolation is None
        assert parse_statement(
            "BEGIN ISOLATION LEVEL SERIALIZABLE").isolation == "serializable"
        assert isinstance(parse_statement("COMMIT"), ast.Commit)
        assert isinstance(parse_statement("ABORT"), ast.Rollback)

    def test_call(self):
        statement = parse_statement("CALL addsecrecy('alice_medical')")
        assert statement.name == "addsecrecy"
        assert len(statement.args) == 1

    def test_script_parsing(self):
        statements = parse_script(
            "CREATE TABLE a (x INT); CREATE TABLE b (y INT);")
        assert len(statements) == 2

    def test_parse_expression(self):
        expr = parse_expression("a + 2 * b")
        assert isinstance(expr, ex.BinOp)
        assert expr.op == "+"


class TestOperatorPrecedence:
    def test_and_binds_tighter_than_or(self):
        expr = parse_expression("a OR b AND c")
        assert isinstance(expr, ex.Or)
        assert isinstance(expr.items[1], ex.And)

    def test_multiplication_before_addition(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_not_in(self):
        expr = parse_expression("a NOT IN (1, 2)")
        assert isinstance(expr, ex.InList)
        assert expr.negated

    def test_between_and_not_between(self):
        assert not parse_expression("a BETWEEN 1 AND 2").negated
        assert parse_expression("a NOT BETWEEN 1 AND 2").negated

    def test_unary_minus(self):
        expr = parse_expression("-a * 2")
        assert expr.op == "*"
        assert isinstance(expr.left, ex.Neg)


#: Malformed texts, at least one per list, precedence and join rule — a
#: missing ``)``, a trailing comma, an empty list, ``WITH`` without
#: ``DECLASSIFYING``, ``CALL f(1,)`` — with the exact error each gave
#: when every list and level was written out by hand.
MALFORMED = [
    ('SELECT a,',
     "expected expression at position 9 (near '<end>') in: SELECT a,"),
    ('SELECT a FROM t,',
     "expected identifier at position 16 (near '<end>') in: SELECT a FROM t,"),
    ('SELECT a FROM',
     "expected identifier at position 13 (near '<end>') in: SELECT a FROM"),
    ('SELECT a FROM t GROUP BY a,',
     "expected expression at position 27 (near '<end>') in: SELECT a FROM t GROUP BY a,"),
    ('SELECT a FROM t GROUP BY',
     "expected expression at position 24 (near '<end>') in: SELECT a FROM t GROUP BY"),
    ('SELECT a FROM t ORDER BY a,',
     "expected expression at position 27 (near '<end>') in: SELECT a FROM t ORDER BY a,"),
    ('SELECT a FROM t ORDER BY',
     "expected expression at position 24 (near '<end>') in: SELECT a FROM t ORDER BY"),
    ('INSERT INTO t (a, b VALUES (1, 2)',
     "expected ')' at position 20 (near 'VALUES') in: INSERT INTO t (a, b VALUES (1, 2)"),
    ('INSERT INTO t () VALUES (1)',
     "expected identifier at position 15 (near ')') in: INSERT INTO t () VALUES (1)"),
    ('INSERT INTO t (a,) VALUES (1)',
     "expected identifier at position 17 (near ')') in: INSERT INTO t (a,) VALUES (1)"),
    ('INSERT INTO t VALUES (1, 2',
     "expected ')' at position 26 (near '<end>') in: INSERT INTO t VALUES (1, 2"),
    ('INSERT INTO t VALUES (1),',
     "expected '(' at position 25 (near '<end>') in: INSERT INTO t VALUES (1),"),
    ('INSERT INTO t VALUES ()',
     "expected expression at position 22 (near ')') in: INSERT INTO t VALUES ()"),
    ('INSERT INTO t VALUES (1,)',
     "expected expression at position 24 (near ')') in: INSERT INTO t VALUES (1,)"),
    ('UPDATE t SET a = 1,',
     "expected identifier at position 19 (near '<end>') in: UPDATE t SET a = 1,"),
    ('UPDATE t SET',
     "expected identifier at position 12 (near '<end>') in: UPDATE t SET"),
    ('CREATE INDEX i ON t (a,)',
     "expected identifier at position 23 (near ')') in: CREATE INDEX i ON t (a,)"),
    ('CREATE INDEX i ON t ()',
     "expected identifier at position 21 (near ')') in: CREATE INDEX i ON t ()"),
    ('CREATE INDEX i ON t (a',
     "expected ')' at position 22 (near '<end>') in: CREATE INDEX i ON t (a"),
    ('CREATE TABLE t (a INT, PRIMARY KEY (a)',
     "expected ')' at position 38 (near '<end>') in: CREATE TABLE t (a INT, PRIMARY KEY (a)"),
    ('CREATE TABLE t (a INT, UNIQUE ())',
     "expected identifier at position 31 (near ')') in: CREATE TABLE t (a INT, UNIQUE ())"),
    ('CREATE TABLE t (a INT,)',
     "expected identifier at position 22 (near ')') in: CREATE TABLE t (a INT,)"),
    ('CREATE TABLE t ()',
     "expected identifier at position 16 (near ')') in: CREATE TABLE t ()"),
    ('CREATE TABLE t (a INT, FOREIGN KEY (a) REFERENCES u (b,))',
     "expected identifier at position 55 (near ')') in: CREATE TABLE t (a INT, FOREIGN KEY (a) REFERENCES u (b,))"),
    ('INSERT INTO t VALUES (1) DECLASSIFYING (a,)',
     "expected tag name at position 42 (near ')') in: INSERT INTO t VALUES (1) DECLASSIFYING (a,)"),
    ('INSERT INTO t VALUES (1) DECLASSIFYING ()',
     "expected tag name at position 40 (near ')') in: INSERT INTO t VALUES (1) DECLASSIFYING ()"),
    ('INSERT INTO t VALUES (1) DECLASSIFYING (a b)',
     "expected ')' at position 42 (near 'b') in: INSERT INTO t VALUES (1) DECLASSIFYING (a b)"),
    ('INSERT INTO t VALUES (1) DECLASSIFYING a',
     "expected '(' at position 39 (near 'a') in: INSERT INTO t VALUES (1) DECLASSIFYING a"),
    ('CREATE VIEW v AS SELECT a FROM t WITH (a)',
     "expected DECLASSIFYING at position 38 (near '(') in: CREATE VIEW v AS SELECT a FROM t WITH (a)"),
    ('CREATE VIEW v AS SELECT a FROM t WITH DECLASSIFYING (a,)',
     "expected tag name at position 55 (near ')') in: CREATE VIEW v AS SELECT a FROM t WITH DECLASSIFYING (a,)"),
    ('CREATE VIEW v AS SELECT a FROM t WITH DECLASSIFYING ()',
     "expected tag name at position 53 (near ')') in: CREATE VIEW v AS SELECT a FROM t WITH DECLASSIFYING ()"),
    ('CREATE VIEW v AS SELECT a FROM t WITH DECLASSIFYING (a',
     "expected ')' at position 54 (near '<end>') in: CREATE VIEW v AS SELECT a FROM t WITH DECLASSIFYING (a"),
    ('CALL f(1,)',
     "expected expression at position 9 (near ')') in: CALL f(1,)"),
    ('CALL f(1',
     "expected ')' at position 8 (near '<end>') in: CALL f(1"),
    ('CALL f',
     "expected '(' at position 6 (near '<end>') in: CALL f"),
    ('CALL f(,)',
     "expected expression at position 7 (near ',') in: CALL f(,)"),
    ('SELECT f(1,)',
     "expected expression at position 11 (near ')') in: SELECT f(1,)"),
    ('SELECT f(1 FROM t',
     "expected ')' at position 11 (near 'FROM') in: SELECT f(1 FROM t"),
    ('SELECT f(,)',
     "expected expression at position 9 (near ',') in: SELECT f(,)"),
    ('SELECT COUNT(a, b) FROM t',
     "expected ')' at position 14 (near ',') in: SELECT COUNT(a, b) FROM t"),
    ('SELECT a FROM t WHERE a IN ()',
     "expected expression at position 28 (near ')') in: SELECT a FROM t WHERE a IN ()"),
    ('SELECT a FROM t WHERE a IN (1, 2',
     "expected ')' at position 32 (near '<end>') in: SELECT a FROM t WHERE a IN (1, 2"),
    ('SELECT a FROM t WHERE a IN (1,)',
     "expected expression at position 30 (near ')') in: SELECT a FROM t WHERE a IN (1,)"),
    ('SELECT a FROM t WHERE a NOT IN (SELECT b FROM u',
     "expected ')' at position 47 (near '<end>') in: SELECT a FROM t WHERE a NOT IN (SELECT b FROM u"),
    ('SELECT 1 + * 2',
     "expected expression at position 11 (near '*') in: SELECT 1 + * 2"),
    ('SELECT 1 * / 2',
     "expected expression at position 11 (near '/') in: SELECT 1 * / 2"),
    ('SELECT a FROM t WHERE a = 1 AND',
     "expected expression at position 31 (near '<end>') in: SELECT a FROM t WHERE a = 1 AND"),
    ('SELECT a FROM t WHERE a = 1 OR',
     "expected expression at position 30 (near '<end>') in: SELECT a FROM t WHERE a = 1 OR"),
    ('SELECT a FROM t WHERE NOT',
     "expected expression at position 25 (near '<end>') in: SELECT a FROM t WHERE NOT"),
    ('SELECT (1 + 2',
     "expected ')' at position 13 (near '<end>') in: SELECT (1 + 2"),
    ('SELECT a = b = c',
     "unexpected trailing input at position 13 (near '=') in: SELECT a = b = c"),
    ('SELECT a FROM t WHERE a BETWEEN 1 2',
     'expected AND at position 34 (near 2) in: SELECT a FROM t WHERE a BETWEEN 1 2'),
    ('SELECT a FROM t JOIN u',
     "expected ON at position 22 (near '<end>') in: SELECT a FROM t JOIN u"),
    ('SELECT a FROM t WHERE a IS 1',
     'expected NULL at position 27 (near 1) in: SELECT a FROM t WHERE a IS 1'),
    ('SELECT a FROM t LEFT CROSS JOIN u',
     "expected JOIN at position 21 (near 'CROSS') in: SELECT a FROM t LEFT CROSS JOIN u"),
    ('SELECT a FROM t LEFT OUTER JOIN u',
     "expected ON at position 33 (near '<end>') in: SELECT a FROM t LEFT OUTER JOIN u"),
    ('SELECT a FROM t INNER u',
     "expected JOIN at position 22 (near 'u') in: SELECT a FROM t INNER u"),
    ('SELECT a FROM (SELECT b FROM u',
     "expected ')' at position 30 (near '<end>') in: SELECT a FROM (SELECT b FROM u"),
    ('SELECT a FROM (SELECT b FROM u)',
     "expected identifier at position 31 (near '<end>') in: SELECT a FROM (SELECT b FROM u)"),
    ('SELECT EXISTS (SELECT 1',
     "expected ')' at position 23 (near '<end>') in: SELECT EXISTS (SELECT 1"),
    ('SELECT (SELECT 1',
     "expected ')' at position 16 (near '<end>') in: SELECT (SELECT 1"),
    ('VACUUM 1',
     'unexpected trailing input at position 7 (near 1) in: VACUUM 1'),
    ('ANALYZE t u',
     "unexpected trailing input at position 10 (near 'u') in: ANALYZE t u"),
    # A clause word is not a name: not a column, not a table.
    ('SELECT a, FROM t',
     "expected identifier at position 10 (near 'FROM') in: "
     "SELECT a, FROM t"),
    ('SELECT a FROM WHERE a = 1',
     "expected identifier at position 14 (near 'WHERE') in: "
     "SELECT a FROM WHERE a = 1"),
]


def test_a_quoted_clause_word_is_a_name():
    statement = parse_statement(
        'SELECT "from", x "where" FROM "order" WHERE "group" = 1')
    assert [(item.expr, item.alias) for item in statement.items] == [
        (ex.ColumnRef("from"), None), (ex.ColumnRef("x"), "where")]
    assert statement.from_items[0].name == "order"
    assert statement.where == ex.Compare("=", ex.ColumnRef("group"),
                                         ex.Literal(1))


@pytest.mark.parametrize("text, message", MALFORMED,
                         ids=[text for text, _ in MALFORMED])
def test_a_malformed_statement_reports_where_it_breaks(text, message):
    with pytest.raises(SQLSyntaxError) as error:
        parse_statement(text)
    assert str(error.value) == message


#: Texts whose trees need parentheses (or a space) to print back:
#: nested arithmetic on either side, ``-(…)``, ``- -x``, a comparison
#: of a comparison, AND in OR and OR in AND, and the operands of IN,
#: BETWEEN, LIKE and CASE.
ROUND_TRIPS = [
    "(x + 1) * 2 = 8", "-(x - 3) = 1", "- -x", "- - -(x * y)",
    "a - (b - c)", "(a - b) - c", "a / (b * c) % (d || e)",
    "(a || b) * (c - d) / -(e + f)", "(a = b) = c", "a = (b <> c)",
    "(x IS NULL) = (y IS NOT NULL)", "a AND (b OR c)", "(a OR b) AND c",
    "a OR b AND c", "a OR (b OR c)", "(a AND b) AND c",
    "NOT (a OR b) AND NOT c", "(x + 1) IN (y - 1, (z = 2) OR w)",
    "(x * 2) BETWEEN (y - 1) AND -(z + 1)",
    "(a || b) NOT LIKE (c || '%')",
    "CASE WHEN a OR b THEN x + 1 ELSE (y - z) * 2 END * (p + q)",
    "(CASE WHEN a = 1 THEN 2 END + 1) * 3", "-ABS(x - 1) * COUNT(y + 1)",
]


@pytest.mark.parametrize("text", ROUND_TRIPS)
def test_a_printed_expression_parses_back_to_itself(text):
    expr = parse_expression(text)
    printed = ex.to_sql(expr)
    assert parse_expression(printed) == expr, printed


@pytest.mark.parametrize("where", [
    "(x + 1) * 2 = 8", "-(x - 3) = 1",
    "(x = 1 OR x = 2) AND (x = 2 OR x = 3)"])
def test_explain_keeps_the_parentheses(where):
    from repro.db import Database
    session = Database(seed=1).connect()
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT)")
    plan = "\n".join(row[0] for row in session.execute(
        "EXPLAIN SELECT id FROM t WHERE " + where).rows)
    assert "(%s)" % where in plan, plan
