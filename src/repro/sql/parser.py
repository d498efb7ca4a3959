"""Recursive-descent parser for the SQL dialect.

The dialect is the subset of PostgreSQL's SQL that the paper's
applications and benchmarks exercise, plus IFDB's extensions:

* ``INSERT ... DECLASSIFYING (tag, ...)`` — the explicit foreign-key
  declassification clause of section 5.2.2;
* ``CREATE VIEW ... WITH DECLASSIFYING (tag, ...)`` — declassifying
  views, section 4.3;
* ``REFERENCES t(c) MATCH LABEL`` / ``FOREIGN KEY ... MATCH LABEL`` —
  label constraints as foreign keys, section 5.2.4;
* ``LABEL CHECK (expr)`` — expression label constraints over ``_label``;
* the ``_label`` system column usable anywhere a column is;
* ``EXPLAIN <statement>`` — returns the optimizer's plan (one operator
  per row, with estimated cost/rows) instead of executing the statement;
* ``EXPLAIN ANALYZE <statement>`` — executes the statement and returns
  the plan annotated with per-operator actuals (rows, batches, wall
  time, counter deltas; see :mod:`repro.db.metrics`).  Disambiguated
  from ``EXPLAIN ANALYZE`` *the re-costing statement* by one token of
  lookahead: ``ANALYZE`` followed by a statement head keyword;
* ``ANALYZE [table]`` — evicts the cached plans that read the table
  (every table without one), so they are re-costed against the current
  heap row counts (:meth:`repro.db.engine.Database.analyze`).

Tag names in DECLASSIFYING clauses may be identifiers or string
literals (tags like ``'alice-drives'`` contain hyphens).

**Declared once.**  Every comma-separated list of the grammar — the
select list, FROM, GROUP BY, ORDER BY, SET, VALUES and its rows, column
and tag lists, call arguments, IN lists — is one rule,
:meth:`Parser._list` (``item (, item)*``), and
:meth:`Parser._parenthesized` around it where the list is in
parentheses.  Operator precedence is the table
:data:`repro.db.expressions.PRECEDENCE`, loosest first.  The parser
reads the comparison operators and the arithmetic levels from it: the
arithmetic levels are one left-associative rule climbing the table
(:meth:`Parser._arithmetic`).  The looser levels are the rule chain
``expr`` (OR) → ``_conjunction`` (AND) → ``_not_expr`` →
``_comparison`` (the comparisons and IS, IN, BETWEEN, LIKE), where OR
and AND are one n-ary chain rule (:meth:`Parser._chain`).
:func:`repro.db.expressions.to_sql` parenthesizes by the whole table,
and a round-trip test holds the chain to it: a printed expression
parses back to the same tree.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from ..db import expressions as ex
from ..errors import SQLSyntaxError
from . import ast
from .lexer import (EOF, IDENT, NUMBER, OP, PARAM, STRING, Token,
                    fingerprint, tokenize)

T = TypeVar("T")

#: Where the comparison level and the first arithmetic level sit in
#: :data:`~repro.db.expressions.PRECEDENCE`.
_COMPARISON, _ARITHMETIC = ex.LEVEL["="], ex.LEVEL["+"]

#: The keywords that are literals.
_KEYWORD_LITERALS = {"NULL": None, "TRUE": True, "FALSE": False}


class Parser:
    def __init__(self, sql: str, tokens: Optional[List[Token]] = None):
        self.sql = sql
        self.tokens = tokenize(sql) if tokens is None else tokens
        self.position = 0
        self.param_counter = 0
        #: Token index → the ``Literal`` node parsed from that number or
        #: string token: the slots a template rebinds
        #: (:mod:`repro.sql.template`).  A literal read as a raw value —
        #: a type length, a DEFAULT, a tag name — makes no node, so it
        #: is never a slot.
        self.slots: Dict[int, ex.Literal] = {}

    # ------------------------------------------------------------------
    # token utilities
    # ------------------------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.position + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != EOF:
            self.position += 1
        return token

    def at_keyword(self, *words: str) -> bool:
        token = self.peek()
        return any(token.matches_keyword(w) for w in words)

    def accept_keyword(self, *words: str) -> bool:
        if self.at_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            self.error("expected %s" % word)

    def at_op(self, op: str, ahead: int = 0) -> bool:
        token = self.peek(ahead)
        return token.kind == OP and token.value == op

    def accept_op(self, op: str) -> bool:
        token = self.peek()
        if token.kind == OP and token.value == op:
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            self.error("expected %r" % op)

    def expect_ident(self) -> str:
        """An identifier; an unquoted clause word is not one."""
        token = self.peek()
        if token.kind != IDENT or self._is_clause_keyword(token):
            self.error("expected identifier")
        self.advance()
        return token.value

    def _list(self, item: Callable[[], T]) -> List[T]:
        """``item (, item)*``: the grammar's one list rule (a type's
        ``(length, scale)`` is a fixed pair, not a list)."""
        items = [item()]
        while self.accept_op(","):
            items.append(item())
        return items

    def _parenthesized(self, item: Callable[[], T],
                       empty: bool = False) -> List[T]:
        """``( item (, item)* )``, or ``()`` where the list may be
        ``empty`` (a call's arguments)."""
        self.expect_op("(")
        if empty and self.accept_op(")"):
            return []
        items = self._list(item)
        self.expect_op(")")
        return items

    def error(self, message: str) -> None:
        token = self.peek()
        raise SQLSyntaxError(
            "%s at position %d (near %r) in: %s"
            % (message, token.position,
               token.value if token.kind != EOF else "<end>",
               self.sql.strip()[:120]))

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> ast.Statement:
        statement = self._statement()
        self.accept_op(";")
        if self.peek().kind != EOF:
            self.error("unexpected trailing input")
        return statement

    def parse_script(self) -> List[ast.Statement]:
        statements = []
        while self.peek().kind != EOF:
            statements.append(self._statement())
            while self.accept_op(";"):
                pass
        return statements

    def _statement(self) -> ast.Statement:
        if self.accept_keyword("EXPLAIN"):
            # ``EXPLAIN ANALYZE <stmt>`` vs ``EXPLAIN ANALYZE [table]``
            # (the re-costing statement): one token of lookahead —
            # ANALYZE followed by a statement head is the analyzing
            # EXPLAIN, anything else is EXPLAIN over ANALYZE.
            analyze = False
            if self.at_keyword("ANALYZE"):
                following = self.peek(1)
                if any(following.matches_keyword(word) for word in
                       ("SELECT", "INSERT", "UPDATE", "DELETE")):
                    self.advance()
                    analyze = True
            return ast.Explain(self._statement(), analyze=analyze)
        if self.at_keyword("SELECT"):
            return self._select()
        if self.at_keyword("INSERT"):
            return self._insert()
        if self.at_keyword("UPDATE"):
            return self._update()
        if self.at_keyword("DELETE"):
            return self._delete()
        if self.at_keyword("CREATE"):
            return self._create()
        if self.at_keyword("DROP"):
            return self._drop()
        if self.at_keyword("BEGIN", "START"):
            return self._begin()
        if self.accept_keyword("COMMIT"):
            self.accept_keyword("TRANSACTION")
            return ast.Commit()
        if self.accept_keyword("ROLLBACK") or self.accept_keyword("ABORT"):
            self.accept_keyword("TRANSACTION")
            return ast.Rollback()
        if self.at_keyword("CALL"):
            return self._call()
        for word, node in (("VACUUM", ast.Vacuum), ("ANALYZE", ast.Analyze)):
            if self.accept_keyword(word):
                return node(self.expect_ident()
                            if self.peek().kind == IDENT else None)
        self.error("unrecognized statement")

    # -- SELECT -----------------------------------------------------------
    def _select(self) -> ast.Select:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        self.accept_keyword("ALL")
        items = self._list(self._select_item)
        from_items = self._list(self._from_item) \
            if self.accept_keyword("FROM") else []
        where = self.expr() if self.accept_keyword("WHERE") else None
        group_by = self._by_list(self.expr, "GROUP")
        having = self.expr() if self.accept_keyword("HAVING") else None
        order_by = self._by_list(self._order_item, "ORDER")
        limit = self.expr() if self.accept_keyword("LIMIT") else None
        offset = self.expr() if self.accept_keyword("OFFSET") else None
        return ast.Select(items=items, from_items=from_items, where=where,
                          group_by=group_by, having=having,
                          order_by=order_by, limit=limit, offset=offset,
                          distinct=distinct)

    def _by_list(self, item: Callable[[], T], word: str) -> List[T]:
        """``word BY item (, item)*``, or no items without ``word``."""
        if not self.accept_keyword(word):
            return []
        self.expect_keyword("BY")
        return self._list(item)

    def _subquery(self) -> ast.Select:
        """``SELECT … )``: a subquery whose ``(`` has been read."""
        select = self._select()
        self.expect_op(")")
        return select

    def _select_item(self) -> ast.SelectItem:
        if self.accept_op("*"):
            return ast.SelectItem(ex.Star())
        # alias.* form
        token = self.peek()
        if token.kind == IDENT and self.at_op(".", 1) and self.at_op("*", 2):
            self.advance()
            self.advance()
            self.advance()
            return ast.SelectItem(ex.Star(table=token.value))
        expr = self.expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif (self.peek().kind == IDENT
              and not self._is_clause_keyword(self.peek())):
            alias = self.expect_ident()
        return ast.SelectItem(expr, alias)

    _CLAUSE_WORDS = {
        "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET",
        "UNION", "JOIN", "INNER", "LEFT", "RIGHT", "OUTER", "ON", "AND",
        "OR", "NOT", "AS", "FOR", "DECLASSIFYING", "WITH", "ASC", "DESC",
        "IS", "IN", "BETWEEN", "LIKE", "THEN", "ELSE", "END", "WHEN",
        "CROSS", "SET", "VALUES",
    }

    def _is_clause_keyword(self, token: Token) -> bool:
        # ``text`` keeps a quoted identifier's quotes: "from" is a name.
        return (token.kind == IDENT
                and token.text.upper() in self._CLAUSE_WORDS)

    def _from_item(self) -> ast.FromItem:
        item = self._from_primary()
        while self.at_keyword("JOIN", "INNER", "CROSS", "LEFT"):
            left = self.accept_keyword("LEFT")
            self.accept_keyword("OUTER" if left else "INNER")
            cross = not left and self.accept_keyword("CROSS")
            self.expect_keyword("JOIN")
            right = self._from_primary()
            on = None
            if not cross:
                self.expect_keyword("ON")
                on = self.expr()
            item = ast.Join(item, right, "left" if left else "inner", on)
        return item

    def _from_primary(self) -> ast.FromItem:
        if self.accept_op("("):
            select = self._subquery()
            self.accept_keyword("AS")
            return ast.SubqueryRef(select, self.expect_ident())
        name = self.expect_ident()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif (self.peek().kind == IDENT
              and not self._is_clause_keyword(self.peek())):
            alias = self.expect_ident()
        return ast.TableRef(name, alias)

    def _order_item(self) -> ast.OrderItem:
        expr = self.expr()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr, descending)

    # -- INSERT -----------------------------------------------------------
    def _insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident()
        columns = self._parenthesized(self.expect_ident) \
            if self.at_op("(") else None
        rows = None
        select = None
        if self.accept_keyword("VALUES"):
            rows = self._list(lambda: self._parenthesized(self.expr))
        elif self.at_keyword("SELECT"):
            select = self._select()
        else:
            self.error("expected VALUES or SELECT")
        declassifying = self._declassifying() \
            if self.at_keyword("DECLASSIFYING") else []
        return ast.Insert(table=table, columns=columns, rows=rows,
                          select=select, declassifying=declassifying)

    def _declassifying(self) -> List[str]:
        self.expect_keyword("DECLASSIFYING")
        return self._parenthesized(self._tag_name)

    def _tag_name(self) -> str:
        token = self.peek()
        if token.kind in (IDENT, STRING):
            self.advance()
            return token.value
        self.error("expected tag name")

    # -- UPDATE / DELETE ------------------------------------------------
    def _update(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        assignments = self._list(self._assignment)
        where = self.expr() if self.accept_keyword("WHERE") else None
        return ast.Update(table=table, assignments=assignments, where=where)

    def _assignment(self) -> Tuple[str, ex.Expr]:
        column = self.expect_ident()
        self.expect_op("=")
        return (column, self.expr())

    def _delete(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where = self.expr() if self.accept_keyword("WHERE") else None
        return ast.Delete(table=table, where=where)

    # -- CREATE -----------------------------------------------------------
    def _create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            return self._create_table()
        if self.accept_keyword("VIEW"):
            return self._create_view()
        if self.at_keyword("UNIQUE"):
            # Uniqueness is declared with the table, where a write
            # polyinstantiates it (section 5.2.1); an index only finds.
            self.error("no CREATE UNIQUE INDEX: declare UNIQUE (...) in "
                       "CREATE TABLE")
        ordered = self.accept_keyword("ORDERED")
        if self.accept_keyword("INDEX"):
            return self._create_index(ordered)
        self.error("expected TABLE, VIEW, or INDEX")

    def _create_table(self) -> ast.CreateTable:
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        name = self.expect_ident()
        # A column's own constraints go ahead of the table's, so that
        # generated names number column-level ones first.
        on_columns: List[ast.TableConstraintDef] = []
        elements = self._parenthesized(
            lambda: self._table_constraint()
            or self._column_def(name, on_columns))
        columns = [e for e in elements if isinstance(e, ast.ColumnDef)]
        return ast.CreateTable(
            name=name, columns=columns, if_not_exists=if_not_exists,
            constraints=on_columns + [e for e in elements
                                      if not isinstance(e, ast.ColumnDef)])

    def _table_constraint(self) -> Optional[ast.TableConstraintDef]:
        name = None
        saved = self.position
        if self.accept_keyword("CONSTRAINT"):
            name = self.expect_ident()
        if self.accept_keyword("PRIMARY"):
            self.expect_keyword("KEY")
            return ast.TableConstraintDef(kind="primary_key", name=name,
                                          columns=self._column_list())
        if self.at_keyword("UNIQUE") and self.at_op("(", 1):
            self.advance()
            return ast.TableConstraintDef(kind="unique", name=name,
                                          columns=self._column_list())
        if self.accept_keyword("FOREIGN"):
            self.expect_keyword("KEY")
            columns = self._column_list()
            self.expect_keyword("REFERENCES")
            ref_table = self.expect_ident()
            ref_columns = self._column_list()
            return ast.TableConstraintDef(
                kind="foreign_key", name=name, columns=columns,
                ref_table=ref_table, ref_columns=ref_columns,
                match_label=self._match_label())
        if self.accept_keyword("CHECK"):
            self.expect_op("(")
            expr = self.expr()
            self.expect_op(")")
            return ast.TableConstraintDef(kind="check", name=name, expr=expr)
        if self.at_keyword("LABEL") and self.peek(1).matches_keyword("CHECK"):
            self.advance()
            self.advance()
            self.expect_op("(")
            expr = self.expr()
            self.expect_op(")")
            return ast.TableConstraintDef(kind="label_check", name=name,
                                          expr=expr)
        if name is not None:
            self.position = saved
        return None

    def _column_list(self) -> Tuple[str, ...]:
        return tuple(self._parenthesized(self.expect_ident))

    def _match_label(self) -> bool:
        if self.accept_keyword("MATCH"):
            self.expect_keyword("LABEL")
            return True
        return False

    def _column_def(self, table: str,
                    constraints: List[ast.TableConstraintDef]
                    ) -> ast.ColumnDef:
        """One column; its PRIMARY KEY, UNIQUE and REFERENCES are
        appended to ``constraints`` in their table-level form."""
        name = self.expect_ident()
        type_name = self.expect_ident()
        type_length = None
        if self.accept_op("("):
            token = self.advance()
            if token.kind != NUMBER:
                self.error("expected type length")
            type_length = int(token.value)
            # e.g. NUMERIC(12, 2): scale is accepted and ignored
            if self.accept_op(","):
                scale = self.advance()
                if scale.kind != NUMBER:
                    self.error("expected type scale")
            self.expect_op(")")
        col = ast.ColumnDef(name=name, type_name=type_name,
                            type_length=type_length)
        while True:
            if self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                col.not_null = True
            elif self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                constraints.append(ast.TableConstraintDef(
                    kind="primary_key", columns=(name,)))
            elif self.accept_keyword("UNIQUE"):
                constraints.append(ast.TableConstraintDef(
                    kind="unique", name="%s_%s_key" % (table, name),
                    columns=(name,)))
            elif self.accept_keyword("DEFAULT"):
                col.default = self._literal_value()
                col.has_default = True
            elif self.accept_keyword("REFERENCES"):
                ref_table = self.expect_ident()
                self.expect_op("(")
                ref_column = self.expect_ident()
                self.expect_op(")")
                constraints.append(ast.TableConstraintDef(
                    kind="foreign_key", columns=(name,),
                    ref_table=ref_table, ref_columns=(ref_column,),
                    match_label=self._match_label()))
            else:
                break
        return col

    def _literal_value(self):
        token = self.peek()
        if token.kind == NUMBER or token.kind == STRING:
            self.advance()
            return token.value
        if token.kind == IDENT and token.value.upper() in _KEYWORD_LITERALS:
            self.advance()
            return _KEYWORD_LITERALS[token.value.upper()]
        if self.accept_op("-"):
            number = self.advance()
            if number.kind != NUMBER:
                self.error("expected number after -")
            return -number.value
        self.error("expected literal default value")

    def _create_view(self) -> ast.CreateView:
        name = self.expect_ident()
        self.expect_keyword("AS")
        select = self._select()
        declassifying = self._declassifying() \
            if self.accept_keyword("WITH") else []
        return ast.CreateView(name=name, select=select,
                              declassifying=declassifying)

    def _create_index(self, ordered: bool) -> ast.CreateIndex:
        name = self.expect_ident()
        self.expect_keyword("ON")
        table = self.expect_ident()
        columns = list(self._column_list())
        return ast.CreateIndex(name=name, table=table, columns=columns,
                               ordered=ordered)

    def _drop(self) -> ast.Statement:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            if_exists = False
            if self.accept_keyword("IF"):
                self.expect_keyword("EXISTS")
                if_exists = True
            return ast.DropTable(self.expect_ident(), if_exists)
        if self.accept_keyword("VIEW"):
            return ast.DropView(self.expect_ident())
        if self.accept_keyword("INDEX"):
            return ast.DropIndex(self.expect_ident())
        self.error("expected TABLE, VIEW, or INDEX")

    def _begin(self) -> ast.Begin:
        self.advance()
        self.accept_keyword("TRANSACTION")
        self.accept_keyword("WORK")
        isolation = None
        if self.accept_keyword("ISOLATION"):
            self.expect_keyword("LEVEL")
            if self.accept_keyword("SERIALIZABLE"):
                isolation = "serializable"
            elif self.accept_keyword("SNAPSHOT"):
                isolation = "snapshot"
            else:
                self.error("expected isolation level")
        return ast.Begin(isolation)

    def _call(self) -> ast.Call:
        self.expect_keyword("CALL")
        name = self.expect_ident()
        return ast.Call(name=name, args=self._parenthesized(self.expr, True))

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def expr(self) -> ex.Expr:
        return self._chain("OR", ex.Or, self._conjunction)

    def _conjunction(self) -> ex.Expr:
        return self._chain("AND", ex.And, self._not_expr)

    def _chain(self, word: str, node, item: Callable[[], ex.Expr]
               ) -> ex.Expr:
        """``item (word item)*``: one n-ary ``node`` for a run of OR or
        of AND; a single item is itself."""
        items = [item()]
        while self.accept_keyword(word):
            items.append(item())
        return items[0] if len(items) == 1 else node(items)

    def _not_expr(self) -> ex.Expr:
        if self.accept_keyword("NOT"):
            return ex.Not(self._not_expr())
        return self._comparison()

    def _comparison(self) -> ex.Expr:
        left = self._arithmetic()
        token = self.peek()
        if token.kind == OP and token.value in ex.PRECEDENCE[_COMPARISON]:
            self.advance()
            return ex.Compare(token.value, left, self._arithmetic())
        if self.accept_keyword("IS"):
            negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return ex.IsNull(left, negated)
        negated = False
        if self.at_keyword("NOT") and self.peek(1).kind == IDENT \
                and self.peek(1).value.upper() in ("IN", "BETWEEN", "LIKE"):
            self.advance()
            negated = True
        if self.accept_keyword("IN"):
            self.expect_op("(")
            if self.at_keyword("SELECT"):
                return ex.InSelect(left, self._subquery(), negated)
            items = self._list(self.expr)
            self.expect_op(")")
            return ex.InList(left, items, negated)
        if self.accept_keyword("BETWEEN"):
            low = self._arithmetic()
            self.expect_keyword("AND")
            return ex.Between(left, low, self._arithmetic(), negated)
        if self.accept_keyword("LIKE"):
            return ex.Like(left, self._arithmetic(), negated)
        return left

    def _arithmetic(self, level: int = _ARITHMETIC) -> ex.Expr:
        """Precedence climbing over the arithmetic levels of
        :data:`~repro.db.expressions.PRECEDENCE`: an operand, then each
        binary operator of ``level`` or tighter with a right side of
        the next tighter level, so every level is left-associative."""
        left = self._unary()
        while True:
            token = self.peek()
            binds = ex.LEVEL.get(token.value, -1) if token.kind == OP else -1
            if binds < level:
                return left
            self.advance()
            left = ex.BinOp(token.value, left, self._arithmetic(binds + 1))

    def _unary(self) -> ex.Expr:
        if self.accept_op("-"):
            return ex.Neg(self._unary())
        if self.accept_op("+"):
            return self._unary()
        return self._primary()

    def _primary(self) -> ex.Expr:
        token = self.peek()
        if token.kind == NUMBER or token.kind == STRING:
            literal = self.slots[self.position] = ex.Literal(token.value)
            self.advance()
            return literal
        if token.kind == PARAM:
            self.advance()
            param = ex.Param(self.param_counter)
            self.param_counter += 1
            return param
        if self.accept_op("("):
            if self.at_keyword("SELECT"):
                return ex.ScalarSelect(self._subquery())
            inner = self.expr()
            self.expect_op(")")
            return inner
        if token.kind != IDENT:
            self.error("expected expression")
        word = token.value.upper()
        if word in _KEYWORD_LITERALS:
            self.advance()
            return ex.Literal(_KEYWORD_LITERALS[word])
        if word == "CASE":
            return self._case()
        if word == "EXISTS":
            self.advance()
            self.expect_op("(")
            return ex.Exists(self._subquery())
        if word == "NOT":
            self.advance()
            return ex.Not(self._primary())
        if self.at_op("(", 1):          # a function call
            name = self.expect_ident()
            if name.upper() in ex.Aggregate.FUNCS:
                self.expect_op("(")
                distinct = self.accept_keyword("DISTINCT")
                arg = None if self.accept_op("*") else self.expr()
                self.expect_op(")")
                return ex.Aggregate(name, arg, distinct)
            return ex.FuncCall(name, self._parenthesized(self.expr, True))
        # column reference (possibly qualified)
        name = self.expect_ident()
        if self.accept_op("."):
            column = self.expect_ident()
            return ex.ColumnRef(column, table=name)
        return ex.ColumnRef(name)

    def _case(self) -> ex.Expr:
        self.expect_keyword("CASE")
        whens: List[Tuple[ex.Expr, ex.Expr]] = []
        while self.accept_keyword("WHEN"):
            condition = self.expr()
            self.expect_keyword("THEN")
            value = self.expr()
            whens.append((condition, value))
        default = None
        if self.accept_keyword("ELSE"):
            default = self.expr()
        self.expect_keyword("END")
        if not whens:
            self.error("CASE requires at least one WHEN")
        return ex.Case(whens, default)


def parse_statement(sql: str, tokens: Optional[List[Token]] = None,
                    slots: Optional[dict] = None) -> ast.Statement:
    """Parse a single SQL statement, from ``tokens`` when the caller
    has already lexed ``sql``.  The statement carries the
    ``fingerprint`` of the lexemes it was parsed from — what the engine
    aggregates its executions under — so no one lexes the text again.
    A ``slots`` dict receives :attr:`Parser.slots`, which a template
    is compiled from."""
    parser = Parser(sql, tokens)
    statement = parser.parse_statement()
    statement.fingerprint = fingerprint(
        [token.text for token in parser.tokens[:-1]])
    if slots is not None:
        slots.update(parser.slots)
    return statement


def parse_script(sql: str) -> List[ast.Statement]:
    """Parse a semicolon-separated sequence of statements."""
    return Parser(sql).parse_script()


def parse_expression(sql: str) -> ex.Expr:
    """Parse a standalone expression (used for CHECK constraints etc.)."""
    parser = Parser(sql)
    expr = parser.expr()
    if parser.peek().kind != EOF:
        parser.error("unexpected trailing input after expression")
    return expr
