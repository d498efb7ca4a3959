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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..db import expressions as ex
from ..errors import SQLSyntaxError
from . import ast
from .lexer import (EOF, IDENT, NUMBER, OP, PARAM, STRING, Token,
                    fingerprint, tokenize)


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
        token = self.peek()
        if token.kind != IDENT:
            self.error("expected identifier")
        self.advance()
        return token.value

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
        if self.accept_keyword("VACUUM"):
            table = None
            if self.peek().kind == IDENT:
                table = self.expect_ident()
            return ast.Vacuum(table)
        if self.accept_keyword("ANALYZE"):
            table = None
            if self.peek().kind == IDENT:
                table = self.expect_ident()
            return ast.Analyze(table)
        self.error("unrecognized statement")

    # -- SELECT -----------------------------------------------------------
    def _select(self) -> ast.Select:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        self.accept_keyword("ALL")
        items = [self._select_item()]
        while self.accept_op(","):
            items.append(self._select_item())
        from_items: List[ast.FromItem] = []
        if self.accept_keyword("FROM"):
            from_items.append(self._from_item())
            while self.accept_op(","):
                from_items.append(self._from_item())
        where = self.expr() if self.accept_keyword("WHERE") else None
        group_by: List[ex.Expr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.expr())
            while self.accept_op(","):
                group_by.append(self.expr())
        having = self.expr() if self.accept_keyword("HAVING") else None
        order_by: List[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._order_item())
            while self.accept_op(","):
                order_by.append(self._order_item())
        limit = None
        offset = None
        if self.accept_keyword("LIMIT"):
            limit = self.expr()
        if self.accept_keyword("OFFSET"):
            offset = self.expr()
        return ast.Select(items=items, from_items=from_items, where=where,
                          group_by=group_by, having=having,
                          order_by=order_by, limit=limit, offset=offset,
                          distinct=distinct)

    def _select_item(self) -> ast.SelectItem:
        if self.accept_op("*"):
            return ast.SelectItem(ex.Star())
        # alias.* form
        token = self.peek()
        if (token.kind == IDENT and self.peek(1).kind == OP
                and self.peek(1).value == "."
                and self.peek(2).kind == OP and self.peek(2).value == "*"):
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
        return (token.kind == IDENT
                and token.value.upper() in self._CLAUSE_WORDS)

    def _from_item(self) -> ast.FromItem:
        item = self._from_primary()
        while True:
            if self.at_keyword("JOIN", "INNER", "CROSS"):
                kind = "inner"
                self.accept_keyword("INNER")
                cross = self.accept_keyword("CROSS")
                self.expect_keyword("JOIN")
                right = self._from_primary()
                on = None
                if not cross:
                    self.expect_keyword("ON")
                    on = self.expr()
                item = ast.Join(item, right, kind, on)
            elif self.at_keyword("LEFT"):
                self.advance()
                self.accept_keyword("OUTER")
                self.expect_keyword("JOIN")
                right = self._from_primary()
                self.expect_keyword("ON")
                on = self.expr()
                item = ast.Join(item, right, "left", on)
            else:
                return item

    def _from_primary(self) -> ast.FromItem:
        if self.accept_op("("):
            select = self._select()
            self.expect_op(")")
            self.accept_keyword("AS")
            alias = self.expect_ident()
            return ast.SubqueryRef(select, alias)
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
        columns = None
        if self.accept_op("("):
            columns = [self.expect_ident()]
            while self.accept_op(","):
                columns.append(self.expect_ident())
            self.expect_op(")")
        rows = None
        select = None
        if self.accept_keyword("VALUES"):
            rows = [self._value_row()]
            while self.accept_op(","):
                rows.append(self._value_row())
        elif self.at_keyword("SELECT"):
            select = self._select()
        else:
            self.error("expected VALUES or SELECT")
        declassifying = self._declassifying_clause()
        return ast.Insert(table=table, columns=columns, rows=rows,
                          select=select, declassifying=declassifying)

    def _value_row(self) -> List[ex.Expr]:
        self.expect_op("(")
        row = [self.expr()]
        while self.accept_op(","):
            row.append(self.expr())
        self.expect_op(")")
        return row

    def _declassifying_clause(self) -> List[str]:
        if not self.accept_keyword("DECLASSIFYING"):
            return []
        self.expect_op("(")
        tags = [self._tag_name()]
        while self.accept_op(","):
            tags.append(self._tag_name())
        self.expect_op(")")
        return tags

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
        assignments = [self._assignment()]
        while self.accept_op(","):
            assignments.append(self._assignment())
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
        self.expect_op("(")
        columns: List[ast.ColumnDef] = []
        # A column's own constraints go ahead of the table's, so that
        # generated names number column-level ones first.
        on_columns: List[ast.TableConstraintDef] = []
        constraints: List[ast.TableConstraintDef] = []
        while True:
            constraint = self._table_constraint()
            if constraint is not None:
                constraints.append(constraint)
            else:
                columns.append(self._column_def(name, on_columns))
            if not self.accept_op(","):
                break
        self.expect_op(")")
        return ast.CreateTable(name=name, columns=columns,
                               constraints=on_columns + constraints,
                               if_not_exists=if_not_exists)

    def _table_constraint(self) -> Optional[ast.TableConstraintDef]:
        name = None
        saved = self.position
        if self.accept_keyword("CONSTRAINT"):
            name = self.expect_ident()
        if self.accept_keyword("PRIMARY"):
            self.expect_keyword("KEY")
            return ast.TableConstraintDef(kind="primary_key", name=name,
                                          columns=self._column_list())
        if self.at_keyword("UNIQUE") and self.peek(1).kind == OP \
                and self.peek(1).value == "(":
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
        self.expect_op("(")
        columns = [self.expect_ident()]
        while self.accept_op(","):
            columns.append(self.expect_ident())
        self.expect_op(")")
        return tuple(columns)

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
        if self.accept_keyword("NULL"):
            return None
        if self.accept_keyword("TRUE"):
            return True
        if self.accept_keyword("FALSE"):
            return False
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
        declassifying: List[str] = []
        if self.accept_keyword("WITH"):
            self.expect_keyword("DECLASSIFYING")
            self.expect_op("(")
            declassifying.append(self._tag_name())
            while self.accept_op(","):
                declassifying.append(self._tag_name())
            self.expect_op(")")
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
        args: List[ex.Expr] = []
        self.expect_op("(")
        if not self.accept_op(")"):
            args.append(self.expr())
            while self.accept_op(","):
                args.append(self.expr())
            self.expect_op(")")
        return ast.Call(name=name, args=args)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def expr(self) -> ex.Expr:
        return self._or_expr()

    def _or_expr(self) -> ex.Expr:
        left = self._and_expr()
        if not self.at_keyword("OR"):
            return left
        items = [left]
        while self.accept_keyword("OR"):
            items.append(self._and_expr())
        return ex.Or(items)

    def _and_expr(self) -> ex.Expr:
        left = self._not_expr()
        if not self.at_keyword("AND"):
            return left
        items = [left]
        while self.accept_keyword("AND"):
            items.append(self._not_expr())
        return ex.And(items)

    def _not_expr(self) -> ex.Expr:
        if self.accept_keyword("NOT"):
            return ex.Not(self._not_expr())
        return self._comparison()

    def _comparison(self) -> ex.Expr:
        left = self._additive()
        token = self.peek()
        if token.kind == OP and token.value in ("=", "<>", "!=", "<", "<=",
                                                ">", ">="):
            self.advance()
            right = self._additive()
            return ex.Compare(token.value, left, right)
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
                select = self._select()
                self.expect_op(")")
                return ex.InSelect(left, select, negated)
            items = [self.expr()]
            while self.accept_op(","):
                items.append(self.expr())
            self.expect_op(")")
            return ex.InList(left, items, negated)
        if self.accept_keyword("BETWEEN"):
            low = self._additive()
            self.expect_keyword("AND")
            high = self._additive()
            return ex.Between(left, low, high, negated)
        if self.accept_keyword("LIKE"):
            return ex.Like(left, self._additive(), negated)
        return left

    def _additive(self) -> ex.Expr:
        left = self._multiplicative()
        while True:
            token = self.peek()
            if token.kind == OP and token.value in ("+", "-", "||"):
                self.advance()
                right = self._multiplicative()
                left = ex.BinOp(token.value, left, right)
            else:
                return left

    def _multiplicative(self) -> ex.Expr:
        left = self._unary()
        while True:
            token = self.peek()
            if token.kind == OP and token.value in ("*", "/", "%"):
                self.advance()
                right = self._unary()
                left = ex.BinOp(token.value, left, right)
            else:
                return left

    def _unary(self) -> ex.Expr:
        if self.accept_op("-"):
            return ex.Neg(self._unary())
        if self.accept_op("+"):
            return self._unary()
        return self._primary()

    _AGG_FUNCS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}

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
                select = self._select()
                self.expect_op(")")
                return ex.ScalarSelect(select)
            inner = self.expr()
            self.expect_op(")")
            return inner
        if token.kind != IDENT:
            self.error("expected expression")
        word = token.value.upper()
        if word == "NULL":
            self.advance()
            return ex.Literal(None)
        if word == "TRUE":
            self.advance()
            return ex.Literal(True)
        if word == "FALSE":
            self.advance()
            return ex.Literal(False)
        if word == "CASE":
            return self._case()
        if word == "EXISTS":
            self.advance()
            self.expect_op("(")
            select = self._select()
            self.expect_op(")")
            return ex.Exists(select)
        if word == "NOT":
            self.advance()
            return ex.Not(self._primary())
        # function call?
        if self.peek(1).kind == OP and self.peek(1).value == "(":
            name = self.expect_ident()
            self.expect_op("(")
            upper = name.upper()
            if upper in self._AGG_FUNCS:
                distinct = self.accept_keyword("DISTINCT")
                if self.accept_op("*"):
                    self.expect_op(")")
                    return ex.Aggregate(upper, None, distinct)
                arg = self.expr()
                self.expect_op(")")
                return ex.Aggregate(upper, arg, distinct)
            args: List[ex.Expr] = []
            if not self.accept_op(")"):
                args.append(self.expr())
                while self.accept_op(","):
                    args.append(self.expr())
                self.expect_op(")")
            return ex.FuncCall(name, args)
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
