"""The regex lexer (sql/lexer.py) against the character loop it
replaced.

:func:`oracle_tokenize` is that loop, kept verbatim as the reference.
On generated SQL-ish texts the lexer must give the same tokens — kinds,
values with their types, positions — or the same ``SQLSyntaxError``.
The differences allowed are the two of the new number rule, each
checked for what it is:

* the loop raised a bare ``ValueError`` for a number with no exponent
  digits (``1e``, ``2E+``) or a non-decimal digit (``\u00b2``); the
  lexer raises ``SQLSyntaxError`` at the number;
* the loop read a non-ASCII decimal digit (``\u0663``) as part of a
  number; numbers are ASCII digits, so the lexer raises
  ``SQLSyntaxError`` at that digit, or at the number when the digit
  was in its exponent (``1e\u0663``).

Beside the tokens: the lexemes are the tokens' texts (lexeme *i* is
token *i*), texts with one shape key have one token stream up to
literal values, and a text the lexer rejects never hits a cached shape.
"""

from __future__ import annotations

import random
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import counters
from repro.db import Database
from repro.errors import SQLSyntaxError
from repro.sql.lexer import (EOF, IDENT, NUMBER, OP, PARAM, STRING, Token,
                             lexemes, shape_key, tokenize)

_PUNCTUATION = (
    "<>", "<=", ">=", "!=", "||",
    "(", ")", ",", ".", ";", "*", "+", "-", "/", "%", "=", "<", ">", "?",
)


def oracle_tokenize(sql: str) -> List[Token]:
    tokens: List[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        # -- comments ----------------------------------------------------
        if ch == "-" and sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        if ch == "/" and sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end < 0:
                raise SQLSyntaxError("unterminated comment at %d" % i)
            i = end + 2
            continue
        # -- strings -----------------------------------------------------
        if ch == "'":
            j = i + 1
            parts = []
            while True:
                if j >= n:
                    raise SQLSyntaxError("unterminated string at %d" % i)
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":   # escaped quote
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(sql[j])
                j += 1
            tokens.append(Token(STRING, "".join(parts), i))
            i = j + 1
            continue
        # -- quoted identifiers -------------------------------------------
        if ch == '"':
            j = sql.find('"', i + 1)
            if j < 0:
                raise SQLSyntaxError("unterminated identifier at %d" % i)
            tokens.append(Token(IDENT, sql[i + 1:j], i))
            i = j + 1
            continue
        # -- numbers -------------------------------------------------------
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            j = i
            saw_dot = False
            saw_exp = False
            while j < n:
                c = sql[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not saw_dot and not saw_exp:
                    saw_dot = True
                    j += 1
                elif c in "eE" and not saw_exp and j > i:
                    saw_exp = True
                    j += 1
                    if j < n and sql[j] in "+-":
                        j += 1
                else:
                    break
            text = sql[i:j]
            value = float(text) if (saw_dot or saw_exp) else int(text)
            tokens.append(Token(NUMBER, value, i))
            i = j
            continue
        # -- identifiers and keywords ---------------------------------------
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            tokens.append(Token(IDENT, sql[i:j], i))
            i = j
            continue
        # -- parameters --------------------------------------------------
        if ch == "?":
            tokens.append(Token(PARAM, None, i))
            i += 1
            continue
        # -- punctuation ----------------------------------------------------
        for punct in _PUNCTUATION:
            if sql.startswith(punct, i):
                tokens.append(Token(OP, punct, i))
                i += len(punct)
                break
        else:
            raise SQLSyntaxError("unexpected character %r at %d" % (ch, i))
    tokens.append(Token(EOF, None, n))
    return tokens


def _outcome(lex, sql):
    """``(kind, value, type, position)`` of each token, or the error."""
    try:
        return [(token.kind, token.value, type(token.value), token.position)
                for token in lex(sql)]
    except (SQLSyntaxError, ValueError) as error:
        return (type(error), str(error))


def _allowed(sql, old, new) -> bool:
    """Is ``new`` (the lexer's) one of the listed departures from
    ``old`` (the loop's)?"""
    if not (isinstance(new, tuple) and new[0] is SQLSyntaxError):
        return False
    position = int(new[1].rsplit(" ", 1)[1])
    try:
        last = oracle_tokenize(sql[:position + 1])[-2]
    except ValueError:
        last = None
    digit = sql[position]
    if not digit.isascii() and digit.isdigit():
        # A non-ASCII digit: the loop failed on it or read it into a
        # number.
        return last is None or last.kind == NUMBER
    if "malformed number" not in new[1] or last is None \
            or last.position != position:
        return False
    # A number starting at ``position`` that the loop failed on (a
    # bare ValueError), or read with a non-ASCII digit (``1e٣``).
    end = position
    while end < len(sql) and (sql[end].isdigit() or sql[end] in ".eE+-"):
        end += 1
    try:
        tokens = oracle_tokenize(sql[:end])
    except ValueError:
        return isinstance(old, tuple) and old[0] is ValueError
    return (NUMBER, position) in [(token.kind, token.position)
                                  for token in tokens] \
        and any(not c.isascii() and c.isdecimal()
                for c in sql[position:end])


FRAGMENTS = [
    # identifiers and keywords
    "SELECT", "a", "t1", "_x", "FROM", "b", '"a b"', '"?"', '""', '"a',
    # numbers, well and badly formed
    "1", "12", "1.5", ".5", "1.", "1e5", "1E+3", "2e-1", "1e", "2E+", "1.e",
    ".5e", "1.2.3", "007",
    # strings
    "'x'", "'it''s'", "''", "'", "'a''",
    # comments
    "-- c\n", "-- c", "/* c */", "/*", "/**/", "/*/", "/* * / */", "*/",
    # operators and parameters
    "<>", "<=", ">=", "!=", "||", "(", ")", ",", ".", ";", "*", "+", "-",
    "/", "%", "=", "<", ">", "?", "!", "|", "$", "#", "@",
    # whitespace
    " ", "\t", "\n", "\x1c", "\u2003", "\xa0",
    # non-ASCII letters, digits and numerics
    "\u00e9", "\u01c5", "\u00b2", "\u0663", "\u00bd", "\u216b",
    "\u4e00", "x\u00b2", "1\u0663", "1e\u0663", ".5E-\u0663",
]

TEXTS = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=12).map("".join),
    st.lists(st.sampled_from(FRAGMENTS), max_size=12).map(" ".join),
    st.text(alphabet=st.sampled_from("ab1.eE+-'\"/*? \n\u00b2"),
            max_size=16),
    st.text(max_size=16))


def _check(sql):
    old, new = _outcome(oracle_tokenize, sql), _outcome(tokenize, sql)
    assert old == new or _allowed(sql, old, new), (sql, old, new)


@settings(max_examples=1500, deadline=None)
@given(TEXTS)
def test_the_lexer_gives_the_loops_tokens(sql):
    _check(sql)


def test_a_seeded_sweep_gives_the_loops_tokens():
    """Many more texts of fragments than the property test draws, the
    same ones every run."""
    rng = random.Random(7)
    for _ in range(20000):
        _check(rng.choice(("", " ")).join(
            rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 12))))


@settings(max_examples=500, deadline=None)
@given(TEXTS)
def test_lexeme_i_is_token_i(sql):
    try:
        tokens = tokenize(sql)
    except SQLSyntaxError as error:
        with pytest.raises(SQLSyntaxError) as again:
            lexemes(sql)
        assert str(again.value) == str(error)
        return
    assert lexemes(sql) == [token.text for token in tokens[:-1]]
    assert tokens[-1] == (EOF, None, len(sql), "")
    for token in tokens[:-1]:
        assert sql.startswith(token.text, token.position)


def _unvalued(tokens) -> list:
    """Tokens with the values of literals dropped."""
    return [(token.kind,
             None if token.kind in (NUMBER, STRING) else token.value)
            for token in tokens]


#: Texts of few fragments, so that keys often coincide.
NEAR = st.lists(st.sampled_from(
    ["a", '"a"', "?", '"?"', "1", "2.5", "'1'", "'a'", ".", ".5", "1.",
     "-- x\n", "/* y */", " ", "(", ")"]), max_size=4).map(" ".join)


@settings(max_examples=800, deadline=None)
@given(NEAR, NEAR)
def test_texts_of_one_key_are_one_token_stream_up_to_literals(one, other):
    if shape_key(lexemes(one)) == shape_key(lexemes(other)):
        assert _unvalued(tokenize(one)) == _unvalued(tokenize(other))
        # and each literal is read as its token's value
        for sql in (one, other):
            tokens, key = tokenize(sql), shape_key(lexemes(sql))
            for token, mark in zip(tokens, key):
                if not isinstance(mark, str):
                    assert mark(token.text) == token.value


@pytest.mark.parametrize("valid, rejected", [
    ("SELECT a FROM t WHERE b = 'x'", "SELECT a FROM t WHERE b = 'x"),
    ('SELECT "a" FROM t', 'SELECT "a FROM t'),
    ("SELECT a FROM t /* c */", "SELECT a FROM t /* c"),
    ("SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b = 1 $"),
    ("SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b = 1e"),
    ("SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b = \u00b2"),
    ("SELECT a FROM t", "-- SELECT a FROM t"),
    ("SELECT a FROM t", "/* SELECT a FROM t */"),
    ("SELECT a FROM t", ""),
], ids=["string", "identifier", "comment", "bad_character",
        "malformed_number", "non_decimal_digit", "line_comment_only",
        "block_comment_only", "empty"])
def test_a_rejected_text_never_hits_a_cached_shape(valid, rejected):
    db = Database(seed=1)
    session = db.connect()
    session.execute("CREATE TABLE t (a INT, b INT)")
    session.execute("INSERT INTO t VALUES (1, 1)")
    session.execute(valid)
    counters.reset()
    with pytest.raises(SQLSyntaxError):
        session.execute(rejected)
    assert db.stats()["parse"]["shape_hits"] == 0


def test_a_trailing_comment_is_no_token():
    """A text whose trailing line comment holds words and operators
    hits the shape of the text without it, and reads its own literal."""
    db = Database(seed=1)
    session = db.connect()
    session.execute("CREATE TABLE t (a INT, b INT)")
    session.execute("INSERT INTO t VALUES (1, 30), (2, 40)")
    session.execute("SELECT a FROM t WHERE b = 40")
    counters.reset()
    text = "SELECT a FROM t WHERE b = 30 -- row one = 2 /* x"
    assert lexemes(text)[-1] == "30"
    assert session.execute(text).rows == [(1,)]
    assert db.stats()["parse"]["shape_hits"] == 1
