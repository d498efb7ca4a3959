"""SQL lexer.

Produces a flat token list for the recursive-descent parser.  Keywords
— including statement heads like ``ANALYZE`` and ``EXPLAIN`` (and the
``EXPLAIN ANALYZE`` pair, disambiguated by parser lookahead) — are
plain identifier tokens matched case-insensitively at parse time;
identifier case is preserved (the applications in :mod:`repro.apps`
use CamelCase table names like the paper's ``HIVPatients``).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from ..errors import SQLSyntaxError

IDENT = "ident"
NUMBER = "number"
STRING = "string"
PARAM = "param"
OP = "op"
EOF = "eof"

_PUNCTUATION = (
    "<>", "<=", ">=", "!=", "||",
    "(", ")", ",", ".", ";", "*", "+", "-", "/", "%", "=", "<", ">", "?",
)


class Token(NamedTuple):
    kind: str
    value: object
    position: int

    def matches_keyword(self, word: str) -> bool:
        return (self.kind == IDENT and isinstance(self.value, str)
                and self.value.upper() == word)


def tokenize(sql: str) -> List[Token]:
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


LITERALS = (NUMBER, STRING, PARAM)


def fingerprint(tokens: List[Token]) -> str:
    """The pg_stat_statements-style key of a token stream: literals
    (numbers, strings, parameters) become ``?`` so ``…WHERE id = 7`` and
    ``…WHERE id = 9`` aggregate under one key; whitespace and comments
    went with the lexer; identifiers keep their case."""
    return " ".join(["?" if token.kind in LITERALS else str(token.value)
                     for token in tokens[:-1]])          # all but EOF
