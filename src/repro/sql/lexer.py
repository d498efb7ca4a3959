"""SQL lexer.

One compiled pattern, :data:`_PATTERN`, is the token grammar.  Each
match is one token with the whitespace and comments after it; the
first match is the text's leading whitespace and comments, and a
character no token rule accepts starts a match that takes the rest of
the text.  The pattern's one group captures the token's *lexeme*, its
text as written, and is empty for those two.  Three things come from
it:

* :func:`lexemes` — one ``findall``: the lexemes of a text.  A new text
  of a known statement shape is only this far lexed
  (:mod:`repro.sql.template`);
* :func:`shape_key` and :func:`fingerprint` — the lexemes with each
  literal replaced: by a marker of its kind (the statement-shape key)
  or by ``?`` (what statement statistics aggregate under);
* :func:`tokenize` — ``finditer`` over the same pattern, so lexeme *i*
  is token *i*: the :class:`Token` list the recursive-descent parser
  reads, with values and positions, and the lexing errors.

Keywords — including statement heads like ``ANALYZE`` and ``EXPLAIN``
(and the ``EXPLAIN ANALYZE`` pair, disambiguated by parser lookahead) —
are plain identifier tokens matched case-insensitively at parse time;
identifier case is preserved (the applications in :mod:`repro.apps`
use CamelCase table names like the paper's ``HIVPatients``).  Numbers
are ASCII digits; a number whose exponent has no digits (``1e``,
``2E+``) is a syntax error.
"""

from __future__ import annotations

import re
import string
from typing import List, NamedTuple, Sequence

from ..errors import SQLSyntaxError

IDENT = "ident"
NUMBER = "number"
STRING = "string"
PARAM = "param"
OP = "op"
EOF = "eof"

#: Whitespace, ``-- line`` and ``/* block */`` comments.  A block
#: comment ends at its first ``*/`` and cannot be read as a longer one.
_SKIP = r"\s*(?:(?:--[^\n]*|/\*[^*]*\*+(?:[^*/][^*]*\*+)*/)\s*)*"

#: One token.  Each rule takes the longest lexeme the rule allows or
#: fails — a string may not stop at a doubled quote, a number may not
#: stop short of a digit, dot or exponent it could take — so a failing
#: rule never leaves a shorter token behind.
_TOKEN = r"""
    '[^']*(?:''[^']*)*'(?!')                              # string
  | "[^"]*"                                               # quoted ident
  | (?:[0-9]+(?![0-9])(?:\.[0-9]*(?![0-9])|(?!\.))       # number
     |\.[0-9]+(?![0-9]))
    (?:[eE][+-]?[0-9]+(?![0-9])|(?![eE]))
  | [^\W\d]\w*                                            # identifier
  | \? | <> | <= | >= | != | \|\| | /(?!\*) | \.(?![0-9])
  | [(),;*+\-%=<>]
"""

#: The skip trails each token: ending a match, it is never given back,
#: so no match starts inside a comment — what an atomic group would
#: say, which Python 3.9's ``re`` lacks.
_PATTERN = re.compile(r"\A%s|(%s)%s|(?s:.+)" % (_SKIP, _TOKEN, _SKIP),
                      re.VERBOSE)
_findall = _PATTERN.findall


class Token(NamedTuple):
    kind: str
    value: object
    position: int
    #: The token as written (``''`` for EOF).
    text: str = ""

    def matches_keyword(self, word: str) -> bool:
        return (self.kind == IDENT and isinstance(self.value, str)
                and self.value.upper() == word)


def read_number(text: str):
    """The value of a number lexeme: an ``int`` unless it has a dot or
    an exponent."""
    return int(text) if text.isdigit() else float(text)


def read_string(text: str) -> str:
    """The value of a string lexeme: unquoted, ``''`` read as ``'``."""
    return text[1:-1].replace("''", "'")


#: A literal lexeme's first character → how its value is read; a
#: lexeme ``.`` is the operator.
_READERS = dict.fromkeys("0123456789.", read_number)
_READERS["'"] = read_string

#: A lexeme's first character → its token kind, for every character
#: but a non-ASCII letter: a ``.`` lexeme is the operator, ``"`` starts
#: a quoted identifier.
_QUOTED = '"'
_KINDS = dict.fromkeys(string.ascii_letters + "_", IDENT)
_KINDS.update(dict.fromkeys(string.digits + ".", NUMBER))
_KINDS.update(dict.fromkeys("<>!|(),;*+-/%=", OP))
_KINDS.update({"'": STRING, '"': _QUOTED, "?": PARAM})


def lexemes(sql: str) -> List[str]:
    """The lexemes of ``sql``, one ``findall``; raises
    :class:`SQLSyntaxError` where :func:`tokenize` does."""
    found = _findall(sql)
    if not (found[-1] and sql.isascii()):
        # A character no rule accepts, no token at all, or identifiers
        # that may start with a non-letter: ``tokenize`` judges.
        return [token.text for token in tokenize(sql)[:-1]]
    del found[0]                        # the leading skip
    return found


def shape_key(found: Sequence[str]) -> tuple:
    """What a statement template is keyed on: the lexemes with each
    number and string literal replaced by its kind's reader
    (:func:`read_number`, :func:`read_string`), so texts with one key
    differ only in their literals' values — and ``1`` is not ``'1'``,
    nor ``"a b"`` the two identifiers ``a b``."""
    get = _READERS.get
    return tuple([lexeme if lexeme == "." else get(lexeme[0], lexeme)
                  for lexeme in found])


def fingerprint(found: Sequence[str]) -> str:
    """The pg_stat_statements-style key of a text's lexemes: literals
    (numbers, strings, parameters) become ``?`` so ``…WHERE id = 7``
    and ``…WHERE id = 9`` aggregate under one key; whitespace and
    comments went with the lexer; identifiers keep their case, and a
    quoted one its quotes."""
    return " ".join(["?" if not isinstance(part, str) else part
                     for part in shape_key(found)])


def tokenize(sql: str) -> List[Token]:
    """The tokens of ``sql``, ending with EOF: the lexemes of
    :func:`lexemes` with kinds, values and positions."""
    tokens: List[Token] = []
    append, make = tokens.append, Token._make
    matches = _PATTERN.finditer(sql)
    next(matches)                       # the leading skip
    for match in matches:
        text = match.group(1)
        position = match.start()
        if text is None:
            raise _error(sql, position)
        kind = _KINDS.get(text[0])
        if kind is None:                # a non-ASCII word character
            if not text[0].isalpha():
                raise _error(sql, position)
            kind = IDENT
        value = text
        if kind is NUMBER:
            if text == ".":
                kind = OP
            else:
                value = read_number(text)
        elif kind is STRING:
            value = read_string(text)
        elif kind is _QUOTED:
            kind, value = IDENT, text[1:-1]
        elif kind is PARAM:
            value = None
        append(make((kind, value, position, text)))
    append(Token(EOF, None, len(sql)))
    return tokens


def _error(sql: str, position: int) -> SQLSyntaxError:
    """The error of a text no token rule accepts at ``position``."""
    ch = sql[position]
    if ch in "'\"/":
        what = {"'": "string", '"': "identifier", "/": "comment"}[ch]
        return SQLSyntaxError("unterminated %s at %d" % (what, position))
    if ch in "0123456789.":
        return SQLSyntaxError("malformed number at %d" % position)
    return SQLSyntaxError("unexpected character %r at %d" % (ch, position))

