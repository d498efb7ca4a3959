#!/usr/bin/env python3
"""Count code lines per module the same way in every PR.

A *code line* is a physical line carrying at least one token that is
not a comment, a docstring, or layout (blank lines, line joins): what
is left when the prose is taken out.  Docstrings are string-expression
statements — a string token that opens a logical line and is the whole
of it.  Counting is by the standard ``tokenize`` module, so a ``#``
inside a string literal is not mistaken for a comment.

    python tools/loc.py [PATH ...]        # default: src/

prints one row per ``.py`` file (code lines, then physical ``wc -l``
lines) and a total.
"""

from __future__ import annotations

import os
import sys
import tokenize
from typing import Iterable, Iterator, Set, Tuple

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: str) -> Tuple[int, int]:
    """``(code lines, physical lines)`` of one Python source file."""
    lines: Set[int] = set()
    with open(path, "rb") as handle:
        statement: list = []           # significant tokens of a logical line
        for token in tokenize.tokenize(handle.readline):
            if token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                docstring = (len(statement) == 1
                             and statement[0].type == tokenize.STRING)
                if not docstring:
                    for held in statement:
                        lines.update(range(held.start[0], held.end[0] + 1))
                statement = []
            elif token.type not in _LAYOUT:
                statement.append(token)
    with open(path, "rb") as handle:
        physical = sum(1 for _ in handle)
    return len(lines), physical


def python_files(paths: Iterable[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def main(argv) -> int:
    rows = [(path, *code_lines(path))
            for path in python_files(argv or ["src"])]
    width = max([len(path) for path, _c, _p in rows] + [5])
    print("%-*s %8s %8s" % (width, "file", "code", "wc -l"))
    for path, code, physical in rows:
        print("%-*s %8d %8d" % (width, path, code, physical))
    print("%-*s %8d %8d" % (width, "total", sum(r[1] for r in rows),
                            sum(r[2] for r in rows)))
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (``| head``): it has what it
        # wanted.  Point stdout at devnull so the exit flush is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)
