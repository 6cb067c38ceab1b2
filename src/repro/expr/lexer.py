"""Tokenizer for stencil code expressions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from ..errors import ParseError

#: Token kinds.
NUMBER = "NUMBER"
NAME = "NAME"
OP = "OP"
LBRACKET = "LBRACKET"
RBRACKET = "RBRACKET"
LPAREN = "LPAREN"
RPAREN = "RPAREN"
COMMA = "COMMA"
QUESTION = "QUESTION"
COLON = "COLON"
EOF = "EOF"

#: Multi-character operators, longest first so the lexer is greedy.
_MULTI_OPS = ("<=", ">=", "==", "!=", "&&", "||")
_SINGLE_OPS = "+-*/<>!"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    position: int


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``, returning a list ending with an EOF token.

    >>> [t.kind for t in tokenize("a[i-1] + 2.5")]
    ['NAME', 'LBRACKET', 'NAME', 'OP', 'NUMBER', 'RBRACKET', 'OP', 'NUMBER', 'EOF']
    """
    return list(_scan(source))


def _scan(source: str) -> Iterator[Token]:
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < n
                            and source[pos + 1].isdigit()):
            start = pos
            pos = _scan_number(source, pos)
            yield Token(NUMBER, source[start:pos], start)
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (source[pos].isalnum() or source[pos] == "_"):
                pos += 1
            yield Token(NAME, source[start:pos], start)
            continue
        two = source[pos:pos + 2]
        if two in _MULTI_OPS:
            yield Token(OP, two, pos)
            pos += 2
            continue
        if ch in _SINGLE_OPS:
            yield Token(OP, ch, pos)
        elif ch == "[":
            yield Token(LBRACKET, ch, pos)
        elif ch == "]":
            yield Token(RBRACKET, ch, pos)
        elif ch == "(":
            yield Token(LPAREN, ch, pos)
        elif ch == ")":
            yield Token(RPAREN, ch, pos)
        elif ch == ",":
            yield Token(COMMA, ch, pos)
        elif ch == "?":
            yield Token(QUESTION, ch, pos)
        elif ch == ":":
            yield Token(COLON, ch, pos)
        else:
            raise ParseError(f"unexpected character {ch!r}", pos, source)
        pos += 1
    yield Token(EOF, "", n)


def _scan_number(source: str, pos: int) -> int:
    """Advance past an integer or floating-point literal."""
    n = len(source)
    while pos < n and source[pos].isdigit():
        pos += 1
    if pos < n and source[pos] == ".":
        pos += 1
        while pos < n and source[pos].isdigit():
            pos += 1
    if pos < n and source[pos] in "eE":
        end = pos + 1
        if end < n and source[end] in "+-":
            end += 1
        if end < n and source[end].isdigit():
            pos = end
            while pos < n and source[pos].isdigit():
                pos += 1
    return pos
