"""Recursive-descent parser for stencil code expressions.

The grammar is a small C-like expression language::

    ternary     := or ( '?' expr ':' ternary )?
    or          := and ( '||' and )*
    and         := cmp ( '&&' cmp )*
    cmp         := add ( ('<'|'>'|'<='|'>='|'=='|'!=') add )*
    add         := mul ( ('+'|'-') mul )*
    mul         := unary ( ('*'|'/') unary )*
    unary       := ('-'|'+'|'!') unary | primary
    primary     := NUMBER | NAME subscript? | NAME '(' args ')' | '(' expr ')'
    subscript   := '[' index (',' index)* ']'
    index       := IDXNAME (('+'|'-') INT)? | INT

Subscripts must be constant offsets from the iteration point — this is
what keeps stencil code analyzable (Sec. II).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ParseError
from . import lexer
from .ast_nodes import (
    MATH_FUNCTIONS,
    BinaryOp,
    Call,
    Expr,
    FieldAccess,
    IndexVar,
    Literal,
    Ternary,
    UnaryOp,
)
from .lexer import Token

#: Deepest nesting accepted, of the parser's own descent and of the tree
#: it builds: every later pass recurses over the AST, so deeper input is
#: a ParseError here instead of a RecursionError there.  The catalog's
#: deepest lowering nests 15 levels.
MAX_DEPTH = 64

#: Binary operators by precedence, loosest first; all left-associative.
_BINARY_LEVELS = (("||",), ("&&",), ("<", ">", "<=", ">=", "==", "!="),
                  ("+", "-"), ("*", "/"))


def parse(source: str,
          field_dims: Optional[Mapping[str, Sequence[str]]] = None,
          index_names: Sequence[str] = ("i", "j", "k")) -> Expr:
    """Parse stencil code into an AST.

    Args:
        source: the expression text, e.g. ``"0.5*(b0[i,j,k] + a2[i,k])"``.
        field_dims: optional map from field name to its dimension names;
            when provided, subscripts are checked against the declaration.
        index_names: iteration index variables in iteration order.

    Returns:
        The root :class:`Expr`.

    >>> str(parse("a[i, j-1, k] + 1"))
    '(a[i, j-1, k] + 1)'
    """
    parser = _Parser(source, field_dims, tuple(index_names))
    node = parser.parse_expr()
    parser.expect(lexer.EOF)
    return node


class _Parser:
    def __init__(self, source: str,
                 field_dims: Optional[Mapping[str, Sequence[str]]],
                 index_names: Tuple[str, ...]):
        self.source = source
        self.tokens: List[Token] = lexer.tokenize(source)
        self.pos = 0
        # The caller's mapping, not a copy: a program parses one
        # expression per stencil against the same declarations.
        self.field_dims = field_dims
        self.index_names = index_names
        self.descent = 0                  # parse_unary frames open
        self.depths: Dict[int, int] = {}  # id(node) -> its AST depth

    # -- token plumbing ----------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != lexer.EOF:
            self.pos += 1
        return token

    def match(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self.current
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.match(kind, text)
        if token is None:
            want = text if text is not None else kind
            raise ParseError(
                f"expected {want!r}, found {self.current.text or 'end of input'!r}",
                self.current.position, self.source)
        return token

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.current.position, self.source)

    def check_depth(self, depth: int) -> int:
        if depth > MAX_DEPTH:
            raise self.error(f"expression nests deeper than {MAX_DEPTH} "
                             f"levels")
        return depth

    def nested(self, node: Expr) -> Expr:
        """Record the depth of a node just built from parsed children."""
        self.depths[id(node)] = self.check_depth(1 + max(
            self.depths.get(id(child), 1) for child in node.children()))
        return node

    # -- grammar -----------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_ternary()

    def parse_ternary(self) -> Expr:
        cond = self.parse_binary()
        if self.match(lexer.QUESTION):
            then = self.parse_expr()
            self.expect(lexer.COLON)
            orelse = self.parse_ternary()
            return self.nested(Ternary(cond, then, orelse))
        return cond

    def parse_binary(self, level: int = 0) -> Expr:
        if level == len(_BINARY_LEVELS):
            return self.parse_unary()
        node = self.parse_binary(level + 1)
        while (self.current.kind == lexer.OP
               and self.current.text in _BINARY_LEVELS[level]):
            op = self.advance().text
            node = self.nested(BinaryOp(op, node,
                                        self.parse_binary(level + 1)))
        return node

    def parse_unary(self) -> Expr:
        self.descent = self.check_depth(self.descent + 1)
        if self.current.kind == lexer.OP and self.current.text in ("-", "+", "!"):
            op = self.advance().text
            node = self.parse_unary()
            if op == "-" and isinstance(node, Literal):
                # Fold negated literals so `-1` is a constant, not an op.
                node = Literal(-node.value)
            elif op != "+":
                node = self.nested(UnaryOp(op, node))
        else:
            node = self.parse_primary()
        self.descent -= 1
        return node

    def parse_primary(self) -> Expr:
        token = self.current
        if token.kind == lexer.NUMBER:
            self.advance()
            return Literal(_parse_number(token.text))
        if token.kind == lexer.LPAREN:
            self.advance()
            node = self.parse_expr()
            self.expect(lexer.RPAREN)
            return node
        if token.kind == lexer.NAME:
            self.advance()
            if self.current.kind == lexer.LPAREN:
                return self.parse_call(token)
            if self.current.kind == lexer.LBRACKET:
                return self.parse_access(token)
            return self.bare_name(token)
        raise self.error(
            f"unexpected token {token.text or 'end of input'!r}")

    def parse_call(self, name: Token) -> Expr:
        if name.text not in MATH_FUNCTIONS:
            raise ParseError(
                f"unknown function {name.text!r} (stencil code may only "
                f"call standard math functions)", name.position, self.source)
        self.expect(lexer.LPAREN)
        args = [self.parse_expr()]
        while self.match(lexer.COMMA):
            args.append(self.parse_expr())
        self.expect(lexer.RPAREN)
        arity = MATH_FUNCTIONS[name.text]
        if arity != len(args):
            raise ParseError(
                f"{name.text} expects {arity} argument(s), got {len(args)}",
                name.position, self.source)
        return self.nested(Call(name.text, tuple(args)))

    def parse_access(self, name: Token) -> Expr:
        self.expect(lexer.LBRACKET)
        dims = []
        offsets = []
        dim, off = self.parse_index(len(offsets))
        dims.append(dim)
        offsets.append(off)
        while self.match(lexer.COMMA):
            dim, off = self.parse_index(len(offsets))
            dims.append(dim)
            offsets.append(off)
        self.expect(lexer.RBRACKET)
        self.check_declared_dims(name, tuple(dims))
        return FieldAccess(name.text, tuple(offsets), tuple(dims))

    def parse_index(self, position: int) -> Tuple[str, int]:
        """Parse one subscript: ``i``, ``i+2``, ``i-1``, or a bare int."""
        token = self.current
        if token.kind == lexer.NAME:
            if token.text not in self.index_names:
                raise ParseError(
                    f"{token.text!r} is not an iteration index "
                    f"(expected one of {self.index_names})",
                    token.position, self.source)
            self.advance()
            sign_token = self.current
            if sign_token.kind == lexer.OP and sign_token.text in ("+", "-"):
                self.advance()
                num = self.expect(lexer.NUMBER)
                value = _parse_number(num.text)
                if not isinstance(value, int):
                    raise ParseError("offset must be an integer",
                                     num.position, self.source)
                offset = value if sign_token.text == "+" else -value
                return token.text, offset
            return token.text, 0
        if token.kind == lexer.NUMBER or (
                token.kind == lexer.OP and token.text == "-"):
            # A bare constant offset; its dimension is positional.
            negative = bool(self.match(lexer.OP, "-"))
            num = self.expect(lexer.NUMBER)
            value = _parse_number(num.text)
            if not isinstance(value, int):
                raise ParseError("offset must be an integer",
                                 num.position, self.source)
            if position >= len(self.index_names):
                raise ParseError(
                    f"too many subscripts (iteration space is "
                    f"{len(self.index_names)}-dimensional)",
                    token.position, self.source)
            return self.index_names[position], -value if negative else value
        raise ParseError("expected an index expression",
                         token.position, self.source)

    def check_declared_dims(self, name: Token, dims: Tuple[str, ...]):
        if self.field_dims is None:
            return
        declared = self.field_dims.get(name.text)
        if declared is not None and tuple(declared) != dims:
            raise ParseError(
                f"field {name.text!r} is declared over dims "
                f"{tuple(declared)}, accessed with {dims}",
                name.position, self.source)

    def bare_name(self, token: Token) -> Expr:
        if token.text in self.index_names:
            return IndexVar(token.text)
        if self.field_dims is not None:
            declared = self.field_dims.get(token.text)
            if declared is not None and len(declared) != 0:
                raise ParseError(
                    f"field {token.text!r} spans dims {tuple(declared)} "
                    f"and must be accessed with a subscript",
                    token.position, self.source)
        # A bare name is a scalar (0D) field read.
        return FieldAccess(token.text, (), ())


def _parse_number(text: str):
    """Parse a numeric literal, preserving int-ness."""
    if any(c in text for c in ".eE"):
        return float(text)
    return int(text)
