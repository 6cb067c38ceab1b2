"""Typed AST for stencil code expressions (Sec. II).

Stencil code is restricted to an analyzable form: field accesses at
constant offsets, arithmetic, comparisons, ternary conditionals (including
data-dependent branches), and standard math functions. No external data
structures or functions — this restriction is what makes the critical-path
latency analysis (Sec. IV-B) possible.

Nodes are immutable; rewriting passes construct new trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Binary arithmetic operators.
ARITH_OPS = ("+", "-", "*", "/")
#: Comparison operators (result is boolean).
COMPARE_OPS = ("<", ">", "<=", ">=", "==", "!=")
#: Short-circuit logical operators.
LOGICAL_OPS = ("&&", "||")
#: Recognized math functions and their arity.
MATH_FUNCTIONS = {
    "sqrt": 1, "cbrt": 1, "exp": 1, "log": 1, "log2": 1, "log10": 1,
    "sin": 1, "cos": 1, "tan": 1, "asin": 1, "acos": 1, "atan": 1,
    "sinh": 1, "cosh": 1, "tanh": 1, "fabs": 1, "abs": 1, "floor": 1,
    "ceil": 1, "round": 1,
    "min": 2, "max": 2, "fmin": 2, "fmax": 2, "pow": 2, "atan2": 2,
    "fmod": 2,
}


class Expr:
    """Base class of all expression nodes."""

    def children(self) -> Tuple["Expr", ...]:
        """Direct sub-expressions, left to right."""
        return ()

    def walk(self):
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Literal(Expr):
    """A numeric constant. ``value`` is int or float."""

    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class IndexVar(Expr):
    """An iteration index used as a value (e.g. ``i`` in ``0.5 * i``)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FieldAccess(Expr):
    """A constant-offset read of a field.

    ``offsets`` is a tuple of integers, one per dimension *of the field*
    (which may be lower-dimensional than the iteration space). ``dims``
    records which index variable each subscript position used, so a 3D
    stencil reading the 2D field ``a2[i, k]`` yields
    ``FieldAccess("a2", (0, 0), ("i", "k"))``. Scalars (0D) have empty
    tuples.
    """

    field: str
    offsets: Tuple[int, ...]
    dims: Tuple[str, ...]

    def __post_init__(self):
        if len(self.offsets) != len(self.dims):
            raise ValueError(
                f"{self.field}: {len(self.offsets)} offsets vs "
                f"{len(self.dims)} dims")

    def __str__(self) -> str:
        if not self.dims:
            return self.field
        parts = []
        for dim, off in zip(self.dims, self.offsets):
            if off == 0:
                parts.append(dim)
            elif off > 0:
                parts.append(f"{dim}+{off}")
            else:
                parts.append(f"{dim}-{-off}")
        return f"{self.field}[{', '.join(parts)}]"


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic, comparison, or logical binary operation."""

    op: str
    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)

    @property
    def is_comparison(self) -> bool:
        return self.op in COMPARE_OPS

    @property
    def is_logical(self) -> bool:
        return self.op in LOGICAL_OPS

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary minus, plus, or logical not."""

    op: str
    operand: Expr

    def children(self):
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class Ternary(Expr):
    """C-style conditional ``cond ? then : orelse``.

    Data-dependent branches in stencil code are expressed with this node;
    both sides are evaluated in hardware and the result selected, so the
    latency is ``max(then, orelse) + select``.
    """

    cond: Expr
    then: Expr
    orelse: Expr

    def children(self):
        return (self.cond, self.then, self.orelse)

    def __str__(self) -> str:
        return f"({self.cond} ? {self.then} : {self.orelse})"


@dataclass(frozen=True)
class Call(Expr):
    """A call to a standard math function."""

    func: str
    args: Tuple[Expr, ...]

    def __post_init__(self):
        arity = MATH_FUNCTIONS.get(self.func)
        if arity is None:
            raise ValueError(f"unknown function {self.func!r}")
        if arity != len(self.args):
            raise ValueError(
                f"{self.func} expects {arity} argument(s), "
                f"got {len(self.args)}")

    def children(self):
        return self.args

    def __str__(self) -> str:
        return f"{self.func}({', '.join(str(a) for a in self.args)})"


def unparse(node: Expr) -> str:
    """Render an AST back to parseable source text."""
    return str(node)
