"""Static analyses over stencil expression ASTs.

Provides access extraction (which fields are read at which offsets), the
floating-point operation census used for performance accounting
(Sec. IX-A), and free-variable queries.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .ast_nodes import (
    BinaryOp,
    Call,
    Expr,
    FieldAccess,
    IndexVar,
    Literal,
    Ternary,
    UnaryOp,
)


def accessed_fields(node: Expr) -> Set[str]:
    """Names of all fields read by the expression."""
    return {n.field for n in node.walk() if isinstance(n, FieldAccess)}


def field_accesses(node: Expr) -> Dict[str, List[Tuple[int, ...]]]:
    """Map each accessed field to its list of distinct offsets, sorted.

    Offsets are in the field's own dimensions. Sorting makes the result
    deterministic for buffer-analysis consumers.

    >>> from .parser import parse
    >>> field_accesses(parse("a[i-1,j,k] + a[i+1,j,k] + b[i,k]"))
    {'a': [(-1, 0, 0), (1, 0, 0)], 'b': [(0, 0)]}
    """
    result: Dict[str, Set[Tuple[int, ...]]] = defaultdict(set)
    for n in node.walk():
        if isinstance(n, FieldAccess):
            result[n.field].add(n.offsets)
    return {name: sorted(offs) for name, offs in sorted(result.items())}


def field_access_dims(node: Expr) -> Dict[str, Tuple[str, ...]]:
    """Map each accessed field to the index dims used in its subscripts."""
    result: Dict[str, Tuple[str, ...]] = {}
    for n in node.walk():
        if isinstance(n, FieldAccess):
            previous = result.setdefault(n.field, n.dims)
            if previous != n.dims:
                raise ValueError(
                    f"field {n.field!r} accessed with inconsistent "
                    f"dimensions {previous} and {n.dims}")
    return result


def index_vars(node: Expr) -> Set[str]:
    """Iteration indices used as values (outside subscripts)."""
    return {n.name for n in node.walk() if isinstance(n, IndexVar)}


@dataclass
class OpCensus:
    """Count of operations in an expression or whole program (Sec. IX-A).

    The paper's accounting conventions: subtractions count as additions,
    square root counts as one operation, ternaries count as data-dependent
    branches when the condition reads data, comparisons feed branches.
    """

    adds: int = 0
    multiplies: int = 0
    divides: int = 0
    sqrts: int = 0
    mins: int = 0
    maxs: int = 0
    other_calls: int = 0
    comparisons: int = 0
    branches: int = 0
    data_dependent_branches: int = 0

    @property
    def flops(self) -> int:
        """Floating-point operations counted the paper's way.

        Additions, multiplications, divisions, square roots, and min/max
        each count as one; comparisons and selects are excluded.
        """
        return (self.adds + self.multiplies + self.divides + self.sqrts
                + self.mins + self.maxs + self.other_calls)

    def __add__(self, other: "OpCensus") -> "OpCensus":
        return OpCensus(*(getattr(self, f) + getattr(other, f)
                          for f in _CENSUS_FIELDS))

    def __iadd__(self, other: "OpCensus") -> "OpCensus":
        for f in _CENSUS_FIELDS:
            setattr(self, f, getattr(self, f) + getattr(other, f))
        return self

    def scaled(self, factor: int) -> "OpCensus":
        """Census of ``factor`` repetitions of this expression."""
        return OpCensus(*(getattr(self, f) * factor
                          for f in _CENSUS_FIELDS))


_CENSUS_FIELDS = ("adds", "multiplies", "divides", "sqrts", "mins", "maxs",
                  "other_calls", "comparisons", "branches",
                  "data_dependent_branches")


def census(node: Expr) -> OpCensus:
    """Count the operations performed by one evaluation of ``node``."""
    out = OpCensus()
    for n in node.walk():
        if isinstance(n, BinaryOp):
            if n.op in ("+", "-"):
                out.adds += 1
            elif n.op == "*":
                out.multiplies += 1
            elif n.op == "/":
                out.divides += 1
            elif n.is_comparison:
                out.comparisons += 1
            # Logical && / || are folded into branch logic, not counted.
        elif isinstance(n, UnaryOp):
            if n.op == "-" and not isinstance(n.operand, Literal):
                # Negation of data is a subtract from zero; negating a
                # literal is just a constant and costs nothing.
                out.adds += 1
        elif isinstance(n, Call):
            if n.func in ("sqrt", "cbrt"):
                out.sqrts += 1
            elif n.func in ("min", "fmin"):
                out.mins += 1
            elif n.func in ("max", "fmax"):
                out.maxs += 1
            else:
                out.other_calls += 1
        elif isinstance(n, Ternary):
            out.branches += 1
            if _reads_data(n.cond):
                out.data_dependent_branches += 1
    return out


def _reads_data(node: Expr) -> bool:
    """Whether the expression depends on field data (vs. constants/indices)."""
    return any(isinstance(n, FieldAccess) for n in node.walk())


def depth(node: Expr) -> int:
    """Height of the expression tree (leaves have depth 1)."""
    kids = node.children()
    if not kids:
        return 1
    return 1 + max(depth(c) for c in kids)


def count_nodes(node: Expr) -> int:
    """Total number of AST nodes."""
    return sum(1 for _ in node.walk())
