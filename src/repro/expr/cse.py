"""Common-subexpression analysis.

Sec. V-B lists increased CSE opportunity as one effect of stencil
fusion: inlining a producer that the consumer references several times
syntactically duplicates the producer's tree, which the optimizing HLS
compiler then shares. This module quantifies that: it counts the
operations a CSE-performing compiler actually instantiates, so resource
estimation and op-census consumers can price fused code fairly.
"""

from __future__ import annotations

from typing import Dict, Set

from .analysis import OpCensus, census
from .ast_nodes import (
    BinaryOp,
    Call,
    Expr,
    FieldAccess,
    Literal,
    Ternary,
    UnaryOp,
)


def distinct_subexpressions(node: Expr) -> Set[Expr]:
    """The set of structurally distinct subtrees (hash-consed view)."""
    return set(node.walk())


def shared_subexpressions(node: Expr) -> Dict[Expr, int]:
    """Non-leaf subtrees occurring more than once, with their counts."""
    counts: Dict[Expr, int] = {}
    for sub in node.walk():
        if sub.children():
            counts[sub] = counts.get(sub, 0) + 1
    return {sub: n for sub, n in counts.items() if n > 1}


def census_after_cse(node: Expr) -> OpCensus:
    """Operation census assuming perfect common-subexpression sharing.

    Each structurally distinct subtree is priced once, however many
    times it occurs — the hardware the HLS compiler builds for
    ``(x + y) * (x + y)`` contains a single adder.
    """
    total = OpCensus()
    for sub in distinct_subexpressions(node):
        total += _own_ops(sub)
    return total


def cse_savings(node: Expr) -> int:
    """FLOPs saved by sharing, vs. the syntactic census."""
    return census(node).flops - census_after_cse(node).flops


def _own_ops(node: Expr) -> OpCensus:
    """Census of this node only (children excluded)."""
    out = OpCensus()
    if isinstance(node, BinaryOp):
        if node.op in ("+", "-"):
            out.adds += 1
        elif node.op == "*":
            out.multiplies += 1
        elif node.op == "/":
            out.divides += 1
        elif node.is_comparison:
            out.comparisons += 1
    elif isinstance(node, UnaryOp):
        if node.op == "-" and not isinstance(node.operand, Literal):
            out.adds += 1
    elif isinstance(node, Call):
        if node.func in ("sqrt", "cbrt"):
            out.sqrts += 1
        elif node.func in ("min", "fmin"):
            out.mins += 1
        elif node.func in ("max", "fmax"):
            out.maxs += 1
        else:
            out.other_calls += 1
    elif isinstance(node, Ternary):
        out.branches += 1
        if any(isinstance(n, FieldAccess) for n in node.cond.walk()):
            out.data_dependent_branches += 1
    return out
