"""Expression AST to C rendering: the OpenCL kernels and the C
reference of :mod:`repro.codegen`, and the simulator's native compute
kernels (:mod:`repro.simulator.native`)."""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import CodeGenError
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

#: Math-function spelling in OpenCL C, where each is overloaded; C
#: spells the float variant with an ``f`` suffix (``sqrtf``).
_OPENCL_FUNCS = {
    "sqrt": "sqrt", "cbrt": "cbrt", "exp": "exp", "log": "log",
    "log2": "log2", "log10": "log10", "sin": "sin", "cos": "cos",
    "tan": "tan", "asin": "asin", "acos": "acos", "atan": "atan",
    "sinh": "sinh", "cosh": "cosh", "tanh": "tanh", "fabs": "fabs",
    "abs": "fabs", "floor": "floor", "ceil": "ceil", "round": "round",
    "min": "fmin", "max": "fmax", "fmin": "fmin", "fmax": "fmax",
    "pow": "pow", "atan2": "atan2", "fmod": "fmod",
}

AccessRenderer = Callable[[FieldAccess], str]
IndexRenderer = Callable[[str], str]
LiteralRenderer = Callable[[object], str]


def _opencl_literal(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{float(value)!r}f"


def render(node: Expr, access: AccessRenderer,
           index: IndexRenderer = lambda name: name,
           literal: Optional[LiteralRenderer] = None,
           suffix: str = "") -> str:
    """Render an expression as OpenCL C.

    Args:
        node: the AST.
        access: maps each field access to its C spelling (a tap
            variable, buffer index, or channel read temporary).
        index: maps an index variable to its C spelling.
        literal: maps a literal's Python value to its C spelling.  The
            default is OpenCL single precision (``1.5f``); callers
            generating double-precision C (the simulator's native
            compute kernels) pass their own renderer.
        suffix: appended to each math function (``"f"``: C's float
            variants, where a bare C call computes in double).
    """
    literal = literal or _opencl_literal

    def emit(node: Expr) -> str:
        if isinstance(node, Literal):
            return literal(node.value)
        if isinstance(node, IndexVar):
            return index(node.name)
        if isinstance(node, FieldAccess):
            return access(node)
        if isinstance(node, BinaryOp):
            return f"({emit(node.left)} {node.op} {emit(node.right)})"
        if isinstance(node, UnaryOp):
            return f"({node.op}{emit(node.operand)})"
        if isinstance(node, Ternary):
            return (f"({emit(node.cond)} ? {emit(node.then)} : "
                    f"{emit(node.orelse)})")
        if isinstance(node, Call):
            func = _OPENCL_FUNCS.get(node.func)
            if func is None:
                raise CodeGenError(f"no OpenCL spelling for {node.func!r}")
            return f"{func}{suffix}({', '.join(map(emit, node.args))})"
        raise CodeGenError(f"cannot render {type(node).__name__}")

    return emit(node)
