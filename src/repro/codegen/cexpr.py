"""Expression AST to OpenCL C rendering."""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import CodeGenError
from ..expr.ast_nodes import (
    BinaryOp,
    Call,
    Expr,
    FieldAccess,
    IndexVar,
    Literal,
    Ternary,
    UnaryOp,
)

#: Math-function spelling in OpenCL C.
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
           literal: Optional[LiteralRenderer] = None) -> str:
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
    """
    if literal is None:
        literal = _opencl_literal
    if isinstance(node, Literal):
        return literal(node.value)
    if isinstance(node, IndexVar):
        return index(node.name)
    if isinstance(node, FieldAccess):
        return access(node)
    if isinstance(node, BinaryOp):
        left = render(node.left, access, index, literal)
        right = render(node.right, access, index, literal)
        return f"({left} {node.op} {right})"
    if isinstance(node, UnaryOp):
        operand = render(node.operand, access, index, literal)
        return f"({node.op}{operand})"
    if isinstance(node, Ternary):
        return (f"({render(node.cond, access, index, literal)} ? "
                f"{render(node.then, access, index, literal)} : "
                f"{render(node.orelse, access, index, literal)})")
    if isinstance(node, Call):
        func = _OPENCL_FUNCS.get(node.func)
        if func is None:
            raise CodeGenError(f"no OpenCL spelling for {node.func!r}")
        args = ", ".join(render(a, access, index, literal)
                         for a in node.args)
        return f"{func}({args})"
    raise CodeGenError(f"cannot render {type(node).__name__}")
