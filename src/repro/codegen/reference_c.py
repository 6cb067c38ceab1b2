"""Sequential C reference code generation (Sec. VI-C).

Emits a plain C program that evaluates the stencils sequentially in
topological order with explicit loops — the verification counterpart to
the hardware kernels, mirroring DaCe's CPU-executed reference graphs.
"""

from __future__ import annotations

from typing import List

from ..core.dtypes import float32
from ..core.program import StencilDefinition, StencilProgram
from ..expr import cexpr
from ..expr.ast_nodes import FieldAccess
from ..graph.dag import StencilGraph


def generate_reference_c(program: StencilProgram) -> str:
    """Emit a self-contained C translation unit computing the program."""
    lines: List[str] = [
        "// Sequential reference generated by the StencilFlow "
        "reproduction.",
        "#include <math.h>",
        "#include <stdlib.h>",
        "",
        "static inline long clamp_idx(long idx, long extent) {",
        "  if (idx < 0) return 0;",
        "  if (idx >= extent) return extent - 1;",
        "  return idx;",
        "}",
        "",
    ]
    shape = program.shape
    names = program.index_names
    size_expr = " * ".join(str(extent) for extent in shape)

    signature_parts = []
    for name, spec in program.inputs.items():
        signature_parts.append(
            f"const {spec.dtype.ctype} *restrict {name}")
    for out in program.outputs:
        signature_parts.append(
            f"{program.field_dtype(out).ctype} *restrict out_{out}")
    lines.append(f"void {program.name}({', '.join(signature_parts)}) {{")

    graph = StencilGraph(program)
    order = graph.stencil_topological_order()
    for stencil_name in order:
        ctype = program.field_dtype(stencil_name).ctype
        lines.append(
            f"  {ctype} *{stencil_name} = malloc(sizeof({ctype}) * "
            f"({size_expr}));")
    lines.append("")

    for stencil_name in order:
        stencil = program.stencil(stencil_name)
        lines += _stencil_loops(program, stencil)
        lines.append("")

    for out in program.outputs:
        lines.append(
            f"  for (long c = 0; c < {size_expr}; ++c) "
            f"out_{out}[c] = {out}[c];")
    for stencil_name in order:
        lines.append(f"  free({stencil_name});")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _stencil_loops(program: StencilProgram,
                   stencil: StencilDefinition) -> List[str]:
    shape = program.shape
    names = program.index_names
    lines = [f"  // stencil {stencil.name}: {stencil.code}"]
    indent = "  "
    for name, extent in zip(names, shape):
        lines.append(f"{indent}for (long {name} = 0; {name} < {extent}; "
                     f"++{name}) {{")
        indent += "  "

    def access(node: FieldAccess) -> str:
        if not node.dims:
            return f"{node.field}[0]"
        field_shape = [dict(zip(names, shape))[d] for d in node.dims]
        index = ""
        for pos, (dim, off, extent) in enumerate(
                zip(node.dims, node.offsets, field_shape)):
            term = dim if off == 0 else f"({dim} {'+' if off > 0 else '-'} {abs(off)})"
            clamped = f"clamp_idx({term}, {extent})"
            index = f"({index} * {extent} + {clamped})" if index \
                else clamped
        return f"{node.field}[{index}]"

    single = program.field_dtype(stencil.name) == float32  # float math
    body = cexpr.render(stencil.ast, access, suffix="f" * single)
    linear = ""
    for dim, extent in zip(names, shape):
        linear = f"({linear} * {extent} + {dim})" if linear else dim
    lines.append(f"{indent}{stencil.name}[{linear}] = {body};")
    for _ in names:
        indent = indent[:-2]
        lines.append(f"{indent}}}")
    return lines
