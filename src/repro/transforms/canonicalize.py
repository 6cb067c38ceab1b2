"""Canonicalization: the dataflow-cleanup pass applied before mapping.

Folds constants in every stencil, then applies aggressive stencil
fusion (the setting used for the paper's experiments, Sec. V-B).
"""

from __future__ import annotations

from dataclasses import replace

from ..core.program import StencilDefinition, StencilProgram
from ..expr.ast_nodes import unparse
from ..expr.folding import fold
from .stencil_fusion import aggressive_fusion


def fold_program(program: StencilProgram) -> StencilProgram:
    """Constant-fold every stencil's expression."""
    stencils = []
    for stencil in program.stencils:
        folded = fold(stencil.ast)
        stencils.append(StencilDefinition(
            name=stencil.name,
            code=unparse(folded),
            ast=folded,
            boundary=stencil.boundary,
        ))
    return replace(program, stencils=tuple(stencils))


def canonicalize(program: StencilProgram,
                 fuse: bool = True) -> StencilProgram:
    """Fold constants, then (optionally) fuse aggressively."""
    program = fold_program(program)
    if fuse:
        program = aggressive_fusion(program)
    return program

