"""StencilFusion — the domain-specific transformation of Sec. V-A/B.

On spatial architectures the schedule is already fully "fused" into one
global pipeline, so fusing two stencils does not reduce kernel count as
it would on a load/store machine (Fig. 11). Instead it:

* shortens the critical path by combining initialization phases,
* merges internal buffers for shared input fields,
* coalesces delay buffers into fewer, larger ones,
* increases common-subexpression opportunities, and
* coarsens nodes, improving the useful-logic ratio.

Applicability (the paper's heuristics): both stencils operate on the
same iteration space (always true in a stencil program), have matching
boundary-condition definitions, are connected by a data container ``u``
with ``deg(u) = 2`` (one producer, one consumer), and ``u`` is not
otherwise live (not a program output). We additionally require the
consumer to read the producer at a single offset, so inlining does not
replicate the producer's computation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

from ..core.boundary import BoundaryConditions
from ..core.program import StencilDefinition, StencilProgram
from ..errors import TransformationError
from ..expr.ast_nodes import unparse
from .shift import substitute_field


def can_fuse(program: StencilProgram, producer: str,
             consumer: str) -> Tuple[bool, str]:
    """Check the fusion heuristics; returns (ok, reason-if-not)."""
    names = set(program.stencil_names)
    if producer not in names or consumer not in names:
        return False, f"{producer!r} or {consumer!r} is not a stencil"
    if producer in program.outputs:
        return False, f"{producer!r} is a program output (u stays live)"
    consumers = program.consumers_of(producer)
    if consumers != (consumer,):
        return False, (f"{producer!r} feeds {consumers}, needs exactly "
                       f"one consumer (deg(u) = 2)")
    p_def = program.stencil(producer)
    c_def = program.stencil(consumer)
    offsets = c_def.accesses.get(producer, [])
    if len(offsets) != 1:
        return False, (f"{consumer!r} reads {producer!r} at "
                       f"{len(offsets)} offsets; fusion would replicate "
                       f"the producer")
    if not p_def.boundary.matches(c_def.boundary):
        return False, "boundary-condition definitions do not match"
    # Per-input boundaries for the producer's fields must not conflict
    # with conditions the consumer already declares.
    if not p_def.boundary.shrink:
        for field, condition in p_def.boundary.per_input.items():
            if (c_def.boundary.has_input(field)
                    and c_def.boundary.per_input[field] != condition):
                return False, (f"conflicting boundary for {field!r}")
    return True, ""


def fuse(program: StencilProgram, producer: str,
         consumer: str) -> StencilProgram:
    """Fuse ``producer`` into ``consumer``; returns the new program.

    The fused stencil keeps the consumer's name and position. Raises
    :class:`TransformationError` when the heuristics reject the pair.
    """
    ok, reason = can_fuse(program, producer, consumer)
    if not ok:
        raise TransformationError(
            f"cannot fuse {producer!r} into {consumer!r}: {reason}")
    p_def = program.stencil(producer)
    c_def = program.stencil(consumer)

    field_dims = {name: program.field_dims(name)
                  for name in set(p_def.accessed_fields)
                  | set(c_def.accessed_fields)}
    fused_ast = substitute_field(c_def.ast, producer, p_def.ast,
                                 field_dims)
    boundary = _merge_boundaries(p_def.boundary, c_def.boundary, producer)
    fused = StencilDefinition(
        name=consumer,
        code=unparse(fused_ast),
        ast=fused_ast,
        boundary=boundary,
    )
    stencils = tuple(
        fused if s.name == consumer else s
        for s in program.stencils if s.name != producer)
    return replace(program, stencils=stencils)


def _merge_boundaries(producer: BoundaryConditions,
                      consumer: BoundaryConditions,
                      producer_name: str) -> BoundaryConditions:
    if producer.shrink and consumer.shrink:
        return BoundaryConditions(shrink=True)
    merged = dict(consumer.per_input)
    merged.pop(producer_name, None)
    merged.update(producer.per_input)
    return BoundaryConditions(shrink=False, per_input=merged)


def fusion_candidates(program: StencilProgram
                      ) -> List[Tuple[str, str]]:
    """All (producer, consumer) pairs the heuristics accept."""
    out: List[Tuple[str, str]] = []
    for stencil in program.stencils:
        consumers = program.consumers_of(stencil.name)
        if len(consumers) == 1:
            ok, _reason = can_fuse(program, stencil.name, consumers[0])
            if ok:
                out.append((stencil.name, consumers[0]))
    return out


def aggressive_fusion(program: StencilProgram,
                      max_rounds: int = 100) -> StencilProgram:
    """Fuse until no candidate remains (the paper's benchmark setting).

    Fusion is confluent here because every step strictly reduces the
    stencil count; ``max_rounds`` guards against pathological inputs.
    """
    for _round in range(max_rounds):
        candidates = fusion_candidates(program)
        if not candidates:
            return program
        producer, consumer = candidates[0]
        program = fuse(program, producer, consumer)
    raise TransformationError(
        f"fusion did not converge in {max_rounds} rounds")
