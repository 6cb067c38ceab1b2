"""Operation and operand accounting (Sec. IX-A).

Computes the whole-program operation census, the off-chip operand
traffic under StencilFlow's perfect-reuse assumption (every input loaded
exactly once, every output written exactly once), and the resulting
arithmetic intensity. For the horizontal-diffusion program this
reproduces the paper's ``(87+41+2) IJK`` operations over
``9 IJK + 5 I`` operands ≈ 130/9 Op/operand = 65/18 Op/B.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.program import StencilProgram
from ..expr.analysis import OpCensus


@dataclass(frozen=True)
class OperandTraffic:
    """Off-chip traffic with perfect on-chip reuse.

    Attributes:
        read_operands: total elements read (each input once).
        write_operands: total elements written (each output once).
    """

    read_operands: int
    write_operands: int

    @property
    def total_operands(self) -> int:
        return self.read_operands + self.write_operands


def program_census(program: StencilProgram) -> OpCensus:
    """Per-cell operation census summed over all stencils."""
    total = OpCensus()
    for stencil in program.stencils:
        total += stencil.census
    return total


def arithmetic_ops_per_cell(program: StencilProgram) -> int:
    """Floating-point arithmetic per cell, the paper's way.

    Additions, multiplications, divisions and square roots count; min,
    max, comparisons and selects are excluded (Sec. IX-A counts
    ``87 + 41 + 2`` for horizontal diffusion, leaving out its 2 min and
    2 max operations).
    """
    counts = program_census(program)
    return counts.adds + counts.multiplies + counts.divides + counts.sqrts


def total_ops_per_cell(program: StencilProgram) -> int:
    """All countable FP ops per cell (incl. min/max), for Op/s figures."""
    return program_census(program).flops


def operand_traffic(program: StencilProgram) -> OperandTraffic:
    """Elements crossing the off-chip boundary, with perfect reuse."""
    reads = 0
    for spec in program.inputs.values():
        size = 1
        for extent in spec.shape(program.shape, program.index_names):
            size *= extent
        reads += size
    writes = len(program.outputs) * program.num_cells
    return OperandTraffic(read_operands=reads, write_operands=writes)


def arithmetic_intensity_ops_per_operand(program: StencilProgram) -> float:
    """Upper-bound arithmetic intensity in Op/operand (Sec. IX-A)."""
    traffic = operand_traffic(program)
    ops = arithmetic_ops_per_cell(program) * program.num_cells
    return ops / traffic.total_operands


def arithmetic_intensity_ops_per_byte(program: StencilProgram,
                                      element_bytes: int = 4) -> float:
    """Upper-bound arithmetic intensity in Op/B (Eq. 2)."""
    return (arithmetic_intensity_ops_per_operand(program)
            / element_bytes)


def operands_per_cycle(program: StencilProgram) -> float:
    """Average off-chip operands needed per steady-state cycle.

    The pipeline processes ``W`` cells per cycle, so the operand rate is
    the total traffic divided by ``N/W`` cycles. For horizontal
    diffusion this gives the paper's ~9 operands/cycle at W = 1.
    """
    traffic = operand_traffic(program)
    steady_cycles = program.num_cells / program.vectorization
    return traffic.total_operands / steady_cycles
