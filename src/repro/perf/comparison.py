"""Cross-platform comparison for the application study (Tab. II, Sec. IX).

The FPGA rows come from our pipeline + bandwidth models; the CPU/GPU rows
are bandwidth-roofline machines scaled by the paper's measured roofline
fractions (we cannot execute CUDA here — see DESIGN.md's substitution
table). Silicon efficiency (Sec. IX-C) divides by die area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.program import StencilProgram
from ..hardware import calibration as cal
from ..hardware.platform import (
    FPGAPlatform,
    LoadStorePlatform,
    P100,
    STRATIX10,
    V100,
    XEON_12C,
)
from . import intensity
from .pipeline import model_performance


@dataclass(frozen=True)
class PlatformResult:
    """One row of the Tab. II comparison."""

    platform: str
    runtime_us: float
    gops: float
    peak_bandwidth_gbs: Optional[float]
    roof_fraction: Optional[float]
    die_area_mm2: float = 0.0

    @property
    def silicon_efficiency(self) -> float:
        """GOp/s per mm^2 (Sec. IX-C); 0 when die area unknown."""
        if not self.die_area_mm2:
            return 0.0
        return self.gops / self.die_area_mm2


def loadstore_result(program: StencilProgram,
                     platform: LoadStorePlatform,
                     die_area_mm2: Optional[float] = None
                     ) -> PlatformResult:
    """Model a CPU/GPU execution from its measured roofline fraction."""
    ai = intensity.arithmetic_intensity_ops_per_byte(program)
    gops = platform.predicted_gops(ai)
    total_ops = (intensity.arithmetic_ops_per_cell(program)
                 * program.num_cells)
    runtime_us = total_ops / (gops * 1e9) * 1e6
    return PlatformResult(
        platform=platform.name,
        runtime_us=runtime_us,
        gops=gops,
        peak_bandwidth_gbs=platform.peak_bandwidth_gbs,
        roof_fraction=platform.hdiff_roof_fraction,
        die_area_mm2=(die_area_mm2 if die_area_mm2 is not None
                      else platform.die_area_mm2),
    )


def fpga_result(program: StencilProgram,
                platform: FPGAPlatform = STRATIX10,
                infinite_bandwidth: bool = False,
                memory_efficiency: float = 1.0) -> PlatformResult:
    """Model the FPGA execution with the full pipeline/bandwidth stack.

    Reported GOp/s uses the paper's arithmetic-only op count (excluding
    min/max) for comparability with its Tab. II.
    """
    report = model_performance(
        program, platform,
        infinite_bandwidth=infinite_bandwidth,
        memory_efficiency=memory_efficiency)
    arith_ops = (intensity.arithmetic_ops_per_cell(program)
                 * program.num_cells)
    runtime = report.runtime_seconds
    gops = arith_ops / runtime / 1e9
    ai = intensity.arithmetic_intensity_ops_per_byte(program)
    peak = None if infinite_bandwidth else platform.peak_bandwidth_gbs
    roof = None if infinite_bandwidth else \
        gops / (ai * platform.peak_bandwidth_gbs)
    name = platform.name + (" (infinite BW)" if infinite_bandwidth else "")
    return PlatformResult(
        platform=name,
        runtime_us=runtime * 1e6,
        gops=gops,
        peak_bandwidth_gbs=peak,
        roof_fraction=roof,
        die_area_mm2=platform.die_area_mm2,
    )


def hdiff_comparison_table(program: StencilProgram,
                           infinite_bw_program: Optional[StencilProgram]
                           = None) -> List[PlatformResult]:
    """Build the full Tab. II: FPGA (normal + infinite BW), CPU, GPUs.

    Args:
        program: horizontal diffusion at the benchmark vectorization
            (the paper uses W = 8).
        infinite_bw_program: variant used for the memory-less row (the
            paper builds W = 16); defaults to ``program`` at W = 16.
    """
    wide = infinite_bw_program or program.with_vectorization(16)
    return [
        fpga_result(program,
                    memory_efficiency=cal.HDIFF_MEMORY_EFFICIENCY),
        fpga_result(wide, infinite_bandwidth=True),
        loadstore_result(program, XEON_12C),
        loadstore_result(program, P100),
        loadstore_result(program, V100),
    ]
