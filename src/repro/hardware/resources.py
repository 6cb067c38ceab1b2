"""FPGA resource estimation (reproducing Tab. I's utilization columns).

The estimator prices each stencil unit from its operation census
(hardened FP DSPs per add/mul, soft logic for comparisons and selects),
adds per-unit pipeline infrastructure, prices buffers into M20K blocks,
and derives flip-flops from the ALM count — constants calibrated against
the paper's reported utilizations in :mod:`repro.hardware.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.delay_buffers import BufferingAnalysis
from ..core.program import StencilProgram
from ..errors import MappingError
from . import calibration as cal
from .platform import FPGAPlatform, ResourceVector, STRATIX10

#: OpCensus field -> cost-table key.
_CENSUS_TO_OP = {
    "adds": "add",
    "multiplies": "mul",
    "divides": "div",
    "sqrts": "sqrt",
    "mins": "min",
    "maxs": "max",
    "comparisons": "cmp",
    "branches": "select",
    "other_calls": "other",
}


@dataclass(frozen=True)
class ResourceEstimate:
    """Estimated resource usage of one design on one platform."""

    design: ResourceVector
    platform: FPGAPlatform
    per_stencil: Dict[str, ResourceVector]

    @property
    def utilization(self) -> ResourceVector:
        return self.design.utilization(self.platform.available)

    @property
    def fits(self) -> bool:
        return self.design.fits_in(self.platform.available)

    def summary(self) -> str:
        u = self.utilization
        return (f"ALM {self.design.alm / 1e3:.0f}K ({u.alm:.1%}), "
                f"FF {self.design.ff / 1e3:.0f}K ({u.ff:.1%}), "
                f"M20K {self.design.m20k:.0f} ({u.m20k:.1%}), "
                f"DSP {self.design.dsp:.0f} ({u.dsp:.1%})")


def stencil_unit_resources(program: StencilProgram, stencil_name: str,
                           analysis: Optional[BufferingAnalysis] = None
                           ) -> ResourceVector:
    """Resources of one stencil unit (compute + its buffers)."""
    if analysis is None:
        # Deferred: repro.lowering imports this package's platform
        # module, which loads through repro.hardware.
        from ..lowering import analysis_for
        analysis = analysis_for(program)
    stencil = program.stencil(stencil_name)
    width = program.vectorization
    # Price the hardware the HLS compiler actually builds: common
    # subexpressions are shared (Sec. V-B notes fusion relies on this).
    counts = stencil.census_cse

    dsp = 0.0
    alm = 0.0
    for field_name, op in _CENSUS_TO_OP.items():
        n = getattr(counts, field_name) * width
        dsp += n * cal.DSP_PER_OP[op]
        alm += n * cal.ALM_PER_OP[op]

    # Pipeline infrastructure: control, counters, channel endpoints,
    # boundary predication per access per lane.
    n_accesses = sum(len(offs) for offs in stencil.accesses.values())
    n_channels = len(stencil.accessed_fields) + 1
    alm += cal.ALM_PER_STENCIL_UNIT
    alm += cal.ALM_PER_BOUNDARY_ACCESS * n_accesses * width
    alm += cal.ALM_PER_CHANNEL * n_channels

    # On-chip memory: internal buffers as shift registers in M20K.
    m20k = float(cal.M20K_PER_STENCIL_UNIT)
    buffering = analysis.internal[stencil_name]
    for field_name, buffer in buffering.buffers.items():
        bits = buffer.size * program.field_dtype(field_name).bits
        m20k += max(cal.M20K_MIN_PER_BUFFER,
                    -(-bits // cal.M20K_USABLE_BITS))

    ff = alm * cal.FF_PER_ALM
    return ResourceVector(alm=alm, ff=ff, m20k=m20k, dsp=dsp)


def delay_buffer_resources(program: StencilProgram,
                           buffer) -> ResourceVector:
    """Resources of one edge delay buffer (a stream FIFO in M20K)."""
    bits = (buffer.size * program.vectorization
            * program.field_dtype(buffer.data).bits)
    m20k = max(cal.M20K_MIN_PER_BUFFER,
               -(-bits // cal.M20K_USABLE_BITS))
    alm = float(cal.ALM_PER_CHANNEL)
    return ResourceVector(alm=alm, ff=alm * cal.FF_PER_ALM, m20k=m20k)


def estimate_resources(program: StencilProgram,
                       platform: FPGAPlatform = STRATIX10,
                       analysis: Optional[BufferingAnalysis] = None
                       ) -> ResourceEstimate:
    """Estimate the whole design's resources on ``platform``."""
    if analysis is None:
        from ..lowering import analysis_for
        analysis = analysis_for(program)
    per_stencil: Dict[str, ResourceVector] = {}
    total = ResourceVector()
    for stencil in program.stencils:
        unit = stencil_unit_resources(program, stencil.name, analysis)
        per_stencil[stencil.name] = unit
        total = total + unit

    # Delay buffers on edges (stream FIFOs in M20K).
    for buffer in analysis.delay_buffers.values():
        total = total + delay_buffer_resources(program, buffer)

    return ResourceEstimate(design=total, platform=platform,
                            per_stencil=per_stencil)


def check_fits(program: StencilProgram,
               platform: FPGAPlatform = STRATIX10,
               analysis: Optional[BufferingAnalysis] = None
               ) -> ResourceEstimate:
    """Estimate and raise :class:`MappingError` if the design overflows."""
    estimate = estimate_resources(program, platform, analysis)
    if not estimate.fits:
        raise MappingError(
            f"design does not fit on {platform.name}: "
            f"{estimate.summary()}")
    return estimate
