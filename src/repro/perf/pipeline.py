"""Pipeline performance model — Eq. 1 plus the hardware models.

Every StencilFlow architecture is fully pipelined with initiation
interval I = 1, so the cycles to process N inputs are ``C = L + I*N``
(Eq. 1), with N the iteration count divided by the vectorization width
and L the accumulated initialization/compute latency from the buffering
analysis. Runtime follows from the modeled clock; sustained performance
additionally honours the memory-crossbar model when the design is
bandwidth-bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.delay_buffers import BufferingAnalysis
from ..lowering import analysis_for
from ..core.program import StencilProgram
from ..distributed.partition import (
    Partition,
    check_network_feasible,
    edge_latency_map,
)
from ..hardware import calibration as cal
from ..hardware.bandwidth import BandwidthModel
from ..hardware.frequency import design_frequency_mhz
from ..hardware.platform import FPGAPlatform, STRATIX10
from ..hardware.resources import ResourceEstimate, estimate_resources
from . import intensity


@dataclass(frozen=True)
class PerformanceReport:
    """Modeled execution of one program on one FPGA platform.

    Attributes:
        program_name: the program.
        latency_cycles: L of Eq. 1.
        steady_cycles: N (iteration count / W).
        frequency_mhz: modeled clock after place-and-route pressure.
        memory_throughput_factor: <= 1; fraction of the pipeline rate the
            memory system sustains (1.0 when compute-bound).
        ops_per_cell: FP operations per cell (incl. min/max).
        resources: the design's resource estimate.
    """

    program_name: str
    num_cells: int
    vectorization: int
    latency_cycles: int
    steady_cycles: int
    frequency_mhz: float
    memory_throughput_factor: float
    ops_per_cell: int
    resources: ResourceEstimate

    @property
    def expected_cycles(self) -> int:
        """C = L + I*N with I = 1 (Eq. 1), before memory throttling."""
        return self.latency_cycles + self.steady_cycles

    @property
    def throttled_cycles(self) -> float:
        """Cycles including stalls induced by memory starvation."""
        return (self.latency_cycles
                + self.steady_cycles / self.memory_throughput_factor)

    @property
    def runtime_seconds(self) -> float:
        return self.throttled_cycles / (self.frequency_mhz * 1e6)

    @property
    def runtime_us(self) -> float:
        return self.runtime_seconds * 1e6

    @property
    def total_ops(self) -> int:
        return self.ops_per_cell * self.num_cells

    @property
    def gops(self) -> float:
        return self.total_ops / self.runtime_seconds / 1e9

    @property
    def latency_fraction(self) -> float:
        """Share of cycles spent initializing (paper: ~0.7% for hdiff)."""
        return self.latency_cycles / self.expected_cycles


def model_performance(program: StencilProgram,
                      platform: FPGAPlatform = STRATIX10,
                      analysis: Optional[BufferingAnalysis] = None,
                      bandwidth: Optional[BandwidthModel] = None,
                      frequency_mhz: Optional[float] = None,
                      infinite_bandwidth: bool = False,
                      memory_efficiency: float = 1.0,
                      resources: Optional[ResourceEstimate] = None
                      ) -> PerformanceReport:
    """Model a single-device execution of ``program`` on ``platform``.

    Args:
        program: the stencil program (with its vectorization factor).
        platform: target device.
        analysis: pre-computed buffering analysis (recomputed if omitted).
        bandwidth: crossbar model (defaults to the platform's).
        frequency_mhz: clock override; modeled from utilization if
            omitted.
        infinite_bandwidth: simulate memory-less operation by feeding
            constants (the paper's Stratix 10* row of Tab. II).
        memory_efficiency: extra derating of the served bandwidth for
            workload-specific access patterns (e.g. horizontal
            diffusion's mixed read/write streams, Tab. II).
        resources: the design's resource estimate on ``platform`` from
            the same analysis, when the caller already holds it.
    """
    analysis = analysis or analysis_for(program)
    if resources is None:
        resources = estimate_resources(program, platform, analysis)
    f = frequency_mhz if frequency_mhz is not None else \
        design_frequency_mhz(resources)

    if infinite_bandwidth:
        factor = 1.0
    else:
        model = bandwidth or BandwidthModel.for_platform(platform)
        rate = intensity.operands_per_cycle(program)
        served = model.effective_gbs(
            rate, f, vector_width=program.vectorization)
        served *= memory_efficiency
        requested = model.requested_gbs(rate, f)
        factor = min(1.0, served / requested) if requested else 1.0

    return PerformanceReport(
        program_name=program.name,
        num_cells=program.num_cells,
        vectorization=program.vectorization,
        latency_cycles=analysis.pipeline_latency,
        steady_cycles=program.num_cells // program.vectorization,
        frequency_mhz=f,
        memory_throughput_factor=factor,
        ops_per_cell=intensity.total_ops_per_cell(program),
        resources=resources,
    )


def model_multi_device(program: StencilProgram,
                       partition: Partition,
                       platform: FPGAPlatform = STRATIX10,
                       network_latency: int = 32,
                       check_network: bool = True,
                       analysis: Optional[BufferingAnalysis] = None,
                       resources: Optional[ResourceEstimate] = None
                       ) -> PerformanceReport:
    """Model a partitioned execution across a device chain (Sec. III-B).

    All devices run the same global pipeline; cut edges add network
    latency to L. Multi-device bitstreams carry the SMI networking
    shell and close at a lower clock (Fig. 14/15's multi-node bars;
    see ``calibration.MULTI_NODE_FREQ_MHZ``). When the cut streams'
    bandwidth exceeds the links, throughput is throttled accordingly.

    ``analysis`` (and the ``resources`` estimated from it) let callers
    that already lowered the partitioned machine (the explorer's
    Pruner) price from the same artifacts; the default recomputes them
    from the partition's cut edges.
    """
    if analysis is None:
        analysis = analysis_for(
            program,
            edge_latency=edge_latency_map(partition, network_latency))
    if resources is None:
        resources = estimate_resources(program, platform, analysis)

    if partition.is_single_device:
        f = design_frequency_mhz(resources)
        network_factor = 1.0
    else:
        f = min(cal.MULTI_NODE_FREQ_MHZ, platform.fmax_mhz)
        required = partition.required_link_operands_per_cycle()
        available = platform.network_words_per_cycle(
            partition.link_element_bytes, f)
        network_factor = min(1.0, available / required) if required \
            else 1.0
        if check_network and network_factor < 1.0:
            check_network_feasible(partition, platform, f)

    bandwidth = BandwidthModel.for_platform(platform)
    rate = intensity.operands_per_cycle(program) / partition.num_devices
    served = bandwidth.effective_gbs(rate, f,
                                     vector_width=program.vectorization)
    requested = bandwidth.requested_gbs(rate, f)
    memory_factor = min(1.0, served / requested) if requested else 1.0

    return PerformanceReport(
        program_name=program.name,
        num_cells=program.num_cells,
        vectorization=program.vectorization,
        latency_cycles=analysis.pipeline_latency,
        steady_cycles=program.num_cells // program.vectorization,
        frequency_mhz=f,
        memory_throughput_factor=min(memory_factor, network_factor),
        ops_per_cell=intensity.total_ops_per_cell(program),
        resources=resources,
    )
