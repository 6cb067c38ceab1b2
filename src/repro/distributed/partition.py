"""Partitioning stencil programs across multiple devices (Sec. III-B).

To scale beyond one chip's off-chip bandwidth, on-chip memory, and logic,
designs span multiple devices: some inter-stencil edges cross the
network, and inputs read on several devices are replicated into each
device's DRAM (Fig. 5).

The partitioner assigns stencils to devices in topological order,
greedily filling each device up to a resource budget — matching the
paper's linear chaining of devices through the cluster's optical switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.delay_buffers import BufferingAnalysis
from ..lowering import analysis_for
from ..core.program import StencilProgram
from ..errors import MappingError
from ..graph.dag import StencilGraph
from ..hardware.platform import FPGAPlatform, ResourceVector, STRATIX10
from ..hardware.resources import (
    ResourceEstimate,
    stencil_unit_resources,
)

#: Edge key: (src node id, dst node id, data name).
EdgeKey = Tuple[str, str, str]


@dataclass(frozen=True)
class Partition:
    """A placement of stencil units onto devices.

    Attributes:
        program: the partitioned program.
        device_of: stencil name -> device index (0-based).
        num_devices: number of devices used.
        cut_edges: dataflow edges crossing devices, each carried by a
            network stream.
        replicated_inputs: input name -> devices that need a DRAM copy.
    """

    program: StencilProgram
    device_of: Dict[str, int]
    num_devices: int
    cut_edges: Tuple[EdgeKey, ...]
    replicated_inputs: Dict[str, Tuple[int, ...]]

    def stencils_on(self, device: int) -> Tuple[str, ...]:
        return tuple(name for name, dev in self.device_of.items()
                     if dev == device)

    @property
    def is_single_device(self) -> bool:
        return self.num_devices == 1

    def network_streams_between(self, src_dev: int,
                                dst_dev: int) -> int:
        count = 0
        for (src, dst, _data) in self.cut_edges:
            if (self.device_of.get(_strip(src), -1) == src_dev
                    and self.device_of.get(_strip(dst), -1) == dst_dev):
                count += 1
        return count

    @property
    def link_element_bytes(self) -> int:
        """Size of the widest element a cut stream carries: what a
        link operand costs in bandwidth (4 when nothing is cut)."""
        return max((self.program.field_dtype(data).bytes
                    for _src, _dst, data in self.cut_edges), default=4)

    def required_link_operands_per_cycle(self) -> float:
        """Vector lanes crossing each device boundary per cycle."""
        width = self.program.vectorization
        worst = 0
        for boundary in range(self.num_devices - 1):
            streams = sum(
                1 for (src, dst, _d) in self.cut_edges
                if self.device_of.get(_strip(src), -1) <= boundary
                < self.device_of.get(_strip(dst), -1) + 1
                and self.device_of.get(_strip(src), -1) == boundary)
            worst = max(worst, streams)
        return worst * width


def _strip(node_id: str) -> str:
    return node_id.split(":", 1)[1]


def partition_program(program: StencilProgram,
                      platform: FPGAPlatform = STRATIX10,
                      max_devices: int = 8,
                      fill_fraction: float = 0.85,
                      analysis: Optional[BufferingAnalysis] = None,
                      resources: Optional[ResourceEstimate] = None
                      ) -> Partition:
    """Greedy topological partitioning under a resource budget.

    Stencils are placed in topological order; a new device opens when
    the current one would exceed ``fill_fraction`` of any available
    resource. Raises :class:`MappingError` when ``max_devices`` devices
    cannot hold the program, or when a single stencil unit alone
    overflows a device.  ``resources`` — the single-device estimate
    from the same analysis, when the caller holds it — supplies the
    per-stencil unit costs instead of re-deriving them.
    """
    analysis = analysis or analysis_for(program)
    graph = analysis.graph
    order = graph.stencil_topological_order()
    budget = platform.available.scaled(fill_fraction)

    device_of: Dict[str, int] = {}
    used = ResourceVector()
    device = 0
    for name in order:
        unit = resources.per_stencil[name] if resources is not None \
            else stencil_unit_resources(program, name, analysis)
        if not unit.fits_in(budget):
            raise MappingError(
                f"stencil {name!r} alone exceeds the per-device budget "
                f"on {platform.name}")
        candidate = used + unit
        if not candidate.fits_in(budget):
            device += 1
            if device >= max_devices:
                raise MappingError(
                    f"program needs more than {max_devices} devices on "
                    f"{platform.name}")
            used = unit
        else:
            used = candidate
        device_of[name] = device

    return _finalize(program, graph, device_of, device + 1)


def contiguous_device_split(program: StencilProgram,
                            devices: int) -> Dict[str, int]:
    """A naive fig14-style placement: cut the stencil pipeline into
    ``devices`` contiguous groups in program order.  Shared by the CLI
    (``--devices``) and the engine benchmarks; use
    :func:`partition_program` for resource-driven placement."""
    if devices < 1:
        raise MappingError(f"device count must be >= 1, got {devices}")
    names = program.stencil_names
    per_device = -(-len(names) // devices)
    return {name: idx // per_device for idx, name in enumerate(names)}


def partition_fixed(program: StencilProgram,
                    device_of: Dict[str, int],
                    graph: Optional[StencilGraph] = None) -> Partition:
    """Wrap an explicit placement into a :class:`Partition`
    (``graph``: the program's DAG, when the caller already holds it)."""
    missing = set(program.stencil_names) - set(device_of)
    if missing:
        raise MappingError(f"placement missing stencils: {sorted(missing)}")
    if graph is None:
        graph = StencilGraph(program)
    num_devices = max(device_of.values()) + 1
    return _finalize(program, graph, dict(device_of), num_devices)


def _finalize(program: StencilProgram, graph: StencilGraph,
              device_of: Dict[str, int], num_devices: int) -> Partition:
    cut: List[EdgeKey] = []
    for edge in graph.edges:
        src_kind, src_name = edge.src.split(":", 1)
        dst_kind, dst_name = edge.dst.split(":", 1)
        if src_kind != "stencil" or dst_kind != "stencil":
            continue
        if device_of[src_name] != device_of[dst_name]:
            cut.append((edge.src, edge.dst, edge.data))

    replicated: Dict[str, Tuple[int, ...]] = {}
    for name in program.inputs:
        devices: Set[int] = set()
        for consumer in program.consumers_of(name):
            devices.add(device_of[consumer])
        if devices:
            replicated[name] = tuple(sorted(devices))

    return Partition(
        program=program,
        device_of=device_of,
        num_devices=num_devices,
        cut_edges=tuple(sorted(cut)),
        replicated_inputs=replicated,
    )


def edge_latency_map(partition: Partition,
                     network_latency: int) -> Dict[EdgeKey, int]:
    """Per-edge extra latency for the buffering-analysis stage."""
    return {key: network_latency for key in partition.cut_edges}


def check_network_feasible(partition: Partition,
                           platform: FPGAPlatform = STRATIX10,
                           frequency_mhz: Optional[float] = None,
                           element_bytes: Optional[int] = None) -> float:
    """Verify link bandwidth covers the cut streams; returns headroom.

    The paper chains devices with two 40 Gbit/s links; the vectorization
    width of cross-device programs is capped by this bandwidth
    (Sec. VI-B). Returns available/required (>1 means feasible);
    raises :class:`MappingError` when infeasible.  Links are priced at
    the widest cut stream's element size unless ``element_bytes`` says
    otherwise.
    """
    required = partition.required_link_operands_per_cycle()
    if required == 0:
        return float("inf")
    available = platform.network_words_per_cycle(
        element_bytes or partition.link_element_bytes, frequency_mhz)
    headroom = available / required
    if headroom < 1.0:
        raise MappingError(
            f"network-bound: cut streams need {required:.1f} operands/"
            f"cycle, links provide {available:.1f} "
            f"(headroom {headroom:.2f})")
    return headroom
