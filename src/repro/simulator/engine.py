"""The machine description and the simulator entry points.

Every engine reads the machine a design maps to from one frozen
:class:`MachineSpec` (:func:`describe_machine`): one source per input,
one pipelined stencil unit per stencil, one sink per program output,
and a bounded FIFO on every edge — a network link where the placement
cuts it.  :func:`schedule_reads` is each stencil unit's streaming
schedule, which the scalar oracle and the planner both derive.

This machine is the reproduction's stand-in for the paper's FPGA: the
performance model ``C = L + I·N`` (Eq. 1), the deadlock behaviour of
Fig. 4, and the delay-buffer sizing of Sec. IV-B are all observable (and
tested) against it.

:attr:`SimulatorConfig.engine_mode` selects the engine
(:func:`make_simulator`): the scalar oracle
(:class:`~repro.simulator.oracle.Simulator`), which steps the machine
cycle by cycle, or the batched engine
(:mod:`repro.simulator.batched`) with identical observable behaviour,
which the default ``"auto"`` prefers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..analysis.delay_buffers import BufferingAnalysis
from ..core.fields import flatten_offset
from ..core.program import StencilProgram
from ..errors import DeadlockError, ValidationError
from ..graph.dag import StencilGraph
from ..lowering import (
    LoweringConfig,
    analysis_for,
    freeze_placement,
    lower,
    remote_edges,
)
from ..obs import metrics
from ..obs.profile import EngineProfile

ChannelKey = Tuple[str, str, str]


@dataclass
class SimulationResult:
    """Outcome of a completed simulation.

    Attributes:
        outputs: program outputs, shaped over the domain.
        cycles: total cycles until the last sink completed.
        expected_cycles: the Eq. 1 model prediction ``L + N/W`` for the
            same design (analysis latency + steady-state words).
        stall_cycles: per-unit total stall count.
        steady_stall_cycles: per-stencil stalls after its init phase —
            zero for a correctly buffered, source-fed design.
        channel_occupancy: per-channel high-water mark.
        profile: always-on plan-level engine statistics
            (:class:`~repro.obs.profile.EngineProfile`): which engine
            ran, wall time, and — for the batched engine — planner
            calls, planned windows and the slab passes that ran them.
            The cheap alternative to per-cycle tracing.
    """

    outputs: Dict[str, np.ndarray]
    cycles: int
    expected_cycles: int
    stall_cycles: Dict[str, int]
    steady_stall_cycles: Dict[str, int]
    channel_occupancy: Dict[str, int]
    output_continuous: Dict[str, bool] = field(default_factory=dict)
    stencil_continuous: Dict[str, bool] = field(default_factory=dict)
    profile: Optional[EngineProfile] = None

    @property
    def model_accuracy(self) -> float:
        """Measured/expected cycle ratio (1.0 = model exact)."""
        if self.expected_cycles == 0:
            return float("nan")
        return self.cycles / self.expected_cycles


@dataclass(frozen=True)
class SimulatorConfig:
    """Tunables of the simulated machine.

    Attributes:
        min_channel_depth: capacity added on top of each edge's computed
            delay buffer (hardware FIFOs have a minimum depth; Intel
            channels default to a small number of words).
        engine_mode: ``"scalar"``, ``"batched"``, ``"kernel"`` or
            ``"auto"`` (see :func:`resolve_engine_mode`).
        max_batch_words: upper bound on how many words the batched
            engine executes per planning step (no effect on results).
            The default keeps a slab and the temporaries computed from
            it in L2: 4096 words of 8 float64 lanes are 256 KiB.
        max_cycles: hard cap, guards against livelock in tests. ``None``
            derives a generous cap from the expected cycle count.
        deadlock_window: consecutive zero-progress cycles after which a
            deadlock is declared (covers in-flight network latency).
        channel_capacities: explicit per-edge capacity overrides; wins
            over the analysis. Used to demonstrate deadlocks with
            under-provisioned channels (Fig. 4).
        network_latency: cycles of propagation on inter-device links.
        network_words_per_cycle: every link's transfer rate cap.
    """

    min_channel_depth: int = 8
    max_cycles: Optional[int] = None
    deadlock_window: int = 256
    channel_capacities: Optional[Mapping[ChannelKey, int]] = None
    network_latency: int = 32
    network_words_per_cycle: float = 1.0
    engine_mode: str = "auto"
    max_batch_words: int = 4096


class EdgeSpec(NamedTuple):
    """One edge of a described machine.  ``capacity`` is its FIFO's:
    delay buffer plus minimum depth (or the override), plus on a link
    credits for the wire ``latency``; ``rate`` is a link's words per
    cycle (None, and ``latency`` 0, off a link)."""

    key: ChannelKey
    name: str
    capacity: int
    remote: bool
    rate: Optional[float]
    latency: int


@dataclass(frozen=True)
class MachineSpec:
    """The one concrete machine a design maps to (Sec. III-B, IV-B):
    program, graph, analysis, configuration, placement (sorted
    ``(stencil, device)`` pairs), every edge in ``graph.edges`` order
    (keyed by edge), the Eq. 1 cycle count ``expected`` and the cycle
    cap ``max_cycles``.  Every engine, the planner
    (:class:`~repro.simulator.plan.Machine`) and the content keys read
    it.  It checks nothing: a capacity below 1 raises when a run builds
    the machine."""

    program: StencilProgram
    graph: StencilGraph
    analysis: BufferingAnalysis
    config: SimulatorConfig
    placement: Tuple[Tuple[str, int], ...]
    edges: Dict[ChannelKey, EdgeSpec]
    expected: int
    max_cycles: int


def describe_machine(analysis, config: SimulatorConfig,
                     device_of: Optional[Mapping[str, int]]
                     ) -> MachineSpec:
    """The machine of ``analysis`` (or of a program, analyzed with
    defaults) under ``config`` and the placement ``device_of``: an edge
    is a network link exactly when :func:`~repro.lowering.remote_edges`
    says so."""
    if isinstance(analysis, StencilProgram):
        analysis = analysis_for(analysis)
    program, graph = analysis.program, analysis.graph
    remote = set(remote_edges(graph, device_of or {}))
    capacities = config.channel_capacities or {}
    edges = {}
    for edge in graph.edges:
        key = (edge.src, edge.dst, edge.data)
        buffer = analysis.delay_buffers.get(key)
        size = buffer.size if buffer is not None else 0
        depth = capacities.get(key, size + config.min_channel_depth)
        link = key in remote
        latency = config.network_latency if link else 0
        rate = config.network_words_per_cycle if link else None
        edges[key] = EdgeSpec(key, f"{edge.src}->{edge.dst}:{edge.data}",
                              depth + latency, link, rate, latency)
    expected = (analysis.pipeline_latency
                + program.num_cells // program.vectorization)
    return MachineSpec(
        program, graph, analysis, config,
        freeze_placement(device_of) or (), edges, expected,
        config.max_cycles if config.max_cycles is not None
        else 64 * expected + 100_000)


def schedule_reads(domain: Tuple[int, ...], width: int,
                   index_names: Sequence[str], accesses,
                   fields: Sequence[str]):
    """Per-access and per-field streaming schedule of a stencil unit.

    Shared by the scalar oracle's stencil unit and the planner's tables
    — the engines' equivalence invariant depends on both deriving the
    identical schedule.

    Returns ``(access_info, readahead, init_words, pop_start,
    min_flat)`` where ``access_info`` is a list of ``(access,
    full_offset, flat_offset)`` triples, ``readahead`` the per-field
    forward reach in words, ``init_words`` the unit's fill phase,
    ``pop_start`` the per-field step at which popping begins, and
    ``min_flat`` the furthest-back flattened offset per field.
    """
    access_info = []
    for access in accesses:
        by_dim = dict(zip(access.dims, access.offsets))
        full = tuple(by_dim.get(d, 0) for d in index_names)
        access_info.append((access, full, flatten_offset(full, domain)))
    readahead: Dict[str, int] = {}
    min_flat: Dict[str, int] = {}
    for field in fields:
        flats = [flat for access, _full, flat in access_info
                 if access.field == field]
        max_flat = max(flats) if flats else 0
        readahead[field] = max(0, -(-max(0, max_flat) // width))
        min_flat[field] = min(flats) if flats else 0
    init_words = max(readahead.values(), default=0)
    pop_start = {f: init_words - readahead[f] for f in fields}
    return access_info, readahead, init_words, pop_start, min_flat


def emit_run_metrics(profile: EngineProfile):
    """One metrics transaction per completed run — never per cycle,
    so the telemetry overhead contract (no-op when disabled, O(1)
    per run when enabled) holds for arbitrarily long simulations."""
    if not metrics.enabled():
        return
    engine = profile.engine
    metrics.counter("engine.runs", engine=engine).inc()
    metrics.counter("engine.cycles", engine=engine).inc(profile.cycles)
    metrics.histogram("engine.run_seconds", engine=engine) \
        .observe(profile.wall_seconds)
    if engine != "scalar":
        for name, count in (
                ("plans", profile.plan_count),
                ("scalar_fallback_cycles", profile.scalar_cycles),
                ("windows", profile.window_count),
                ("window_cycles", profile.window_cycles),
                ("drift_windows", profile.drift_windows),
                ("virtual_cycles", profile.virtual_cycles)):
            metrics.counter(f"engine.{name}").inc(count)
        sizes = metrics.histogram("engine.window_size_cycles")
        for size in profile.window_sizes:
            sizes.observe(float(size))


def resolve_input_array(program: StencilProgram,
                        inputs: Mapping[str, np.ndarray],
                        name: str, spec) -> np.ndarray:
    """Validate and broadcast one input array.

    Shared by every engine's build *and* the kernel engine's
    cache-hit path, so input validation errors are identical whether a
    compiled kernel exists or not."""
    if name not in inputs:
        raise ValidationError(f"missing input array {name!r}")
    data = np.asarray(inputs[name], dtype=spec.dtype.numpy)
    expected = spec.shape(program.shape, program.index_names)
    if data.shape != expected:
        raise ValidationError(
            f"input {name!r}: expected shape {expected}, "
            f"got {data.shape}")
    return _broadcast(data, spec.dims, program.shape,
                      program.index_names)


def deadlock_error(now: int, blocked, occupancy) -> DeadlockError:
    """The deadlock detector's error on cycle ``now``, from plain
    records: ``blocked`` holds ``(unit, reason, names of the units it
    waits on)`` for every unit not done, in machine order, and
    ``occupancy`` ``(channel, words, capacity)`` for every channel.
    The scalar oracle reads them off its units and graph, the
    batched planner off its counters; the structured
    :class:`~repro.faults.forensics.DeadlockReport` rides along as the
    error's ``report``."""
    from ..faults.forensics import build_deadlock_report
    detail = "; ".join(f"{name}: {reason}" for name, reason, _ in blocked)
    return DeadlockError(f"deadlock at cycle {now}: {detail}", cycle=now,
                         blocked_units=tuple(name for name, *_ in blocked),
                         report=build_deadlock_report(now, blocked,
                                                      occupancy))


def resolve_engine_mode(config: SimulatorConfig) -> str:
    """Resolve ``config.engine_mode`` to a concrete engine name.

    ``"auto"`` picks the batched engine for every supported
    configuration: fractional link rates batch through the closed-form
    credit schedule, integer-typed programs stream native int64 slabs
    (bit-exact to 2**63), and multi-device placements batch across the
    full in-flight ring.

    ``"kernel"`` selects the compiled-kernel engine, and only an
    explicit request does (:mod:`repro.simulator.kernel`): no state on
    disk changes what ``"auto"`` resolves to.
    """
    mode = config.engine_mode
    if mode not in ("auto", "scalar", "batched", "kernel"):
        raise ValidationError(
            f"unknown engine_mode {mode!r} "
            f"(expected 'auto', 'scalar', 'batched', or 'kernel')")
    if mode != "auto":
        return mode
    return "batched"


def make_simulator(analysis, config: SimulatorConfig = None,
                   device_of: Optional[Mapping[str, int]] = None):
    """Construct the simulator selected by ``config.engine_mode``: the
    scalar oracle (:class:`~repro.simulator.oracle.Simulator`), the
    batched or the kernel engine."""
    config = config or SimulatorConfig()
    resolved = resolve_engine_mode(config)
    if resolved == "kernel":
        from .kernel import KernelSimulator
        return KernelSimulator(analysis, config, device_of=device_of)
    if resolved == "batched":
        from .batched import BatchedSimulator
        return BatchedSimulator(analysis, config, device_of=device_of)
    from .oracle import Simulator
    return Simulator(analysis, config, device_of=device_of)


def placed_analysis(program: StencilProgram, config: SimulatorConfig,
                    device_of: Optional[Mapping[str, int]]
                    ) -> BufferingAnalysis:
    """``program``'s buffering analysis, lowered (through the artifact
    cache) with the link latencies the placement ``device_of`` adds."""
    return lower(program, LoweringConfig(
        device_of=freeze_placement(device_of),
        network_latency=config.network_latency)).analysis


def build_simulator(program: StencilProgram,
                    config: SimulatorConfig = None,
                    device_of: Optional[Mapping[str, int]] = None):
    """Lower ``program`` (:func:`placed_analysis`) and construct the
    configured simulator, unrun: the machine's description
    (``spec``), and for the batched engine its tables (``_machine``,
    which :func:`~repro.simulator.plan.plan` takes)."""
    analysis = placed_analysis(program, config or SimulatorConfig(),
                               device_of)
    return make_simulator(analysis, config, device_of=device_of)


def simulate(program: StencilProgram,
             inputs: Mapping[str, np.ndarray],
             config: SimulatorConfig = None,
             device_of: Optional[Mapping[str, int]] = None
             ) -> SimulationResult:
    """Analyze and simulate ``program`` over concrete inputs."""
    return build_simulator(program, config, device_of).run(inputs)


def _broadcast(array: np.ndarray, dims, domain, index_names) -> np.ndarray:
    shape = [1] * len(domain)
    for axis, name in enumerate(index_names):
        if name in dims:
            shape[axis] = domain[axis]
    return np.broadcast_to(array.reshape(shape), tuple(domain))
