"""The cycle-level simulation engine.

Builds a dataflow machine from a :class:`BufferingAnalysis` — one source
unit per input, one pipelined unit per stencil, one sink per program
output, bounded channels on every edge — and steps it cycle by cycle
until completion, detecting deadlocks.  Every engine reads the machine
from one frozen :class:`MachineSpec` (:func:`describe_machine`).

This machine is the reproduction's stand-in for the paper's FPGA: the
performance model ``C = L + I·N`` (Eq. 1), the deadlock behaviour of
Fig. 4, and the delay-buffer sizing of Sec. IV-B are all observable (and
tested) against it.

:class:`Simulator` here is the scalar reference engine;
:mod:`repro.simulator.batched` provides the NumPy batched engine with
identical observable behaviour, selected via
:attr:`SimulatorConfig.engine_mode` (the default ``"auto"`` prefers it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from ..analysis.delay_buffers import BufferingAnalysis
from ..core.program import StencilProgram
from ..errors import DeadlockError, SimulationError, ValidationError
from ..graph.dag import StencilGraph
from ..lowering import (
    LoweringConfig,
    analysis_for,
    freeze_placement,
    lower,
    remote_edges,
)
from ..obs import clock, metrics
from ..obs.profile import EngineProfile
from .channel import Channel, NetworkLink, is_link_rate
from .units import SinkUnit, SourceUnit, StencilUnit, Unit

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
        network_words_per_cycle: per-link transfer rate cap.
        network_link_rates: per-edge words-per-cycle overrides keyed by
            ``(src, dst, data)``; wins over ``network_words_per_cycle``
            for that link. Overrides naming edges that are not remote
            under the placement are ignored (only links rate-limit).
    """

    min_channel_depth: int = 8
    max_cycles: Optional[int] = None
    deadlock_window: int = 256
    channel_capacities: Optional[Mapping[ChannelKey, int]] = None
    network_latency: int = 32
    network_words_per_cycle: float = 1.0
    network_link_rates: Optional[Mapping[ChannelKey, float]] = None
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


def describe_machine(analysis: BufferingAnalysis, config: SimulatorConfig,
                     device_of: Optional[Mapping[str, int]]
                     ) -> MachineSpec:
    """The machine of ``analysis`` under ``config`` and the placement
    ``device_of``: an edge is a network link exactly when
    :func:`~repro.lowering.remote_edges` says so."""
    program, graph = analysis.program, analysis.graph
    remote = set(remote_edges(graph, device_of or {}))
    capacities = config.channel_capacities or {}
    rates = config.network_link_rates or {}
    edges = {}
    for edge in graph.edges:
        key = (edge.src, edge.dst, edge.data)
        buffer = analysis.delay_buffers.get(key)
        size = buffer.size if buffer is not None else 0
        depth = capacities.get(key, size + config.min_channel_depth)
        link = key in remote
        latency = config.network_latency if link else 0
        rate = rates.get(key, config.network_words_per_cycle) if link else None
        edges[key] = EdgeSpec(key, f"{edge.src}->{edge.dst}:{edge.data}",
                              depth + latency, link, rate, latency)
    expected = (analysis.pipeline_latency
                + program.num_cells // program.vectorization)
    return MachineSpec(
        program, graph, analysis, config,
        freeze_placement(device_of) or (), edges, expected,
        config.max_cycles if config.max_cycles is not None
        else 64 * expected + 100_000)


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


class Simulator:
    """Cycle-level simulator of one StencilFlow design.

    Args:
        analysis: buffering analysis of the program (or a program, which
            will be analyzed with defaults).
        config: machine tunables.
        device_of: optional stencil-name → device-id placement; edges
            crossing devices become network links (Sec. III-B).
    """

    def __init__(self, analysis, config: SimulatorConfig = None,
                 device_of: Optional[Mapping[str, int]] = None):
        if isinstance(analysis, StencilProgram):
            analysis = analysis_for(analysis)
        self.spec = describe_machine(analysis, config or SimulatorConfig(),
                                     device_of)
        self.analysis, self.config = analysis, self.spec.config
        self.program, self.graph = analysis.program, analysis.graph
        self.channels: Dict[ChannelKey, object] = {}
        self.links: List[NetworkLink] = []
        self.units: List[Unit] = []
        self.sinks: Dict[str, SinkUnit] = {}
        self._run_began: Optional[float] = None

    # -- construction hooks (overridden by the batched engine) ---------------

    def _make_channel(self, edge: EdgeSpec):
        """The FIFO of ``edge``: a network link when it is remote."""
        if edge.remote:
            return NetworkLink(edge.name, edge.capacity,
                               latency=edge.latency,
                               words_per_cycle=edge.rate)
        return Channel(edge.name, edge.capacity)

    def _make_source(self, name: str, data: np.ndarray, outs):
        return SourceUnit(name, data, self.program.vectorization, outs)

    def _make_stencil(self, stencil, ins, outs, latency: int):
        return StencilUnit(self.program, stencil, ins, outs, latency)

    def _make_sink(self, name: str, channel, dtype):
        return SinkUnit(name, channel, self.program.shape,
                        self.program.vectorization, dtype)

    def _build(self, inputs: Mapping[str, np.ndarray]):
        program = self.program
        graph = self.graph
        for key, edge in self.spec.edges.items():
            self.channels[key] = self._make_channel(edge)
            if edge.remote:
                self.links.append(self.channels[key])

        for name, spec in program.inputs.items():
            node_id = f"input:{name}"
            full = resolve_input_array(program, inputs, name, spec)
            outs = [self.channels[(e.src, e.dst, e.data)]
                    for e in graph.out_edges(node_id)]
            self.units.append(self._make_source(name, full, outs))

        for stencil in program.stencils:
            node_id = f"stencil:{stencil.name}"
            ins = {e.data: self.channels[(e.src, e.dst, e.data)]
                   for e in graph.in_edges(node_id)}
            outs = [self.channels[(e.src, e.dst, e.data)]
                    for e in graph.out_edges(node_id)]
            latency = self.analysis.node_delays[node_id].compute_cycles
            self.units.append(self._make_stencil(stencil, ins, outs,
                                                 latency))

        for out in program.outputs:
            node_id = f"output:{out}"
            (edge,) = graph.in_edges(node_id)
            channel = self.channels[(edge.src, edge.dst, edge.data)]
            sink = self._make_sink(out, channel,
                                   program.field_dtype(out).numpy)
            self.sinks[out] = sink
            self.units.append(sink)

    # -- main loop -----------------------------------------------------------

    def _links_hold_words(self) -> bool:
        """The deadlock detector's link test on a zero-progress scalar
        cycle: it cannot fire while any link holds a word (``len``: in
        flight or delivered but not yet popped).  The planner's twin is
        ``links_hold_words`` in ``plan.py::_Planner._plan_window``."""
        return any(len(link) for link in self.links)

    def _collect_result(self, cycles: int) -> SimulationResult:
        """Assemble the result record from terminal machine state."""
        outputs = {name: sink.data for name, sink in self.sinks.items()}
        stalls = {u.name: getattr(u, "stall_cycles", 0) for u in self.units}
        steady = {u.name: u.stall_after_init for u in self.units
                  if hasattr(u, "stall_after_init")}
        occupancy = {c.name: c.max_occupancy
                     for c in self.channels.values()}
        wall = (clock.now() - self._run_began
                if self._run_began is not None else 0.0)
        profile = self._make_profile(cycles, wall)
        emit_run_metrics(profile)
        return SimulationResult(
            outputs=outputs,
            cycles=cycles,
            expected_cycles=self.spec.expected,
            stall_cycles=stalls,
            steady_stall_cycles=steady,
            channel_occupancy=occupancy,
            output_continuous={name: sink.streamed_continuously
                               for name, sink in self.sinks.items()},
            stencil_continuous={u.name: u.streamed_continuously
                                for u in self.units
                                if hasattr(u, "stall_after_init")},
            profile=profile,
        )

    def _make_profile(self, cycles: int,
                      wall_seconds: float) -> EngineProfile:
        """Per-run execution profile.  The scalar engine advances one
        cycle at a time, so every cycle is a scalar cycle; the batched
        engine overrides this with its plan/window statistics."""
        return EngineProfile(engine="scalar", cycles=cycles,
                             wall_seconds=wall_seconds,
                             scalar_cycles=cycles)

    def run(self, inputs: Mapping[str, np.ndarray]) -> SimulationResult:
        """Simulate to completion. Raises :class:`DeadlockError` if the
        machine wedges, :class:`SimulationError` on cycle-cap overrun."""
        # The profile's wall clock starts here, as every engine's does.
        self._run_began = clock.now()
        self._build(inputs)
        expected, max_cycles = self.spec.expected, self.spec.max_cycles
        now = 0
        idle_streak = 0
        while not all(u.done for u in self.units):
            if now >= max_cycles:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"(expected ~{expected})")
            for link in self.links:
                link.step(now)
            progressed = False
            for unit in self.units:
                if unit.step(now):
                    progressed = True
            if progressed:
                idle_streak = 0
            else:
                idle_streak += 1
                if idle_streak >= self.config.deadlock_window and \
                        not self._links_hold_words():
                    raise self._deadlock_error(now)
            now += 1

        return self._collect_result(now)

    def _deadlock_error(self, now: int) -> DeadlockError:
        """The detector's error, read off the wedged machine: a blocked
        stencil waits on the producers of its empty needed inputs, else
        (like a source) on the consumers of its full outputs — of all
        of them when none is full; a sink waits on its producer."""
        producer_of: Dict[int, str] = {}
        consumer_of: Dict[int, str] = {}
        for unit in self.units:
            for channel in getattr(unit, "out_channels", ()):
                producer_of[id(channel)] = unit.name
            for channel in getattr(unit, "in_channels", {}).values():
                consumer_of[id(channel)] = unit.name
            if hasattr(unit, "in_channel"):
                consumer_of[id(unit.in_channel)] = unit.name
        blocked = []
        for unit in self.units:
            if unit.done:
                continue
            if hasattr(unit, "in_channel"):
                waits = {producer_of.get(id(unit.in_channel), "?")}
            else:
                waits = set()
                if hasattr(unit, "in_channels"):
                    waits = {producer_of.get(id(unit.in_channels[f]), "?")
                             for f in unit.needed_fields()
                             if unit.in_channels[f].empty}
                outs = unit.out_channels
                waits = waits or {consumer_of.get(id(c), "?") for c in (
                    [c for c in outs if c.full] or outs)}
            blocked.append((unit.name, unit.describe_block(), waits))
        return deadlock_error(now, blocked, [
            (c.name, len(c), c.capacity) for c in self.channels.values()])


def resolve_input_array(program: StencilProgram,
                        inputs: Mapping[str, np.ndarray],
                        name: str, spec) -> np.ndarray:
    """Validate and broadcast one input array.

    Shared by every engine's ``_build`` *and* the kernel engine's
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
    The scalar engine reads them off its units and channels, the
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
                   device_of: Optional[Mapping[str, int]] = None
                   ) -> Simulator:
    """Construct the simulator selected by ``config.engine_mode``."""
    config = config or SimulatorConfig()
    resolved = resolve_engine_mode(config)
    if resolved == "kernel":
        from .kernel import KernelSimulator
        return KernelSimulator(analysis, config, device_of=device_of)
    if resolved == "batched":
        from .batched import BatchedSimulator
        return BatchedSimulator(analysis, config, device_of=device_of)
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
                    device_of: Optional[Mapping[str, int]] = None
                    ) -> Simulator:
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


def parse_link_rate_spec(text: str) -> Tuple[str, str, Optional[str],
                                             float]:
    """Parse one ``SRC:DST[:FIELD]=RATE`` per-link rate override.

    ``SRC``/``DST`` are bare stencil/field names (no ``stencil:`` /
    ``input:`` prefixes); ``RATE`` is a decimal or a ``p/q`` fraction
    (e.g. ``0.25`` or ``1/3``).  Returns ``(src, dst, field, rate)``
    with ``field`` ``None`` when the spec does not pin the data name.
    """
    if "=" not in text:
        raise ValidationError(
            f"invalid link-rate override {text!r} "
            f"(expected SRC:DST=RATE, e.g. b1:b3=1/2)")
    edge_text, _, rate_text = text.partition("=")
    parts = edge_text.split(":")
    if len(parts) not in (2, 3) or not all(parts):
        raise ValidationError(
            f"invalid link-rate override {text!r} "
            f"(expected SRC:DST=RATE or SRC:DST:FIELD=RATE)")
    try:
        if "/" in rate_text:
            num, _, den = rate_text.partition("/")
            rate = float(num) / float(den)
        else:
            rate = float(rate_text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(
            f"invalid link rate {rate_text!r} in {text!r} "
            f"(expected a decimal or a p/q fraction)")
    if not is_link_rate(rate):
        raise ValidationError(
            f"link rate must be a finite value > 0, "
            f"got {rate:g} in {text!r}")
    src, dst = parts[0], parts[1]
    return src, dst, parts[2] if len(parts) == 3 else None, rate


def resolve_link_rates(program: StencilProgram,
                       specs,
                       graph: Optional[StencilGraph] = None
                       ) -> Dict[ChannelKey, float]:
    """Resolve ``SRC:DST[:FIELD]=RATE`` specs to per-edge overrides.

    ``specs`` is an iterable of spec strings or of
    ``(spec_string, rate)`` pairs (the explorer's axis form).  Names
    match the bare node names of the program DAG; a spec that matches
    no edge raises :class:`ValidationError`.  The result keys edges by
    the simulator's ``(src, dst, data)`` channel identity, suitable
    for :attr:`SimulatorConfig.network_link_rates`.
    """
    if graph is None:
        from ..lowering import graph_for
        graph = graph_for(program)
    resolved: Dict[ChannelKey, float] = {}
    for item in specs:
        if isinstance(item, str):
            src, dst, data, rate = parse_link_rate_spec(item)
        else:
            spec, rate = item
            src, dst, data, _ = parse_link_rate_spec(f"{spec}={rate}")
        matched = False
        for edge in graph.edges:
            bare_src = edge.src.split(":", 1)[-1]
            bare_dst = edge.dst.split(":", 1)[-1]
            if bare_src == src and bare_dst == dst and \
                    (data is None or edge.data == data):
                key = (edge.src, edge.dst, edge.data)
                if key in resolved and resolved[key] != rate:
                    raise ValidationError(
                        f"conflicting link-rate overrides for edge "
                        f"{src}:{dst}:{edge.data} "
                        f"({resolved[key]:g} vs {rate:g})")
                resolved[key] = rate
                matched = True
        if not matched:
            raise ValidationError(
                f"link-rate override {src}:{dst}"
                f"{':' + data if data else ''} matches no edge of "
                f"{program.name!r}")
    return resolved


def _broadcast(array: np.ndarray, dims, domain, index_names) -> np.ndarray:
    shape = [1] * len(domain)
    for axis, name in enumerate(index_names):
        if name in dims:
            shape[axis] = domain[axis]
    return np.broadcast_to(array.reshape(shape), tuple(domain))
