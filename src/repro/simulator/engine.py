"""The cycle-level simulation engine.

Builds a dataflow machine from a :class:`BufferingAnalysis` — one source
unit per input, one pipelined unit per stencil, one sink per program
output, bounded channels on every edge — and steps it cycle by cycle
until completion, detecting deadlocks.

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

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..analysis.delay_buffers import BufferingAnalysis
from ..core.program import StencilProgram
from ..errors import DeadlockError, SimulationError, ValidationError
from ..expr.latency import critical_path
from ..faults.plan import FaultPlan
from ..faults.runtime import FaultReport, FaultRuntime
from ..graph.dag import StencilGraph, node_device
from ..lowering import (
    LoweringConfig,
    analysis_for,
    freeze_placement,
    lower,
)
from ..obs import clock, metrics
from ..obs.profile import EngineProfile
from .channel import Channel, NetworkLink
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
        fault_report: per-link/per-unit fault accounting when a
            :class:`~repro.faults.plan.FaultPlan` was configured;
            ``None`` on fault-free runs.
        profile: always-on plan-level engine statistics
            (:class:`~repro.obs.profile.EngineProfile`): which engine
            ran, wall time, and — for the batched engine — planner
            calls, executed windows, and scalar-step cycles.  The
            cheap alternative to per-cycle tracing.
    """

    outputs: Dict[str, np.ndarray]
    cycles: int
    expected_cycles: int
    stall_cycles: Dict[str, int]
    steady_stall_cycles: Dict[str, int]
    channel_occupancy: Dict[str, int]
    output_continuous: Dict[str, bool] = field(default_factory=dict)
    stencil_continuous: Dict[str, bool] = field(default_factory=dict)
    fault_report: Optional[FaultReport] = None
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
        engine_mode: ``"scalar"`` steps the machine cycle by cycle;
            ``"batched"`` uses the NumPy batched engine
            (:class:`~repro.simulator.batched.BatchedSimulator`), which
            produces identical observable state at a fraction of the
            cost; ``"auto"`` picks the batched engine for every
            supported configuration — fractional link rates, integer
            element types, and multi-device placements are all batched
            natively.
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
        fault_plan: deterministic fault-injection schedule
            (:class:`~repro.faults.plan.FaultPlan`): link outage /
            degradation windows and unit stall windows, honoured
            identically by both engines.  ``None`` (the default) keeps
            the machine fault-free and bitwise identical to a build
            without the fault layer.
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
    fault_plan: Optional[FaultPlan] = None

    def link_rate(self, key: ChannelKey) -> float:
        """The words-per-cycle rate of the link on edge ``key``."""
        overrides = self.network_link_rates
        if overrides is not None and key in overrides:
            return overrides[key]
        return self.network_words_per_cycle


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
        self.analysis: BufferingAnalysis = analysis
        self.program = analysis.program
        self.graph: StencilGraph = analysis.graph
        self.config = config or SimulatorConfig()
        self.device_of = dict(device_of or {})
        self.channels: Dict[ChannelKey, object] = {}
        self.links: List[NetworkLink] = []
        self.units: List[Unit] = []
        self.sinks: Dict[str, SinkUnit] = {}
        self.sources: Dict[str, SourceUnit] = {}
        self._faults: Optional[FaultRuntime] = None
        self._run_began: Optional[float] = None

    # -- machine construction ------------------------------------------------

    def _edge_is_remote(self, src: str, dst: str) -> bool:
        if not self.device_of:
            return False
        return (self._device_of_node(src) != self._device_of_node(dst))

    def _device_of_node(self, node_id: str) -> int:
        return node_device(self.graph, node_id, self.device_of)

    def _capacity(self, key: ChannelKey) -> int:
        overrides = self.config.channel_capacities
        if overrides is not None and key in overrides:
            return overrides[key]
        buffer = self.analysis.delay_buffers.get(key)
        size = buffer.size if buffer is not None else 0
        return size + self.config.min_channel_depth

    def _fifo_capacity(self, key: ChannelKey) -> int:
        """Capacity of the FIFO on edge ``key``: remote streams need
        credits covering the wire latency on top of the delay buffer."""
        remote = self._edge_is_remote(key[0], key[1])
        return self._capacity(key) + remote * self.config.network_latency

    # -- construction hooks (overridden by the batched engine) ---------------
    # ``data`` names the field the edge carries; the batched engine uses
    # it to pick the slab dtype (int64 for integer-typed streams).

    def _make_channel(self, key: ChannelKey, name: str, capacity: int,
                      data: str):
        return Channel(name, capacity)

    def _make_link(self, key: ChannelKey, name: str, capacity: int,
                   data: str):
        config = self.config
        return NetworkLink(name, capacity,
                           latency=config.network_latency,
                           words_per_cycle=config.link_rate(key))

    def _make_source(self, name: str, data: np.ndarray, outs):
        return SourceUnit(name, data, self.program.vectorization, outs)

    def _make_stencil(self, stencil, ins, outs, latency: int):
        return StencilUnit(self.program, stencil, ins, outs, latency)

    def _make_sink(self, name: str, channel, dtype):
        return SinkUnit(name, channel, self.program.shape,
                        self.program.vectorization, dtype)

    def _build(self, inputs: Mapping[str, np.ndarray]):
        # The profile's wall clock starts here: every engine's run()
        # opens with _build, so the timing rule is engine-independent.
        self._run_began = clock.now()
        program = self.program
        graph = self.graph
        config = self.config
        for edge in graph.edges:
            key = (edge.src, edge.dst, edge.data)
            name = f"{edge.src}->{edge.dst}:{edge.data}"
            capacity = self._fifo_capacity(key)
            if self._edge_is_remote(edge.src, edge.dst):
                link = self._make_link(key, name, capacity, edge.data)
                self.channels[key] = link
                self.links.append(link)
            else:
                self.channels[key] = self._make_channel(
                    key, name, capacity, edge.data)

        for name, spec in program.inputs.items():
            node_id = f"input:{name}"
            full = resolve_input_array(program, inputs, name, spec)
            outs = [self.channels[(e.src, e.dst, e.data)]
                    for e in graph.out_edges(node_id)]
            source = self._make_source(name, full, outs)
            self.sources[name] = source
            self.units.append(source)

        for stencil in program.stencils:
            node_id = f"stencil:{stencil.name}"
            ins = {}
            for e in graph.in_edges(node_id):
                ins[e.data] = self.channels[(e.src, e.dst, e.data)]
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

        plan = config.fault_plan
        if plan is not None and not plan.empty:
            self._faults = FaultRuntime(plan, graph, self.channels,
                                        self.links, self.units)

    # -- main loop -----------------------------------------------------------

    def _expected_cycles(self) -> int:
        return (self.analysis.pipeline_latency
                + self.program.num_cells // self.program.vectorization)

    def _max_cycles(self, expected: int) -> int:
        if self.config.max_cycles is not None:
            return self.config.max_cycles
        cap = 64 * expected + 100_000
        plan = self.config.fault_plan
        if plan is not None:
            # Every fault-window cycle can legitimately make zero
            # progress; widen the livelock cap accordingly.
            cap += plan.total_fault_cycles()
        return cap

    def _links_hold_words(self) -> bool:
        """The deadlock detector's link test on a zero-progress scalar
        cycle: it cannot fire while any link holds a word (``len``: in
        flight or delivered but not yet popped).  The planner's
        window-level twin is ``links_hold_words`` in
        :meth:`BatchedSimulator._plan_window`."""
        return any(len(link) for link in self.links)

    def _collect_result(self, cycles: int) -> SimulationResult:
        """Assemble the result record from terminal machine state (shared
        by the scalar, tracing, and batched engines)."""
        outputs = {name: sink.data for name, sink in self.sinks.items()}
        stalls = {u.name: getattr(u, "stall_cycles", 0) for u in self.units}
        steady = {u.name: u.stall_after_init for u in self.units
                  if hasattr(u, "stall_after_init")}
        occupancy = {c.name: c.max_occupancy
                     for c in self.channels.values()}
        wall = (clock.now() - self._run_began
                if self._run_began is not None else 0.0)
        profile = self._make_profile(cycles, wall)
        self._emit_run_metrics(profile)
        return SimulationResult(
            outputs=outputs,
            cycles=cycles,
            expected_cycles=self._expected_cycles(),
            stall_cycles=stalls,
            steady_stall_cycles=steady,
            channel_occupancy=occupancy,
            output_continuous={name: sink.streamed_continuously
                               for name, sink in self.sinks.items()},
            stencil_continuous={u.name: u.streamed_continuously
                                for u in self.units
                                if hasattr(u, "stall_after_init")},
            fault_report=(self._faults.report()
                          if self._faults is not None else None),
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

    def _emit_run_metrics(self, profile: EngineProfile):
        """One metrics transaction per completed run — never per cycle,
        so the telemetry overhead contract (no-op when disabled, O(1)
        per run when enabled) holds for arbitrarily long simulations."""
        if not metrics.enabled():
            return
        engine = profile.engine
        metrics.counter("engine.runs", engine=engine).inc()
        metrics.counter("engine.cycles", engine=engine) \
            .inc(profile.cycles)
        metrics.histogram("engine.run_seconds", engine=engine) \
            .observe(profile.wall_seconds)
        if engine in ("batched", "kernel"):
            metrics.counter("engine.plans").inc(profile.plan_count)
            metrics.counter("engine.scalar_fallback_cycles") \
                .inc(profile.scalar_cycles)
            metrics.counter("engine.windows").inc(profile.window_count)
            metrics.counter("engine.window_cycles") \
                .inc(profile.window_cycles)
            metrics.counter("engine.drift_windows") \
                .inc(profile.drift_windows)
            metrics.counter("engine.virtual_cycles") \
                .inc(profile.virtual_cycles)
            sizes = metrics.histogram("engine.window_size_cycles")
            for size in profile.window_sizes:
                sizes.observe(float(size))

    def _step_cycle(self, now: int, on_progress=None) -> bool:
        """Step every link and unit through one cycle, applying the
        fault plan when one is live.  Shared verbatim by the scalar
        run loop, the tracing engine, and the batched engine's scalar
        fallback — the single definition is what makes fault semantics
        engine-identical by construction."""
        faults = self._faults
        progressed = False
        if faults is None:
            for link in self.links:
                link.step(now)
            for unit in self.units:
                if unit.step(now):
                    progressed = True
                    if on_progress is not None:
                        on_progress(unit)
        else:
            faults.step_links(self.links, now)
            for unit in self.units:
                if faults.unit_faulted(unit, now):
                    faults.stall_unit(unit, now)
                    continue
                if unit.step(now):
                    progressed = True
                    if on_progress is not None:
                        on_progress(unit)
        return progressed

    def run(self, inputs: Mapping[str, np.ndarray]) -> SimulationResult:
        """Simulate to completion. Raises :class:`DeadlockError` if the
        machine wedges, :class:`SimulationError` on cycle-cap overrun."""
        self._build(inputs)
        expected = self._expected_cycles()
        max_cycles = self._max_cycles(expected)
        faults = self._faults
        now = 0
        idle_streak = 0
        while not all(u.done for u in self.units):
            if now >= max_cycles:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"(expected ~{expected})")
            progressed = self._step_cycle(now)
            if progressed:
                idle_streak = 0
            elif faults is not None and faults.any_active(now):
                # A fault window legitimately freezes the machine;
                # those cycles must not count toward the deadlock
                # detector (both engines apply this identically).
                idle_streak = 0
            else:
                idle_streak += 1
                if idle_streak >= self.config.deadlock_window and \
                        not self._links_hold_words():
                    raise deadlock_error(self.units, now, simulator=self)
            now += 1

        return self._collect_result(now)


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


def deadlock_error(units, now: int, prefix: str = None,
                   simulator=None) -> DeadlockError:
    """Build the standard deadlock diagnostic from blocked units.

    When the wedged ``simulator`` is passed, a structured
    :class:`~repro.faults.forensics.DeadlockReport` is attached as the
    error's ``report`` (the message string stays unchanged)."""
    blocked = [(u.name, u.describe_block()) for u in units if not u.done]
    detail = "; ".join(f"{n}: {r}" for n, r in blocked)
    if prefix is None:
        prefix = f"deadlock at cycle {now}: "
    report = None
    if simulator is not None:
        from ..faults.forensics import build_deadlock_report
        report = build_deadlock_report(simulator, now)
    return DeadlockError(prefix + detail, cycle=now,
                         blocked_units=tuple(n for n, _ in blocked),
                         report=report)


def resolve_engine_mode(config: SimulatorConfig,
                        device_of: Optional[Mapping[str, int]] = None,
                        program: Optional[StencilProgram] = None
                        ) -> str:
    """Resolve ``config.engine_mode`` to a concrete engine name.

    ``"auto"`` picks the batched engine for every supported
    configuration: fractional link rates batch through the closed-form
    credit schedule, integer-typed programs stream native int64 slabs
    (bit-exact to 2**63), and multi-device placements batch across the
    full in-flight ring.  ``device_of`` and ``program`` are accepted
    for call-site compatibility; selection no longer depends on them.

    ``"kernel"`` selects the compiled-kernel engine explicitly
    (:mod:`repro.simulator.kernel`); ``"auto"`` resolves to
    ``"batched"`` here, but :func:`make_simulator` upgrades an auto
    run to the kernel engine when a compiled kernel for the machine is
    already cached (the upgrade needs machine context this resolver
    deliberately does not take).
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
    program = analysis.program if isinstance(analysis, BufferingAnalysis) \
        else analysis
    resolved = resolve_engine_mode(config, device_of, program)
    if resolved == "kernel":
        from .kernel import KernelSimulator
        return KernelSimulator(analysis, config, device_of=device_of)
    if resolved == "batched":
        if config.engine_mode == "auto" \
                and isinstance(analysis, BufferingAnalysis):
            # Auto prefers the kernel engine when (and only when) a
            # compiled kernel for this exact machine is already on
            # disk: a serve miss-job on a warm cache compiles and
            # interprets nothing.  A cold cache stays on the batched
            # engine — auto never pays a compile the caller didn't
            # ask for.
            from .kernel import KernelSimulator, kernel_available
            if kernel_available(analysis, config, device_of):
                return KernelSimulator(analysis, config,
                                       device_of=device_of)
        from .batched import BatchedSimulator
        return BatchedSimulator(analysis, config, device_of=device_of)
    return Simulator(analysis, config, device_of=device_of)


def build_simulator(program: StencilProgram,
                    config: SimulatorConfig = None,
                    device_of: Optional[Mapping[str, int]] = None
                    ) -> Simulator:
    """Lower ``program`` (adding remote-edge latencies implied by the
    placement) and construct the configured simulator, unrun.  Useful
    when the caller wants to inspect engine internals — e.g. the
    batched engine's planner counters — after :meth:`Simulator.run`.

    Routes through :func:`repro.lowering.lower`, so repeated builds of
    the same machine (explore sweeps, repeated runs) share one
    buffering analysis via the content-addressed artifact cache."""
    cfg = config or SimulatorConfig()
    artifact = lower(program, LoweringConfig(
        device_of=freeze_placement(device_of),
        network_latency=cfg.network_latency))
    return make_simulator(artifact.analysis, config,
                          device_of=dict(device_of or {}))


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
    if not math.isfinite(rate) or rate <= 0:
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
