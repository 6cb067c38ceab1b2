"""Control-only simulation: exact timing with width-0 data streams.

Simulated *control flow* — cycle counts, stall counters, occupancy
high-water marks, continuity flags, deadlock behaviour, fault
accounting — never depends on the streamed values, only on the word
structure (how many words move where, when).  The control engine
exploits this: it is the batched engine with every stream narrowed to
**zero lanes**.  Word counts, channel capacities, latencies, credit
schedules, planner decisions and the window executor are all untouched
(a width-0 slab moves through the same rings with the same
bookkeeping), so every timing observable is bitwise identical to a
full run — at near-zero data cost.

This is what makes config-parallel exploration sound
(:func:`simulate_stacked`, used by ``explore(config_parallel=True)``):
a group of configuration points sharing one lowered program computes
the data **once** (the representative point's full simulation) and
re-times every other point with a control run, because outputs are
configuration-independent.  A point whose control flow diverges into a
failure (deadlock, cycle-cap, fault validation) raises exactly the
error its full simulation would have raised — the caller peels it off
to the ordinary per-point path.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.program import StencilProgram
from ..lowering import LoweringConfig, freeze_placement, lower
from .batched import (
    BatchedSimulator,
    BatchedSinkUnit,
    BatchedSourceUnit,
    BatchedStencilUnit,
)
from .engine import SimulationResult, SimulatorConfig


class _ControlCoords:
    """Coordinate-slab stand-in: control units never evaluate a
    stencil, so per-cell geometry and boundary masks are never built."""

    def __init__(self, domain: Tuple[int, ...]):
        self.domain = tuple(domain)
        self.coords = tuple(np.empty(0, dtype=np.int64)
                            for _ in domain)

    def boundary(self, full, width):
        return None


class ControlSourceUnit(BatchedSourceUnit):
    """Streams the input's word *structure* with zero-lane rows.

    The parent constructor still validates the data (the uint64 exact-
    range guard), so error parity with a full run is preserved."""

    def __init__(self, name: str, data: np.ndarray, vector_width: int,
                 out_channels: Sequence, words_per_cycle: float = 1.0):
        super().__init__(name, data, vector_width, out_channels,
                         words_per_cycle)
        self.rows = self.rows[:, :0]


class ControlStencilUnit(BatchedStencilUnit):
    """A stencil unit that moves words without computing values.

    All scheduling state (``init_words``, ``pop_start``, read-ahead,
    latency line) comes from the parent unchanged; the unit owns no
    data buffers, and its edge buffers are zero lanes wide."""

    def compute_words(self, w0: int, b: int) -> np.ndarray:
        return np.zeros((b, 0), dtype=self.line_dtype)


class ControlSinkUnit(BatchedSinkUnit):
    """Counts received words; the zero-lane rows carry no values to
    store (the scalar step's lane loop is naturally empty)."""

    def store_rows(self, rows: np.ndarray):
        self.received += rows.shape[0]


class ControlSimulator(BatchedSimulator):
    """The batched engine over width-0 streams: exact control flow
    (cycles, stalls, occupancy, deadlocks, faults) with no data."""

    def _coord_slabs(self):
        slabs = getattr(self, "_coords", None)
        if slabs is None:
            slabs = self._coords = _ControlCoords(self.program.shape)
        return slabs

    def _stream_width(self) -> int:
        return 0

    def _make_source(self, name: str, data: np.ndarray, outs):
        return ControlSourceUnit(name, data,
                                 self.program.vectorization, outs)

    def _make_stencil(self, stencil, ins, outs, latency: int):
        return ControlStencilUnit(self.program, stencil, ins, outs,
                                  latency, self._batch_cap(),
                                  coord_slabs=self._coord_slabs(),
                                  stream_meta=self._stream_meta)

    def _make_sink(self, name: str, channel, dtype):
        return ControlSinkUnit(name, channel, self.program.shape,
                               self.program.vectorization, dtype)

    def _make_profile(self, cycles, wall_seconds):
        profile = super()._make_profile(cycles, wall_seconds)
        import dataclasses
        return dataclasses.replace(profile, engine="control")


def simulate_control(program: StencilProgram,
                     inputs: Mapping[str, np.ndarray],
                     config: SimulatorConfig = None,
                     device_of: Optional[Mapping[str, int]] = None
                     ) -> SimulationResult:
    """Run the control engine to completion.

    The result's timing fields (``cycles``, ``stall_cycles``,
    ``steady_stall_cycles``, ``channel_occupancy``, continuity flags,
    ``fault_report``) are bitwise identical to a full simulation;
    ``outputs`` holds empty placeholders the caller replaces with a
    representative full run's data."""
    cfg = config or SimulatorConfig()
    artifact = lower(program, LoweringConfig(
        device_of=freeze_placement(device_of),
        network_latency=cfg.network_latency))
    sim = ControlSimulator(artifact.analysis, config,
                           device_of=dict(device_of or {}))
    return sim.run(inputs)


def simulate_stacked(program: StencilProgram,
                     inputs: Mapping[str, np.ndarray],
                     configs: Sequence[SimulatorConfig],
                     device_ofs: Optional[Sequence[
                         Optional[Mapping[str, int]]]] = None,
                     ) -> List[SimulationResult]:
    """Simulate one program under N configurations for the cost of
    ~one data pass: a full simulation of the first (representative)
    configuration plus a control run per remaining configuration,
    whose outputs are shared from the representative.

    Failures are per-point: an exception from any member's run
    propagates (the caller decides whether to peel the point off to an
    independent full simulation)."""
    from .engine import simulate
    if device_ofs is None:
        device_ofs = [None] * len(configs)
    if len(device_ofs) != len(configs):
        raise ValueError("device_ofs and configs length mismatch")
    results: List[SimulationResult] = []
    representative: Optional[SimulationResult] = None
    for config, device_of in zip(configs, device_ofs):
        if representative is None:
            representative = simulate(program, inputs, config, device_of)
            results.append(representative)
            continue
        timed = simulate_control(program, inputs, config, device_of)
        results.append(SimulationResult(
            outputs=representative.outputs,
            cycles=timed.cycles,
            expected_cycles=timed.expected_cycles,
            stall_cycles=timed.stall_cycles,
            steady_stall_cycles=timed.steady_stall_cycles,
            channel_occupancy=timed.channel_occupancy,
            output_continuous=timed.output_continuous,
            stencil_continuous=timed.stencil_continuous,
            fault_report=timed.fault_report,
            profile=timed.profile,
        ))
    return results
