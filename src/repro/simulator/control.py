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

This is how every exploration sweep measures
(:func:`repro.explore.explorer.measure`): the machines of one lowered
program compute the data **once** (the representative's full
simulation, which is what can surface a data-dependent failure) and
every other machine is timed by a control run, because outputs are
configuration-independent.  A machine whose control flow diverges into
a failure (deadlock, cycle-cap, fault validation) raises exactly the
error its full simulation would have raised; the explorer re-runs it
in full so the report carries the full run's failure and forensics.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

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
