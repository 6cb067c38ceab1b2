"""Execution tracing for the cycle-level simulator.

Records channel occupancies and unit progress over time, producing the
data behind "why is this design stalling" investigations: high-water
marks, per-cycle occupancy series (sampled), and a stall timeline.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.program import StencilProgram
from ..errors import SimulationError, ValidationError
from .engine import (
    SimulationResult,
    Simulator,
    SimulatorConfig,
    deadlock_error,
)


@dataclass
class Trace:
    """Sampled execution trace of one simulation.

    Attributes:
        sample_every: cycles between samples.
        cycles: sampled cycle numbers.
        occupancy: channel name -> occupancy at each sample.
        progress: unit name -> cumulative progress flag count.
    """

    sample_every: int
    cycles: List[int] = field(default_factory=list)
    occupancy: Dict[str, List[int]] = field(default_factory=dict)
    progress: Dict[str, List[int]] = field(default_factory=dict)

    def peak_occupancy(self, channel: str) -> int:
        series = self.occupancy.get(channel, [])
        return max(series, default=0)

    def stalled_fraction(self, unit: str) -> float:
        """Fraction of samples in which the unit made no progress."""
        series = self.progress.get(unit, [])
        if len(series) < 2:
            return 0.0
        deltas = np.diff(series)
        return float(np.mean(deltas == 0))

    def summary(self) -> str:
        lines = ["trace summary:"]
        for channel, series in sorted(self.occupancy.items()):
            lines.append(f"  {channel}: peak {max(series, default=0)}")
        for unit in sorted(self.progress):
            lines.append(
                f"  {unit}: stalled {self.stalled_fraction(unit):.0%} "
                f"of samples")
        return "\n".join(lines)


class TracingSimulator(Simulator):
    """A :class:`Simulator` that records a :class:`Trace` while running.

    Per-cycle sampling requires scalar stepping, so this engine always
    runs the scalar loop regardless of ``config.engine_mode``.  An
    explicit ``"batched"`` request is an error (the batched engine
    skips the cycles a trace samples); the default ``"auto"`` is
    accepted with a warning, since ``"auto"`` would otherwise resolve
    to the batched engine.  For batched-run statistics use
    ``SimulationResult.profile`` instead of a trace.
    """

    def __init__(self, analysis, config: Optional[SimulatorConfig] = None,
                 device_of=None, sample_every: int = 16):
        config = config or SimulatorConfig()
        if config.engine_mode in ("batched", "kernel"):
            raise ValidationError(
                f"tracing requires scalar stepping: engine_mode "
                f"{config.engine_mode!r} cannot be traced per cycle "
                f"(use SimulationResult.profile for batched/kernel-run "
                f"statistics)")
        if config.engine_mode == "auto":
            warnings.warn(
                "tracing forces the scalar engine (engine_mode 'auto' "
                "would pick 'batched'); per-plan batched statistics "
                "are available on SimulationResult.profile",
                UserWarning, stacklevel=3)
        super().__init__(analysis, config, device_of)
        self.trace = Trace(sample_every=sample_every)

    def run(self, inputs) -> SimulationResult:
        # Wrap the parent loop: build, then step manually with sampling.
        self._build(inputs)
        trace = self.trace
        for channel in self.channels.values():
            trace.occupancy[channel.name] = []
        counters: Dict[str, int] = {}
        for unit in self.units:
            trace.progress[unit.name] = []
            counters[unit.name] = 0

        def count_progress(unit):
            counters[unit.name] += 1

        expected = self._expected_cycles()
        max_cycles = self._max_cycles(expected)
        faults = self._faults
        now = 0
        idle_streak = 0
        while not all(u.done for u in self.units):
            if now >= max_cycles:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles")
            progressed = self._step_cycle(now, on_progress=count_progress)
            if now % trace.sample_every == 0:
                trace.cycles.append(now)
                for channel in self.channels.values():
                    trace.occupancy[channel.name].append(len(channel))
                for unit in self.units:
                    trace.progress[unit.name].append(counters[unit.name])
            if progressed:
                idle_streak = 0
            elif faults is not None and faults.any_active(now):
                idle_streak = 0
            else:
                idle_streak += 1
                if idle_streak >= self.config.deadlock_window \
                        and not self._links_hold_words():
                    raise deadlock_error(self.units, now,
                                         prefix="deadlock (traced): ",
                                         simulator=self)
            now += 1

        return self._collect_result(now)


def simulate_traced(program: StencilProgram,
                    inputs: Mapping[str, np.ndarray],
                    config: Optional[SimulatorConfig] = None,
                    sample_every: int = 16
                    ) -> Tuple[SimulationResult, Trace]:
    """Simulate with tracing; returns (result, trace)."""
    simulator = TracingSimulator(program, config,
                                 sample_every=sample_every)
    result = simulator.run(inputs)
    return result, simulator.trace
