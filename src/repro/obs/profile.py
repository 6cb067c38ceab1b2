"""Engine self-description: per-run plan-level statistics.

Every simulation (scalar or batched) attaches an
:class:`EngineProfile` to ``SimulationResult.profile``.  For the
batched engine this is the plan-level story — how many windows the
planner cut the run into, how large they grew, what planning them
cost, and how many cycles were true scalar steps — which is the cheap
alternative to per-cycle tracing (``simulate_traced``'s ~60–90x
slowdown).

The profile is built **once at end of run** from counters the engine
already keeps, so it is always on and costs nothing on the hot path;
window sizes are recorded per executed window (never per cycle) and
capped at :data:`MAX_WINDOW_SAMPLES` samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Cap on retained per-window size samples; the aggregate counters
#: (``window_count``/``window_cycles``) remain exact past the cap.
MAX_WINDOW_SAMPLES = 256


@dataclass(frozen=True)
class EngineProfile:
    """Plan-level statistics for one simulation run."""

    engine: str                       #: "scalar", "batched", or "kernel"
    cycles: int                       #: total simulated cycles
    wall_seconds: float               #: engine wall time (obs clock)
    plan_count: int = 0               #: planner invocations
    scalar_cycles: int = 0            #: cycles stepped one-by-one
    window_count: int = 0             #: windows executed (slab passes)
    window_cycles: int = 0            #: cycles covered by windows
    #: Sizes (cycles) of the first executed windows, oldest first.
    window_sizes: Tuple[int, ...] = field(default_factory=tuple)
    #: Windows proved congruent modulo a *drifting*
    #: occupancy vector (ramp/drain transients batched in one pass).
    drift_windows: int = 0
    #: Cycles the planner stepped on counter state, over all its
    #: invocations (planner work; not simulated cycles).
    virtual_cycles: int = 0
    #: Bytes of the batched engine's stream rings (one per producing
    #: unit, shared by its out-edges), each distinct array counted once.
    ring_bytes: int = 0
    #: Ring rows written by slab stores: streams x words when every
    #: word is stored once (scalar-fallback pushes store one row per
    #: *edge* and show up as the excess).
    stored_words: int = 0
    #: Stencil units whose ``compute_words`` ran a compiled C kernel
    #: this run, and those of a bound machine that ran NumPy instead
    #: (outside the restricted class, failed compile, or discarded by
    #: the first-chunk check); both 0 when the machine was not bound.
    native_units: int = 0
    native_fallback_units: int = 0
    #: Seconds this run spent in ``cc`` (0.0 when the process had
    #: already compiled this machine's translation unit).
    native_compile_s: float = 0.0
    #: Compiled slab passes executed by the kernel engine this run
    #: (0 on a cold run, which interprets while it records).
    kernel_slabs: int = 0
    #: True when the kernel engine replayed a cached kernel (nothing
    #: was interpreted); False on cold/interpreted runs.
    kernel_cached: bool = False

    @property
    def batched_cycles(self) -> int:
        return max(self.cycles - self.scalar_cycles, 0)

    @property
    def scalar_fraction(self) -> float:
        """Share of cycles that fell back to scalar stepping."""
        if not self.cycles:
            return 0.0
        return self.scalar_cycles / self.cycles

    @property
    def slab_passes(self) -> int:
        """Slab passes executed: one per window."""
        return self.window_count

    @property
    def mean_batch(self) -> Optional[float]:
        """Average cycles retired per slab pass (batched engine)."""
        if not self.slab_passes:
            return None
        return self.batched_cycles / self.slab_passes

    @property
    def cycles_per_second(self) -> Optional[float]:
        if self.wall_seconds <= 0:
            return None
        return self.cycles / self.wall_seconds

    def to_json(self) -> dict:
        return {
            "engine": self.engine,
            "cycles": self.cycles,
            "wall_seconds": self.wall_seconds,
            "plan_count": self.plan_count,
            "scalar_cycles": self.scalar_cycles,
            "scalar_fraction": self.scalar_fraction,
            "mean_batch": self.mean_batch,
            "window_count": self.window_count,
            "window_cycles": self.window_cycles,
            "window_sizes": list(self.window_sizes),
            "drift_windows": self.drift_windows,
            "virtual_cycles": self.virtual_cycles,
            "ring_bytes": self.ring_bytes,
            "stored_words": self.stored_words,
            "native_units": self.native_units,
            "native_fallback_units": self.native_fallback_units,
            "native_compile_s": self.native_compile_s,
            "kernel_slabs": self.kernel_slabs,
            "kernel_cached": self.kernel_cached,
            "cycles_per_second": self.cycles_per_second,
        }

    def summary_lines(self) -> Tuple[str, ...]:
        lines = [f"engine {self.engine}: {self.cycles} cycles in "
                 f"{self.wall_seconds:.3f}s"]
        if self.engine == "kernel":
            if self.kernel_cached:
                lines.append(
                    f"  timing record replayed: {self.kernel_slabs} "
                    f"slab passes, 0 interpreted cycles")
            else:
                lines.append(
                    "  kernel cold run: interpreted below, timing "
                    "record cached for the next run")
        bound = self.native_units + self.native_fallback_units
        if bound:
            lines.append(
                f"  data: native {self.native_units}/{bound} units, "
                f"compile {self.native_compile_s:.2f} s")
        if self.engine in ("batched", "kernel") and not self.kernel_cached:
            mean = self.mean_batch
            detail = [f"mean batch {mean:.1f} cycles"] if mean else []
            if self.drift_windows:
                detail.append(f"{self.drift_windows} drift-congruent")
            lines.append(
                f"  {self.window_count} windows"
                + (f" ({', '.join(detail)})" if detail else "")
                + f" from {self.plan_count} planner calls on "
                  f"{self.virtual_cycles} virtual cycles, "
                  f"{self.scalar_cycles} scalar-step cycles "
                  f"({self.scalar_fraction:.1%})")
            lines.append(
                f"  {self.stored_words} words stored in "
                f"{self.ring_bytes / 2**20:.1f} MiB of stream rings")
        return tuple(lines)
