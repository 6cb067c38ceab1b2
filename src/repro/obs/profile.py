"""Engine self-description: per-run plan-level statistics.

Every simulation (scalar or batched) attaches an
:class:`EngineProfile` to ``SimulationResult.profile``.  For the
batched engine this is the plan-level story — how many windows the
planner cut the run into, how large they grew, what planning them
cost, and how many slab passes executed them.

The profile is built **once at end of run** from counters the engine
already keeps, so it is always on and costs nothing on the hot path;
window sizes are recorded per planned window (never per cycle) and
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

    engine: str     #: "scalar", "batched", "kernel", or "control"
    cycles: int                       #: total simulated cycles
    wall_seconds: float               #: engine wall time (obs clock)
    #: Planner invocations.  A replayed run (``schedule_replayed``)
    #: reports the recording run's, as it does ``virtual_cycles``; its
    #: ``window_*`` and ``drift_windows`` are the recording run's too,
    #: since it executes the same windows.
    plan_count: int = 0
    #: Cycles stepped one by one on units and channels: every cycle of
    #: the scalar engine, none of the others (the batched planner plans
    #: every cycle, the detector's too).
    scalar_cycles: int = 0
    window_count: int = 0             #: windows planned
    #: Slab passes that executed them (consecutive windows share one up
    #: to the batch cap, planned or replayed alike; 0 on a control run,
    #: which executes nothing).
    slab_passes: int = 0
    window_cycles: int = 0            #: cycles covered by windows
    #: Sizes (cycles) of the first executed windows, oldest first.
    window_sizes: Tuple[int, ...] = field(default_factory=tuple)
    #: Windows proved congruent modulo a *drifting*
    #: occupancy vector (ramp/drain transients batched in one pass).
    drift_windows: int = 0
    #: Cycles the planner stepped on counter state, over all its
    #: invocations (planner work; not simulated cycles).
    virtual_cycles: int = 0
    #: Wall seconds of this run's planning (``plan()``, two clock reads
    #: a run); 0.0 when it replayed a published schedule.
    plan_seconds: float = 0.0
    #: Bytes of the batched engine's stream rings (one per producing
    #: unit, shared by its out-edges), each distinct array counted once.
    ring_bytes: int = 0
    #: Bytes the data plane copied beyond each word's one store: live
    #: words moved to the front of their ring (no read copies).
    ring_copy_bytes: int = 0
    #: Ring rows written by slab stores: streams x words when every
    #: word is stored once (scalar-fallback pushes store one row per
    #: *edge* and show up as the excess).
    stored_words: int = 0
    #: Stencil units that computed a chunk on a compiled C kernel this
    #: run, and those of a bound machine that ran NumPy only (outside
    #: the restricted class, failed or unfinished compile, or discarded
    #: by the first-chunk check); both 0 when the machine was not bound.
    native_units: int = 0
    native_fallback_units: int = 0
    #: Chunks of bound units computed on NumPy while their compile ran.
    native_pending_chunks: int = 0
    #: Seconds of a ``cc`` build that landed during this run (it runs on
    #: a background thread, off the critical path; 0.0 if none did).
    native_compile_s: float = 0.0
    #: Compiled slab passes executed by the kernel engine this run
    #: (0 on a cold run, which interprets while it records).
    kernel_slabs: int = 0
    #: True when the kernel engine replayed a cached kernel (nothing
    #: was interpreted); False on cold/interpreted runs.
    kernel_cached: bool = False
    #: True when the batched engine executed the window schedule an
    #: earlier run of this machine published, instead of planning.
    schedule_replayed: bool = False

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
            "slab_passes": self.slab_passes,
            "window_cycles": self.window_cycles,
            "window_sizes": list(self.window_sizes),
            "drift_windows": self.drift_windows,
            "virtual_cycles": self.virtual_cycles,
            "plan_seconds": self.plan_seconds,
            "ring_bytes": self.ring_bytes,
            "ring_copy_bytes": self.ring_copy_bytes,
            "stored_words": self.stored_words,
            "native_units": self.native_units,
            "native_fallback_units": self.native_fallback_units,
            "native_pending_chunks": self.native_pending_chunks,
            "native_compile_s": self.native_compile_s,
            "kernel_slabs": self.kernel_slabs,
            "kernel_cached": self.kernel_cached,
            "schedule_replayed": self.schedule_replayed,
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
                f"{self.native_pending_chunks} pending chunks, "
                f"compile {self.native_compile_s:.2f} s")
        if self.engine in ("batched", "kernel") and not self.kernel_cached:
            mean = self.mean_batch
            detail = [f"mean batch {mean:.1f} cycles"] if mean else []
            if self.drift_windows:
                detail.append(f"{self.drift_windows} drift-congruent")
            lines.append(
                f"  {self.window_count} windows"
                + (f" in {self.slab_passes} slab passes"
                   if self.slab_passes < self.window_count else "")
                + (f" ({', '.join(detail)})" if detail else "")
                + f" from {self.plan_count} planner calls on "
                  f"{self.virtual_cycles} virtual cycles"
                + (" (schedule replayed)" if self.schedule_replayed
                   else f" in {self.plan_seconds * 1e3:.1f} ms")
                + f", {self.scalar_cycles} scalar-step cycles "
                  f"({self.scalar_fraction:.1%})")
            lines.append(
                f"  {self.stored_words} words stored in "
                f"{self.ring_bytes / 2**20:.1f} MiB of stream rings, "
                f"{self.ring_copy_bytes / 2**20:.1f} MiB copied")
        return tuple(lines)
