"""Cycle-level spatial-dataflow simulator (the FPGA stand-in).

Several execution engines share one machine model:

* the **scalar engine** (:class:`Simulator`) steps every unit once per
  cycle — simple, and the semantic reference;
* the **batched engine** (:class:`BatchedSimulator`) plans, then
  executes.  Stage 1 (``plan``) steps windows of ``q`` cycles on its own
  counters (``q``: the LCM of the fractional-rate links' delivery
  periods, 1 without one), proves by state congruence how many times
  each window repeats (decision margins on channel, link and
  latency-line counters, timed-FIFO entries, phase boundaries, ring
  headroom, remaining words) and sums the run's timing into a
  schedule; stage 2 (``execute``) only moves data, in NumPy slab
  passes with vectorized stencil evaluation;
* the **kernel engine** (:class:`KernelSimulator`) records a batched
  run's control outcome as a content-addressed, data-only artifact
  and, on every later run of the same machine, replays that record and
  computes the outputs in one channel-free pass over whole streams —
  no planning, no per-cycle control (see ``docs/KERNELS.md``);
* a **control run** (:func:`simulate_control`) is the batched engine's
  stage 1 alone: exact timing with no unit, ring or output array, which
  is how an exploration sweep times every machine of a lowered program
  (plus one full data pass when :func:`~.control.data_can_fail`).

Where the stencil arithmetic is large enough to repay a ~0.2 s compile
and a C compiler (``cc``) is on the path, the batched and kernel
engines evaluate eligible stencils through **native compute**
(:mod:`.native`): one C translation unit per machine, built on a
background thread while the run computes on NumPy, then bound at
``BatchedStencilUnit.compute_words``, each kernel bitwise-validated
against the NumPy path on its first chunk and falling back to it for
good on any mismatch (``docs/KERNELS.md``, "Native compute").
Nothing simulated depends on it, and without ``cc`` everything runs on
NumPy.

The batching invariant: **identical observable machine state at every
stall point**.  Outputs are bitwise identical and ``cycles``,
``stall_cycles``, and channel occupancy high-water marks match the
scalar engine exactly; the cycle on which the deadlock detector may
fire is a one-cycle plan, stepped as the scalar engine steps it, so
deadlock detection (Fig. 4) and its diagnostics are unchanged.  Every
supported configuration batches: fractional-rate links (one window per
LCM of their delivery periods), integer-typed programs (native int64
slabs, exact to 2**63), and multi-device placements (a pass's
deliveries follow its producer's slab, so batches are bounded by
channel capacity rather than the wire latency).  ``SimulatorConfig.engine_mode`` selects ``"scalar"``,
``"batched"``, ``"kernel"``, or ``"auto"`` (the batched engine).
"""

from .batched import (
    BatchedSimulator,
    BatchedSinkUnit,
    BatchedSourceUnit,
    BatchedStencilUnit,
)
from .channel import (
    ArrayChannel,
    ArrayNetworkLink,
    Channel,
    NetworkLink,
    RateLimiter,
)
from .compile import ArrayCompiledStencil, CompiledStencil, compile_stencil
from .control import simulate_control
from .engine import (
    SimulationResult,
    Simulator,
    SimulatorConfig,
    build_simulator,
    make_simulator,
    parse_link_rate_spec,
    resolve_engine_mode,
    resolve_link_rates,
    simulate,
)
from .kernel import (
    KernelSimulator,
    kernel_cache_stats,
    kernel_store_dir,
    reset_kernel_cache_stats,
)
from .units import SinkUnit, SourceUnit, StencilUnit

__all__ = [
    "ArrayChannel",
    "ArrayCompiledStencil",
    "ArrayNetworkLink",
    "BatchedSimulator",
    "BatchedSinkUnit",
    "BatchedSourceUnit",
    "BatchedStencilUnit",
    "Channel",
    "CompiledStencil",
    "KernelSimulator",
    "NetworkLink",
    "RateLimiter",
    "SimulationResult",
    "Simulator",
    "SimulatorConfig",
    "SinkUnit",
    "SourceUnit",
    "StencilUnit",
    "build_simulator",
    "compile_stencil",
    "kernel_cache_stats",
    "kernel_store_dir",
    "make_simulator",
    "parse_link_rate_spec",
    "reset_kernel_cache_stats",
    "resolve_engine_mode",
    "resolve_link_rates",
    "simulate",
    "simulate_control",
]
