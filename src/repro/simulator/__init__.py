"""Cycle-level spatial-dataflow simulator (the FPGA stand-in).

Several execution engines read one frozen machine description
(``engine.MachineSpec``: placement, every edge's FIFO, link rate and
latency, Eq. 1 and the cycle cap); ``SimulatorConfig.engine_mode``
selects ``"scalar"``, ``"batched"``, ``"kernel"``, or ``"auto"``, the
batched engine:

* the **scalar oracle** (:mod:`.oracle`, :class:`Simulator`) steps
  every unit once per cycle — simple, and the semantic reference; it
  shares no class with the other engines;
* the **batched engine** runs in two stages: the planner
  (:mod:`.plan`) steps windows of cycles on counters alone and proves
  how often each repeats, into a frozen ``Schedule`` of the run's
  timing and slab passes; the executor (:class:`BatchedSimulator`)
  only moves data, in NumPy slab passes with vectorized stencil
  evaluation, over channels and units wired from the planner's tables;
* the **kernel engine** (:class:`KernelSimulator`) records a batched
  run's timing as a content-addressed, data-only artifact and replays
  it on every later run of the machine with one channel-free pass over
  whole streams (``docs/KERNELS.md``);
* a **control run** (:func:`simulate_control`) is the planner alone
  on the machine description: exact timing with no simulator, unit,
  ring or output array — how an exploration sweep times every machine
  (plus one full data pass when :func:`~.control.data_can_fail`).

The batched and kernel engines evaluate eligible stencils through
**native compute** (:mod:`.native`) where a C compiler is on the path
and the arithmetic repays the compile; nothing simulated depends on it.

The batching invariant: **identical observable machine state at every
stall point**.  Outputs are bitwise identical and ``cycles``,
``stall_cycles``, channel occupancy high-water marks, continuity flags
and deadlock diagnostics (Fig. 4) match the scalar engine exactly: the
planner accounts every window from virtually stepped cycles with the
scalar engine's own bookkeeping rules (the cycle the deadlock detector
may fire on is a one-cycle plan), and the values a unit computes do
not depend on when it computes them.
"""

from .batched import (
    BatchedSimulator,
    BatchedSinkUnit,
    BatchedSourceUnit,
    BatchedStencilUnit,
)
from .channel import ArrayChannel, ArrayNetworkLink, RateLimiter
from .compile import ArrayCompiledStencil, CompiledStencil, compile_stencil
from .control import simulate_control
from .engine import (
    SimulationResult,
    SimulatorConfig,
    build_simulator,
    make_simulator,
    resolve_engine_mode,
    simulate,
)
from .kernel import (
    KernelSimulator,
    kernel_cache_stats,
    kernel_store_dir,
    reset_kernel_cache_stats,
)
from .oracle import (
    Channel,
    NetworkLink,
    Simulator,
    SinkUnit,
    SourceUnit,
    StencilUnit,
)

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
    "reset_kernel_cache_stats",
    "resolve_engine_mode",
    "simulate",
    "simulate_control",
]
