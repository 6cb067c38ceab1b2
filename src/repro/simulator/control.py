"""Control-only simulation: exact timing with width-0 data streams.

Simulated *control flow* — cycle counts, stall counters, occupancy
high-water marks, continuity flags, deadlock behaviour — never
depends on the streamed values, only on the word
structure (how many words move where, when).  The control engine
exploits this: it is the batched engine with every stream narrowed to
**zero lanes**.  Word counts, channel capacities, latencies, credit
schedules, planner decisions and the window executor are all untouched
(a width-0 slab moves through the same rings with the same
bookkeeping), so every timing observable is bitwise identical to a
full run — at near-zero data cost.

This is how every exploration sweep measures
(:func:`repro.explore.explorer.measure`): outputs are
configuration-independent, so a full run adds only the chance of a
data-dependent failure, and only a program whose data can fail
(:func:`data_can_fail`) computes the data, **once**.  A machine whose
control flow diverges into a failure (deadlock, cycle-cap) raises exactly the error its full simulation would have
raised; the explorer re-runs it in full so the report carries the
full run's failure and forensics.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

import numpy as np

from ..core.program import StencilProgram
from ..expr.ast_nodes import Call, IndexVar, Literal, Ternary
from ..lowering import LoweringConfig, freeze_placement, lower
from .batched import (
    BatchedSimulator,
    BatchedSinkUnit,
    BatchedSourceUnit,
    BatchedStencilUnit,
    CoordSlabs,
)
from .engine import SimulationResult, SimulatorConfig


class _ControlCoords(CoordSlabs):
    """Coordinate slabs without cells: control units never evaluate a
    stencil, so per-cell geometry and boundary masks are never built
    (read schedules still are)."""

    def __init__(self, domain: Tuple[int, ...]):
        super().__init__(domain)
        self.coords = tuple(np.empty(0, dtype=np.int64)
                            for _ in domain)

    def boundary(self, full, width):
        return None


class ControlSourceUnit(BatchedSourceUnit):
    """Streams the input's word *structure* with zero-lane rows.

    The parent constructor still validates the data (the uint64 exact-
    range guard), so error parity with a full run is preserved."""

    def words(self, w0: int, count: int) -> np.ndarray:
        return np.empty((count, 0), dtype=self.data.dtype)


class ControlStencilUnit(BatchedStencilUnit):
    """A stencil unit that moves words without computing values.

    All scheduling state (``init_words``, ``pop_start``, read-ahead,
    latency line) comes from the parent unchanged; the unit owns no
    data buffers, and its edge buffers are zero lanes wide."""

    def compute_words(self, w0: int, b: int, out=None) -> np.ndarray:
        return np.zeros((b, 0), dtype=self.line_dtype)


class ControlSinkUnit(BatchedSinkUnit):
    """Counts received words; the zero-lane rows carry no values to
    store (the scalar step's lane loop is naturally empty)."""

    def store_rows(self, rows: np.ndarray):
        self.received += rows.shape[0]


class ControlSimulator(BatchedSimulator):
    """The batched engine over width-0 streams: exact control flow
    (cycles, stalls, occupancy, deadlocks) with no data."""

    _COORD_SLABS = _ControlCoords

    def _stream_width(self) -> int:
        return 0

    def _make_source(self, name: str, data: np.ndarray, outs):
        return ControlSourceUnit(name, data,
                                 self.program.vectorization, outs)

    def _make_stencil(self, stencil, ins, outs, latency: int):
        return ControlStencilUnit(self.program, stencil, ins, outs,
                                  latency, self._batch_cap(),
                                  coord_slabs=self._coord_slabs,
                                  stream_meta=self._stream_meta)

    def _make_sink(self, name: str, channel, dtype):
        return ControlSinkUnit(name, channel, self.program.shape,
                               self.program.vectorization, dtype)

    def _make_profile(self, cycles, wall_seconds):
        profile = super()._make_profile(cycles, wall_seconds)
        import dataclasses
        return dataclasses.replace(profile, engine="control")

    #: A control run only reads schedules: sweeps persist every
    #: machine's outcome in the ``ResultCache``, so one published here
    #: would never be read — it would only grow a resident worker.
    _PUBLISHES_SCHEDULE = False


def simulate_control(program: StencilProgram,
                     inputs: Mapping[str, np.ndarray],
                     config: SimulatorConfig = None,
                     device_of: Optional[Mapping[str, int]] = None
                     ) -> SimulationResult:
    """Run the control engine to completion.

    The result's timing fields (``cycles``, ``stall_cycles``,
    ``steady_stall_cycles``, ``channel_occupancy``, continuity flags)
    are bitwise identical to a full simulation;
    ``outputs`` holds empty placeholders the caller replaces with a
    representative full run's data."""
    cfg = config or SimulatorConfig()
    artifact = lower(program, LoweringConfig(
        device_of=freeze_placement(device_of),
        network_latency=cfg.network_latency))
    sim = ControlSimulator(artifact.analysis, config,
                           device_of=dict(device_of or {}))
    return sim.run(inputs)


def data_can_fail(program: StencilProgram) -> bool:
    """Whether a full simulation of ``program`` can raise where its
    control run cannot, i.e. whether a sweep needs its data pass.

    A value-dependent raise needs integers: an integer-typed field,
    input or stencil result (``batched.py::BatchedSinkUnit.store_rows``,
    ``units.py::SinkUnit.step``, the int ``out_dtype`` conversion of
    ``compile.py::ArrayCompiledStencil.__call__``, the demoted streams
    of ``batched.py::float_leaky_streams``); ``i``/``j``/``k`` lanes
    (``compile.py::_check_add``/``_check_sub``/``_check_mul`` raising
    ``_int_overflow``); an operation on integer literals alone (int64
    ternary lanes, or unbounded Python ints, as ``floor``/``ceil``/
    ``round`` make in the scalar engine); or an integer literal beyond
    2**53, which NumPy may fail to convert.  Bool arithmetic is
    rejected by ``expr/typecheck.py``.
    """
    def int_literal(node) -> bool:
        return isinstance(node, Literal) and isinstance(node.value, int)

    if any(program.field_dtype(name).is_integer
           for name in (*program.inputs, *program.stencil_names)):
        return True
    for stencil in program.stencils:
        for node in stencil.ast.walk():
            operands = ((node.then, node.orelse)
                        if isinstance(node, Ternary) else node.children())
            if (isinstance(node, IndexVar)
                    or (int_literal(node) and abs(node.value) > 2 ** 53)
                    or (isinstance(node, Call)
                        and node.func in ("floor", "ceil", "round"))
                    or (operands and all(map(int_literal, operands)))):
                return True
    return False
