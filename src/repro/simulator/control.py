"""Control-only simulation: exact timing, no data.

A control run is the batched engine's stage 1 alone
(:mod:`repro.simulator.plan`: simulated control flow never depends on
the streamed values): every timing observable is bitwise a full run's,
and no executor, unit, ring or output array is built.

This is how every exploration sweep measures
(:func:`repro.explore.explorer.measure`): outputs are
configuration-independent, so a full run adds only the chance of a
data-dependent failure, and only a program whose data can fail
(:func:`data_can_fail`) computes the data, **once**.  A machine whose
control flow diverges into a failure (deadlock, cycle-cap) raises
exactly the error its full simulation would have raised, forensics
included.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from ..core.program import StencilProgram
from ..expr.ast_nodes import Call, IndexVar, Literal, Ternary
from ..obs import clock
from ..obs.profile import EngineProfile
from .batched import exact_source
from .engine import (
    SimulationResult,
    SimulatorConfig,
    describe_machine,
    placed_analysis,
    resolve_input_array,
)
from .plan import Machine, plan


def simulate_control(program: StencilProgram,
                     inputs: Mapping[str, np.ndarray],
                     config: SimulatorConfig = None,
                     device_of: Optional[Mapping[str, int]] = None
                     ) -> SimulationResult:
    """The timing of a full simulation, planned and never executed: it
    lowers, describes the machine and plans, and builds no simulator.

    The result's timing fields (``cycles``, ``stall_cycles``,
    ``steady_stall_cycles``, ``channel_occupancy``, continuity flags)
    are bitwise identical to a full simulation's and its ``outputs``
    are empty; the inputs are checked as a full run checks them.  A
    machine's published schedule is read, and none is published."""
    config = config or SimulatorConfig()
    spec = describe_machine(placed_analysis(program, config, device_of),
                            config, device_of)
    began = clock.now()
    schedule = plan(Machine(spec))
    for name, field in spec.program.inputs.items():
        exact_source(name, resolve_input_array(spec.program, inputs,
                                               name, field))
    if schedule.failure is not None:
        raise schedule.failure
    return schedule.result(spec, {}, EngineProfile(
        engine="control", cycles=schedule.cycles,
        wall_seconds=clock.now() - began, **schedule.stats()))


def data_can_fail(program: StencilProgram) -> bool:
    """Whether a full simulation of ``program`` can raise where its
    control run cannot, i.e. whether a sweep needs its data pass.

    A value-dependent raise needs integers: an integer-typed field,
    input or stencil result (``batched.py::BatchedSinkUnit.store_rows``,
    ``oracle.py::SinkUnit.step``, the int ``out_dtype`` conversion of
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
