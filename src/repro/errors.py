"""Exception hierarchy for the StencilFlow reproduction.

All errors raised by the library derive from :class:`StencilFlowError`, so
user code can catch a single type. Sub-classes mirror the stages of the
stack: definition, parsing, analysis, mapping, simulation, code generation.
"""

from __future__ import annotations


class StencilFlowError(Exception):
    """Base class for all errors raised by this library."""


class DefinitionError(StencilFlowError):
    """An invalid stencil-program definition (bad field, shape, output...)."""


class ParseError(StencilFlowError):
    """A stencil code expression failed to parse."""

    def __init__(self, message: str, position: int = -1, source: str = ""):
        self.position = position
        self.source = source
        if position >= 0 and source:
            caret = " " * position + "^"
            message = f"{message}\n  {source}\n  {caret}"
        super().__init__(message)


class TypeCheckError(StencilFlowError):
    """A stencil expression is ill-typed."""


class GraphError(StencilFlowError):
    """The stencil DAG is malformed (cycles, unknown references, ...)."""


class AnalysisError(StencilFlowError):
    """Buffering or scheduling analysis failed."""


class DeadlockError(StencilFlowError):
    """A simulated dataflow architecture deadlocked.

    ``report`` carries the structured forensics
    (:class:`~repro.faults.forensics.DeadlockReport`): blocked-unit
    frontier, channel occupancies and the wait-for cycle.
    """

    def __init__(self, message: str, cycle: int = -1,
                 blocked_units: tuple = (), report=None):
        self.cycle = cycle
        self.blocked_units = tuple(blocked_units)
        self.report = report
        super().__init__(message)


class MappingError(StencilFlowError):
    """Hardware mapping failed (resources exceeded, partition invalid...)."""


class CodeGenError(StencilFlowError):
    """Code generation failed."""


class TransformationError(StencilFlowError):
    """A program transformation cannot be applied."""


class SimulationError(StencilFlowError):
    """The cycle-level simulator reached an invalid state."""


class ValidationError(StencilFlowError):
    """Functional validation between backends failed."""


class SweepInterrupted(BaseException):
    """A sweep was interrupted by SIGINT/SIGTERM.

    Deliberately *not* a :class:`StencilFlowError` (nor even an
    ``Exception``): the retry machinery and the CLI's exit-2 handler
    must never swallow an interrupt.  The explorer catches it only to
    write a final cache checkpoint, then re-raises; the CLI converts it to the conventional
    ``128 + signum`` exit code (130 for SIGINT, 143 for SIGTERM).
    """

    def __init__(self, signum: int):
        self.signum = signum
        super().__init__(f"interrupted by signal {signum}")


#: Public catch-all alias: user code (and the CLI's exit-code-2
#: handler) can catch every library error under one friendly name.
ReproError = StencilFlowError
