"""StencilFlow reproduction.

A from-scratch Python implementation of *StencilFlow: Mapping Large
Stencil Programs to Distributed Spatial Computing Systems* (CGO 2021):
the stencil-program DSL, buffering/deadlock analysis, program
transformations, code generation, and a cycle-level spatial-dataflow
simulator standing in for the paper's FPGA testbed.

Quickstart::

    from repro import api

    result = api.run("hdiff")                  # simulate + validate
    report = api.explore("hdiff")              # design-space sweep
    answer = api.query("hdiff")                # cached-front probe

:mod:`repro.api` is the stable public surface — the CLI and the
``repro serve`` HTTP endpoint route through the same functions.
"""

from . import api
from .core import StencilProgram
from .errors import (
    AnalysisError,
    DeadlockError,
    DefinitionError,
    GraphError,
    MappingError,
    ParseError,
    StencilFlowError,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "DeadlockError",
    "DefinitionError",
    "GraphError",
    "MappingError",
    "ParseError",
    "StencilFlowError",
    "StencilProgram",
    "__version__",
    "api",
]
