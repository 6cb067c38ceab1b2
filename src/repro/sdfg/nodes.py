"""SDFG dataflow nodes.

The node taxonomy follows DaCe (Sec. V): access nodes reference data
containers; tasklets hold computation; map scopes express parametric
parallelism; pipeline scopes (our extension, Sec. V-A) add
initialization/draining phases; library nodes encode domain-specific
semantics and expand into subgraphs.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from ..core.program import StencilDefinition
from ..errors import DefinitionError

_COUNTER = itertools.count()


def _next_id() -> int:
    return next(_COUNTER)


class Node:
    """Base class; every node has a unique id for graph bookkeeping."""

    def __init__(self, label: str):
        self.node_id = _next_id()
        self.label = label


class AccessNode(Node):
    """A reference to a data container (array, stream, or scalar)."""

    def __init__(self, data: str):
        super().__init__(data)
        self.data = data


class Tasklet(Node):
    """A unit of computation with named connectors.

    ``code`` is the computation text; ``inputs``/``outputs`` are the
    connector names memlets attach to.
    """

    def __init__(self, label: str, inputs: Tuple[str, ...],
                 outputs: Tuple[str, ...], code: str):
        super().__init__(label)
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.code = code


class MapEntry(Node):
    """Opens a parametric-parallel scope over ``params``/``ranges``."""

    def __init__(self, label: str, params: Tuple[str, ...],
                 ranges: Tuple[Tuple[int, int], ...],
                 unrolled: bool = False):
        if len(params) != len(ranges):
            raise DefinitionError(
                f"map {label!r}: {len(params)} params vs "
                f"{len(ranges)} ranges")
        super().__init__(label)
        self.params = tuple(params)
        self.ranges = tuple(tuple(r) for r in ranges)
        self.unrolled = unrolled
        self.exit: Optional["MapExit"] = None

    @property
    def iterations(self) -> int:
        total = 1
        for lo, hi in self.ranges:
            total *= max(0, hi - lo)
        return total


class MapExit(Node):
    """Closes a map scope."""

    def __init__(self, entry: MapEntry):
        super().__init__(f"{entry.label}_exit")
        self.entry = entry
        entry.exit = self


class PipelineEntry(MapEntry):
    """A pipelined iteration scope with init and drain phases (Sec. V-A).

    ``init_size`` cycles run before steady state (internal buffers
    filling, reads only); ``drain_size`` cycles run after the input is
    exhausted (results still leaving local buffers, writes only).
    Specialized behaviour can be predicated on the phase in generated
    code.
    """

    def __init__(self, label: str, params: Tuple[str, ...],
                 ranges: Tuple[Tuple[int, int], ...],
                 init_size: int = 0, drain_size: int = 0):
        super().__init__(label, params, ranges)
        self.init_size = init_size
        self.drain_size = drain_size

    @property
    def total_iterations(self) -> int:
        return self.iterations + self.init_size + self.drain_size


class PipelineExit(MapExit):
    """Closes a pipeline scope."""


class LibraryNode(Node):
    """A domain-specific node with multiple expansion targets.

    Subclasses register implementations in ``implementations``; calling
    :meth:`expand` rewrites the node into a subgraph in its parent
    state. Expansions may themselves contain library nodes, enabling
    multi-level coarsening (Sec. V-A).
    """

    implementations: Dict[str, str] = {}
    default_implementation: Optional[str] = None

    def expand(self, sdfg, state, implementation: Optional[str] = None):
        name = implementation or self.default_implementation
        if name is None or name not in self.implementations:
            raise DefinitionError(
                f"{type(self).__name__} has no implementation "
                f"{name!r}; available: {sorted(self.implementations)}")
        method = getattr(self, self.implementations[name])
        return method(sdfg, state)


class StencilLibraryNode(LibraryNode):
    """The ``Stencil`` library node developed for this work (Sec. V-A).

    Wraps one stencil operation: its definition (code, accesses,
    boundary conditions), the iteration shape, and the vectorization
    width. Expansion lowers it to the pipeline/shift/compute subgraph of
    Fig. 12 (see :func:`repro.sdfg.build.expand_stencil_node`).
    """

    implementations = {"pipeline": "_expand_pipeline"}
    default_implementation = "pipeline"

    def __init__(self, definition: StencilDefinition,
                 shape: Tuple[int, ...], vector_width: int = 1):
        super().__init__(f"stencil_{definition.name}")
        self.definition = definition
        self.shape = tuple(shape)
        self.vector_width = vector_width

    def _expand_pipeline(self, sdfg, state):
        from .build import expand_stencil_node
        return expand_stencil_node(sdfg, state, self)
