"""Explicit stencil DAG built from a :class:`StencilProgram` (Fig. 2).

Nodes are data producers/consumers:

* :class:`InputNode` — an off-chip memory container feeding the program.
* :class:`StencilNode` — one stencil unit; produces the data named after it.
* :class:`OutputNode` — an off-chip memory container written at a sink.

Edges carry the name of the data flowing along them. A stencil result
consumed by several stencils appears as multiple out-edges of the same
producer (the data is streamed to all consumers, read from memory only
once — Sec. IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..core.fields import FieldSpec
from ..core.program import StencilDefinition, StencilProgram
from ..errors import GraphError


@dataclass(frozen=True)
class InputNode:
    """Off-chip input container."""

    name: str
    spec: FieldSpec

    kind = "input"

    def __str__(self) -> str:
        return f"input:{self.name}"


@dataclass(frozen=True)
class StencilNode:
    """One stencil unit in the dataflow graph."""

    name: str
    definition: StencilDefinition

    kind = "stencil"

    def __str__(self) -> str:
        return f"stencil:{self.name}"


@dataclass(frozen=True)
class OutputNode:
    """Off-chip output container (one per program output)."""

    name: str

    kind = "output"

    def __str__(self) -> str:
        return f"output:{self.name}"


@dataclass(frozen=True)
class Edge:
    """A directed dataflow edge carrying the stream ``data``.

    ``src``/``dst`` are node identifiers (see :class:`StencilGraph`).
    """

    src: str
    dst: str
    data: str


class StencilGraph:
    """The stencil DAG with traversal and query helpers.

    Node identifiers are ``"input:<name>"``, ``"stencil:<name>"``, and
    ``"output:<name>"`` so that a program output that shares its name with
    the producing stencil gets a distinct sink node.
    """

    def __init__(self, program: StencilProgram):
        self.program = program
        self._nodes: Dict[str, object] = {}
        self._out_edges: Dict[str, List[Edge]] = {}
        self._in_edges: Dict[str, List[Edge]] = {}
        self._build()

    # -- construction --------------------------------------------------------

    def _add_node(self, node) -> str:
        node_id = str(node)
        if node_id in self._nodes:
            raise GraphError(f"duplicate node {node_id}")
        self._nodes[node_id] = node
        self._out_edges[node_id] = []
        self._in_edges[node_id] = []
        return node_id

    def _add_edge(self, src: str, dst: str, data: str):
        edge = Edge(src, dst, data)
        self._out_edges[src].append(edge)
        self._in_edges[dst].append(edge)

    def _build(self):
        program = self.program
        for name, spec in program.inputs.items():
            self._add_node(InputNode(name, spec))
        for stencil in program.stencils:
            self._add_node(StencilNode(stencil.name, stencil))
        for out in program.outputs:
            self._add_node(OutputNode(out))
        stencil_names = set(program.stencil_names)
        for stencil in program.stencils:
            dst = f"stencil:{stencil.name}"
            for dep in stencil.accessed_fields:
                if dep in program.inputs:
                    self._add_edge(f"input:{dep}", dst, dep)
                elif dep in stencil_names:
                    self._add_edge(f"stencil:{dep}", dst, dep)
                else:
                    raise GraphError(
                        f"stencil {stencil.name!r} reads unknown {dep!r}")
        for out in program.outputs:
            self._add_edge(f"stencil:{out}", f"output:{out}", out)

    # -- queries -------------------------------------------------------------

    @property
    def node_ids(self) -> Tuple[str, ...]:
        return tuple(self._nodes)

    def node(self, node_id: str):
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"no node {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(e for edges in self._out_edges.values() for e in edges)

    def out_edges(self, node_id: str) -> Tuple[Edge, ...]:
        return tuple(self._out_edges[node_id])

    def in_edges(self, node_id: str) -> Tuple[Edge, ...]:
        return tuple(self._in_edges[node_id])

    def successors(self, node_id: str) -> Tuple[str, ...]:
        return tuple(e.dst for e in self._out_edges[node_id])

    def predecessors(self, node_id: str) -> Tuple[str, ...]:
        return tuple(e.src for e in self._in_edges[node_id])

    def stencil_ids(self) -> Tuple[str, ...]:
        return tuple(i for i, n in self._nodes.items() if n.kind == "stencil")

    def sinks(self) -> Tuple[str, ...]:
        return tuple(i for i in self._nodes if not self._out_edges[i])

    # -- traversal -----------------------------------------------------------

    def topological_order(self) -> List[str]:
        """Kahn's algorithm; deterministic (insertion order tie-break)."""
        indegree = {i: len(self._in_edges[i]) for i in self._nodes}
        ready = [i for i in self._nodes if indegree[i] == 0]
        order: List[str] = []
        while ready:
            node_id = ready.pop(0)
            order.append(node_id)
            for edge in self._out_edges[node_id]:
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
        if len(order) != len(self._nodes):
            stuck = sorted(i for i, d in indegree.items() if d > 0)
            raise GraphError(f"graph has a cycle involving {stuck}")
        return order

    def stencil_topological_order(self) -> List[str]:
        """Stencil names only, in topological order."""
        return [self._nodes[i].name for i in self.topological_order()
                if self._nodes[i].kind == "stencil"]

    def longest_path_length(self) -> int:
        """Number of stencil nodes on the deepest path (the DAG depth)."""
        depth: Dict[str, int] = {}
        for node_id in self.topological_order():
            is_stencil = self._nodes[node_id].kind == "stencil"
            incoming = [depth[e.src] for e in self._in_edges[node_id]]
            depth[node_id] = (1 if is_stencil else 0) + max(incoming,
                                                            default=0)
        return max(depth.values(), default=0)

    def is_multitree(self) -> bool:
        """True if no two nodes are connected by more than one path.

        Multi-trees cannot deadlock regardless of channel sizes
        (Sec. III-A); anything else requires delay-buffer analysis.
        """
        for src in self._nodes:
            reached: Set[str] = set()
            for edge in self._out_edges[src]:
                frontier = {edge.dst}
                seen_via_this_edge = set()
                while frontier:
                    current = frontier.pop()
                    if current in seen_via_this_edge:
                        continue
                    seen_via_this_edge.add(current)
                    frontier.update(e.dst for e in self._out_edges[current])
                if reached & seen_via_this_edge:
                    return False
                reached |= seen_via_this_edge
        return True

    def __repr__(self) -> str:
        return (f"StencilGraph({len(self.program.inputs)} inputs, "
                f"{len(self.stencil_ids())} stencils, "
                f"{len(self.program.outputs)} outputs, "
                f"{len(self.edges)} edges)")


def node_device(graph: StencilGraph, node_id: str,
                device_of) -> int:
    """Device of ``node_id`` under a stencil-name → device placement.

    Stencils map directly (default device 0); an input node lives with
    its first consumer, an output node with its producer — the rule the
    simulator uses to decide which edges become network links.
    """
    node = graph.node(node_id)
    if node.kind == "stencil":
        return device_of.get(node.name, 0)
    if node.kind == "input":
        consumers = graph.successors(node_id)
        if consumers:
            return node_device(graph, consumers[0], device_of)
        return 0
    producers = graph.predecessors(node_id)
    if producers:
        return node_device(graph, producers[0], device_of)
    return 0
