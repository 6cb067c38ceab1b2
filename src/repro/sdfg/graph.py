"""The Stateful DataFlow multiGraph (SDFG) container.

An SDFG is a state machine of acyclic dataflow multigraphs (Sec. V):
data containers are declared on the SDFG; each state holds nodes and
memlet-annotated edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from ..errors import GraphError
from .descriptors import Array, Scalar, Stream
from .memlet import Memlet
from .nodes import (
    AccessNode,
    LibraryNode,
    MapEntry,
    MapExit,
    Node,
    Tasklet,
)

Descriptor = Union[Array, Stream, Scalar]


@dataclass(frozen=True)
class StateEdge:
    """A dataflow edge inside one state."""

    src: Node
    dst: Node
    memlet: Memlet
    src_connector: str = ""
    dst_connector: str = ""


class SDFGState:
    """One acyclic dataflow multigraph."""

    def __init__(self, name: str, parent: "SDFG"):
        self.name = name
        self.parent = parent
        self.nodes: List[Node] = []
        self.edges: List[StateEdge] = []

    # -- construction --------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        self.nodes.append(node)
        return node

    def add_access(self, data: str) -> AccessNode:
        if data not in self.parent.data:
            raise GraphError(f"unknown data container {data!r}")
        return self.add_node(AccessNode(data))

    def add_edge(self, src: Node, dst: Node, memlet: Memlet,
                 src_connector: str = "", dst_connector: str = ""
                 ) -> StateEdge:
        for node in (src, dst):
            if node not in self.nodes:
                raise GraphError(f"{node!r} is not in state {self.name!r}")
        edge = StateEdge(src, dst, memlet, src_connector, dst_connector)
        self.edges.append(edge)
        return edge

    def remove_node(self, node: Node):
        self.nodes.remove(node)
        self.edges = [e for e in self.edges
                      if e.src is not node and e.dst is not node]

    # -- queries -------------------------------------------------------------

    def in_edges(self, node: Node) -> List[StateEdge]:
        return [e for e in self.edges if e.dst is node]

    def out_edges(self, node: Node) -> List[StateEdge]:
        return [e for e in self.edges if e.src is node]

    def library_nodes(self) -> List[LibraryNode]:
        return [n for n in self.nodes if isinstance(n, LibraryNode)]

    def tasklets(self) -> List[Tasklet]:
        return [n for n in self.nodes if isinstance(n, Tasklet)]

    def topological_nodes(self) -> List[Node]:
        indegree = {id(n): 0 for n in self.nodes}
        for edge in self.edges:
            indegree[id(edge.dst)] += 1
        ready = [n for n in self.nodes if indegree[id(n)] == 0]
        order = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for edge in self.out_edges(node):
                indegree[id(edge.dst)] -= 1
                if indegree[id(edge.dst)] == 0:
                    ready.append(edge.dst)
        if len(order) != len(self.nodes):
            raise GraphError(f"state {self.name!r} contains a cycle")
        return order

    def validate(self):
        self.topological_nodes()
        for edge in self.edges:
            if edge.memlet.data and edge.memlet.data not in self.parent.data:
                raise GraphError(
                    f"memlet references unknown container "
                    f"{edge.memlet.data!r}")
        for node in self.nodes:
            if isinstance(node, MapExit) and node.entry not in self.nodes:
                raise GraphError(
                    f"map exit {node.label!r} without its entry")


class SDFG:
    """A named SDFG: data containers plus a sequence of states.

    Control flow between states is a simple linear sequence here — the
    stencil programs this reproduction handles are single-state after
    canonicalization, with optional copy-in/copy-out states.
    """

    def __init__(self, name: str):
        self.name = name
        self.data: Dict[str, Descriptor] = {}
        self.states: List[SDFGState] = []

    # -- data container management --------------------------------------------

    def add_array(self, name: str, shape: Tuple[int, ...], dtype,
                  storage: str = "global") -> Array:
        return self._add_descriptor(Array(name, tuple(shape), dtype,
                                          storage))

    def add_stream(self, name: str, dtype, buffer_size: int,
                   vector_width: int = 1, remote: bool = False) -> Stream:
        return self._add_descriptor(Stream(name, dtype, buffer_size,
                                           vector_width, remote))

    def add_scalar(self, name: str, dtype) -> Scalar:
        return self._add_descriptor(Scalar(name, dtype))

    def _add_descriptor(self, desc: Descriptor) -> Descriptor:
        if desc.name in self.data:
            raise GraphError(f"duplicate data container {desc.name!r}")
        self.data[desc.name] = desc
        return desc

    def arrays(self) -> Dict[str, Array]:
        return {k: v for k, v in self.data.items() if isinstance(v, Array)}

    def streams(self) -> Dict[str, Stream]:
        return {k: v for k, v in self.data.items()
                if isinstance(v, Stream)}

    # -- states ---------------------------------------------------------------

    def add_state(self, name: str) -> SDFGState:
        state = SDFGState(name, self)
        self.states.append(state)
        return state

    def validate(self):
        for state in self.states:
            state.validate()

    def expand_library_nodes(self):
        """Expand every library node (possibly recursively)."""
        expanded = True
        while expanded:
            expanded = False
            for state in self.states:
                for node in list(state.library_nodes()):
                    node.expand(self, state)
                    expanded = True

    def fast_memory_bytes(self) -> int:
        """Total on-chip bytes of local arrays and stream buffers."""
        total = 0
        for desc in self.data.values():
            if isinstance(desc, Stream):
                total += desc.bytes
            elif isinstance(desc, Array) and desc.storage == "local":
                total += desc.bytes
        return total

    def to_dot(self) -> str:
        lines = [f'digraph "{self.name}" {{']
        for state in self.states:
            lines.append(f'  subgraph "cluster_{state.name}" {{')
            lines.append(f'    label="{state.name}";')
            for node in state.nodes:
                shape = "ellipse" if isinstance(node, AccessNode) \
                    else "octagon" if isinstance(node, Tasklet) \
                    else "trapezium" if isinstance(node, MapEntry) \
                    else "invtrapezium" if isinstance(node, MapExit) \
                    else "box"
                lines.append(
                    f'    n{node.node_id} [label="{node.label}", '
                    f'shape={shape}];')
            for edge in state.edges:
                lines.append(
                    f'    n{edge.src.node_id} -> n{edge.dst.node_id} '
                    f'[label="{edge.memlet}"];')
            lines.append("  }")
        lines.append("}")
        return "\n".join(lines)
