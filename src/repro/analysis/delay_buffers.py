"""Delay buffers for inter-stencil reuse and deadlock freedom (Sec. IV-B).

Edges between stencils replace off-chip round-trips with direct dataflow.
When a node has several inputs that become available at different times —
because paths through the DAG accumulate different latencies — the early
inputs must be buffered (credits injected) so the producers are not
blocked while the late inputs catch up; otherwise the circular
full/empty dependency of Fig. 4 deadlocks the design.

Two factors contribute delay at each node:

* the critical path through the stencil's computation AST (typically
  < 100 cycles; configurable per-op latencies), and
* the initialization phase, ``max(B_1..B_F)`` elements, spent filling
  internal buffers before the first output.

For each node, we traverse the DAG backwards, computing the highest
accumulated delay along any path from any source for each incoming edge.
The buffer on each edge is the highest delay across all of the node's
edges minus the delay of that edge — so each node has at least one
incoming edge with buffer size zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.program import StencilProgram
from ..errors import AnalysisError
from ..expr.latency import LatencyModel, critical_path
from ..graph.dag import StencilGraph
from .internal_buffers import StencilBuffering, program_internal_buffers


@dataclass(frozen=True)
class NodeDelay:
    """Per-node latency contribution, in cycles (vector words).

    Attributes:
        node: node identifier in the stencil graph.
        init_cycles: the node's initialization phase — the words it must
            consume ahead of its first output (the largest per-field
            read-ahead; zero for memory nodes). The *memory* footprint
            of the fill phase is the B-sized internal buffer
            (Sec. IV-A); the *timing* contribution is the forward
            read-ahead, which is what the machine actually waits for.
        compute_cycles: critical path of the computation AST; zero for
            memory nodes.
        accumulated: highest total delay from any source node up to and
            including this node (the time of the node's first output in
            the stall-free schedule).
    """

    node: str
    init_cycles: int
    compute_cycles: int
    accumulated: int

    @property
    def own(self) -> int:
        """This node's own contribution (init + compute)."""
        return self.init_cycles + self.compute_cycles


@dataclass(frozen=True)
class DelayBuffer:
    """Buffer annotation of one dataflow edge.

    The *effective delay* of an edge combines the producer's
    accumulated delay with the consumer's read-ahead on the carried
    field — the latter is Sec. IV-B's "contribution of the
    initialization phase of the node itself": a field the consumer
    reads far ahead of its center is needed (and consumed) early, while
    a center-only field is consumed ``init`` words later, so its
    producer requires that many extra credits.

    Attributes:
        src, dst: node identifiers.
        data: the stream's data name.
        size: required channel credits in vector words — the highest
            effective delay across the consumer's edges minus this
            edge's. At least one in-edge of every node has size zero.
        edge_delay: effective delay of this edge (producer's first
            output time plus consumer read-ahead plus network latency).
        consumer_readahead: the read-ahead component, in words.
    """

    src: str
    dst: str
    data: str
    size: int
    edge_delay: int
    consumer_readahead: int = 0

    def bytes(self, element_bytes: int, vector_width: int) -> int:
        return self.size * vector_width * element_bytes


@dataclass(frozen=True)
class BufferingAnalysis:
    """Complete buffering annotation of a stencil program.

    Produced by :func:`analyze_buffers`; consumed by hardware mapping,
    code generation, and the simulator.

    Attributes:
        program: the analyzed program.
        internal: per-stencil internal-buffer analysis.
        node_delays: per-node delay info, keyed by node id.
        delay_buffers: per-edge buffers, keyed by ``(src, dst, data)``.
        latency_model: the per-op latency configuration used.
    """

    program: StencilProgram
    graph: StencilGraph
    internal: Dict[str, StencilBuffering]
    node_delays: Dict[str, NodeDelay]
    delay_buffers: Dict[Tuple[str, str, str], DelayBuffer]
    latency_model: LatencyModel

    @property
    def pipeline_latency(self) -> int:
        """L of Eq. 1: the deepest accumulated delay at any sink node."""
        sinks = self.graph.sinks()
        if not sinks:
            return 0
        return max(self.node_delays[s].accumulated for s in sinks)

    def buffer_for_edge(self, src: str, dst: str,
                        data: str) -> DelayBuffer:
        try:
            return self.delay_buffers[(src, dst, data)]
        except KeyError:
            raise AnalysisError(
                f"no delay buffer recorded for edge "
                f"{src} --{data}--> {dst}") from None

    def total_delay_buffer_words(self) -> int:
        """Sum of all delay-buffer depths, in vector words."""
        return sum(b.size for b in self.delay_buffers.values())

    def fast_memory_bytes(self) -> int:
        """Total on-chip memory the buffers require, in bytes.

        Internal buffers are counted in elements; delay buffers in
        vector words of the stream's element type.
        """
        width = self.program.vectorization
        total = 0
        for buffering in self.internal.values():
            for field, buf in buffering.buffers.items():
                total += buf.bytes(self.program.field_dtype(field).bytes)
        for buf in self.delay_buffers.values():
            total += buf.bytes(self.program.field_dtype(buf.data).bytes,
                               width)
        return total


def analyze_buffers(
        program: StencilProgram,
        latency_model: Optional[LatencyModel] = None,
        graph: Optional[StencilGraph] = None,
        edge_latency: Optional[Dict[Tuple[str, str, str], int]] = None
        ) -> BufferingAnalysis:
    """Run the full buffering analysis of Sec. IV.

    Computes internal buffers per stencil, accumulates path delays with a
    dynamic program over the topological order, and sizes every edge's
    delay buffer.

    Args:
        program: the stencil program.
        latency_model: per-operation latencies for the AST critical path.
        graph: pre-built stencil graph (rebuilt when omitted).
        edge_latency: extra cycles incurred on specific edges — used for
            inter-device network links in distributed mappings
            (Sec. III-B), keyed by ``(src, dst, data)``.
    """
    model = latency_model or LatencyModel()
    compute = {f"stencil:{stencil.name}": critical_path(stencil.ast, model)
               for stencil in program.stencils}
    return _size_buffers(program, graph or StencilGraph(program),
                         program_internal_buffers(program), compute,
                         model, edge_latency)


def with_edge_latency(analysis: BufferingAnalysis,
                      edge_latency: Dict[Tuple[str, str, str], int]
                      ) -> BufferingAnalysis:
    """The analysis of ``analysis.program`` under ``edge_latency``:
    internal buffers and critical paths do not depend on the placement,
    so only the delay dynamic program runs again."""
    return _size_buffers(
        analysis.program, analysis.graph, analysis.internal,
        {node: delay.compute_cycles
         for node, delay in analysis.node_delays.items()},
        analysis.latency_model, edge_latency)


def _size_buffers(program, graph, internal, compute, model, edge_latency):
    width = program.vectorization
    extra = edge_latency or {}

    # Dynamic program over the topological order. The effective delay
    # of edge e = (u --f--> v) is
    #     D(e) = A(u) + readahead_v(f) + network_latency(e),
    # where A(u) is u's first-output time; a node's first-output time is
    #     A(v) = max_e D(e) + compute_latency(v).
    # The consumer read-ahead term is how Sec. IV-B's "initialization
    # phase of the node itself" enters each path.
    node_delays: Dict[str, NodeDelay] = {}
    edge_effective: Dict[Tuple[str, str, str], Tuple[int, int]] = {}
    for node_id in graph.topological_order():
        node = graph.node(node_id)
        buffering = internal[node.name] if node.kind == "stencil" \
            else None
        init = buffering.max_readahead_words(width) if buffering else 0
        upstream = 0
        for e in graph.in_edges(node_id):
            readahead = (buffering.readahead_words(e.data, width)
                         if buffering is not None else 0)
            effective = (node_delays[e.src].accumulated + readahead
                         + extra.get((e.src, e.dst, e.data), 0))
            edge_effective[(e.src, e.dst, e.data)] = (effective,
                                                      readahead)
            upstream = max(upstream, effective)
        node_delays[node_id] = NodeDelay(
            node=node_id,
            init_cycles=init,
            compute_cycles=compute.get(node_id, 0),
            accumulated=upstream + compute.get(node_id, 0),
        )

    delay_buffers: Dict[Tuple[str, str, str], DelayBuffer] = {}
    for node_id in graph.node_ids:
        in_edges = graph.in_edges(node_id)
        if not in_edges:
            continue
        delays = {e: edge_effective[(e.src, e.dst, e.data)]
                  for e in in_edges}
        highest = max(effective for effective, _ra in delays.values())
        for edge, (effective, readahead) in delays.items():
            delay_buffers[(edge.src, edge.dst, edge.data)] = DelayBuffer(
                src=edge.src,
                dst=edge.dst,
                data=edge.data,
                size=highest - effective,
                edge_delay=effective,
                consumer_readahead=readahead,
            )

    return BufferingAnalysis(
        program=program,
        graph=graph,
        internal=internal,
        node_delays=node_delays,
        delay_buffers=delay_buffers,
        latency_model=model,
    )
