"""Unit tests for the stencil DAG."""

import pytest

from repro.graph import StencilGraph
from util import chain_program, diamond_program, lst1_program


class TestConstruction:
    def test_node_counts(self):
        graph = StencilGraph(lst1_program())
        assert len(graph.stencil_ids()) == 5
        assert repr(graph).startswith("StencilGraph(3 inputs, 5 stencils, "
                                      "1 outputs")

    def test_edge_count(self):
        # 2 edges into b0, 2 into b1, 2 into b2, 1 into b3, 2 into b4,
        # plus b4 -> output.
        graph = StencilGraph(lst1_program())
        assert len(graph.edges) == 10

    def test_fanout_edges(self):
        graph = StencilGraph(lst1_program())
        assert set(graph.successors("stencil:b0")) == {
            "stencil:b1", "stencil:b2"}

    def test_node_lookup(self):
        graph = StencilGraph(lst1_program())
        assert graph.node("stencil:b0").name == "b0"
        assert "stencil:b0" in graph
        assert "stencil:zz" not in graph

    def test_sources_and_sinks(self):
        graph = StencilGraph(lst1_program())
        assert {node for node in graph.topological_order()
                if not graph.in_edges(node)} == {
            "input:a0", "input:a1", "input:a2"}
        assert set(graph.sinks()) == {"output:b4"}


class TestTraversal:
    def test_topological_order_respects_edges(self):
        graph = StencilGraph(lst1_program())
        order = graph.topological_order()
        position = {node: n for n, node in enumerate(order)}
        for edge in graph.edges:
            assert position[edge.src] < position[edge.dst]

    def test_stencil_topological_order(self):
        graph = StencilGraph(lst1_program())
        order = graph.stencil_topological_order()
        assert order.index("b0") < order.index("b1")
        assert order.index("b1") < order.index("b3")
        assert order.index("b3") < order.index("b4")

    def test_longest_path_length(self):
        graph = StencilGraph(chain_program(5))
        assert graph.longest_path_length() == 5


class TestShape:
    def test_chain_is_multitree(self):
        assert StencilGraph(chain_program(4)).is_multitree()

    def test_diamond_is_not_multitree(self):
        assert not StencilGraph(diamond_program()).is_multitree()

    def test_lst1_is_not_multitree(self):
        # b0 reaches b4 via both b1->b3 and b2.
        assert not StencilGraph(lst1_program()).is_multitree()

    def test_repr(self):
        text = repr(StencilGraph(lst1_program()))
        assert "5 stencils" in text
