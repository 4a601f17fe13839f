"""Tests for the directed graph."""

import pytest

from repro.exceptions import GraphError
from repro.network.graph import DirectedGraph


def triangle():
    g = DirectedGraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("c", "a")
    return g


class TestDirectedGraph:
    def test_add_node_idempotent(self):
        g = DirectedGraph()
        g.add_node("a")
        g.add_node("a")
        assert g.n_nodes == 1

    def test_add_edge_creates_nodes(self):
        g = DirectedGraph()
        g.add_edge("a", "b")
        assert "a" in g and "b" in g
        assert g.n_edges == 1

    def test_parallel_edges_accumulate_weight(self):
        g = DirectedGraph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("a", "b", 2.0)
        assert g.n_edges == 1
        assert g.successors("a")["b"] == 3.0

    def test_successors_predecessors(self):
        g = triangle()
        assert g.successors("a") == {"b": 1.0}
        assert g.predecessors("a") == {"c": 1.0}

    def test_degrees(self):
        g = triangle()
        assert len(g.successors("a")) == 1
        assert len(g.predecessors("a")) == 1

    def test_has_edge(self):
        g = triangle()
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")

    def test_edges_iteration(self):
        edges = set((s, d) for s, d, _ in triangle().edges())
        assert edges == {("a", "b"), ("b", "c"), ("c", "a")}

    def test_nodes_insertion_order(self):
        g = DirectedGraph()
        g.add_edge("z", "a")
        g.add_node("m")
        assert list(g.nodes()) == ["z", "a", "m"]

    def test_unknown_node_raises(self):
        with pytest.raises(GraphError):
            triangle().successors("x")

    def test_empty_node_id_rejected(self):
        with pytest.raises(GraphError):
            DirectedGraph().add_node("")

    def test_nonpositive_weight_rejected(self):
        g = DirectedGraph()
        with pytest.raises(GraphError):
            g.add_edge("a", "b", 0.0)

    def test_len_matches_nodes(self):
        assert len(triangle()) == 3
