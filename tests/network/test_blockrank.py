"""Tests for block-wise multi-process ranking over spilled CSR blocks.

The contract: block ranking over a plan compiled from a graph's edges
is bit-equal to the in-memory
:func:`repro.network.pagerank.personalized_pagerank` (both run the
same builder and power iteration; in-memory is the one-block case),
to any block count, and serial and parallel runs are identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError, ValidationError
from repro.network.blockrank import (
    block_personalized_pagerank,
    block_trustrank,
    compile_transition_store_from_edges,
    load_block_plan,
)
from repro.network.graph import DirectedGraph
from repro.network.pagerank import personalized_pagerank
from repro.network.trustrank import anti_trustrank, trustrank
from repro.perf.store import MatrixStore


def _random_graph(n_nodes=60, n_edges=300, seed=11) -> DirectedGraph:
    rng = np.random.default_rng(seed)
    graph = DirectedGraph()
    names = [f"d{i}.example" for i in range(n_nodes)]
    for name in names:
        graph.add_node(name)
    for s, d in zip(
        rng.integers(0, n_nodes, n_edges), rng.integers(0, n_nodes, n_edges)
    ):
        if s != d:
            graph.add_edge(names[s], names[d])
    return graph


def _compile(graph, store, n_blocks, prefix="rank", reverse=False):
    """Compile ``graph``'s edges in node order (swapped when ``reverse``)."""
    nodes = list(graph.nodes())
    index = {n: i for i, n in enumerate(nodes)}
    edges = list(graph.edges())
    src = np.asarray([index[s] for s, _, _ in edges], dtype=np.int64)
    dst = np.asarray([index[d] for _, d, _ in edges], dtype=np.int64)
    weight = np.asarray([w for _, _, w in edges], dtype=np.float64)
    if reverse:
        src, dst = dst, src
    return compile_transition_store_from_edges(
        store, nodes, src, dst, weight, n_blocks=n_blocks, prefix=prefix
    )


@pytest.fixture(scope="module")
def graph():
    return _random_graph()


@pytest.fixture()
def store(tmp_path):
    return MatrixStore(tmp_path / "store")


def _max_divergence(a: dict, b: dict) -> float:
    assert set(a) == set(b)
    return max(abs(a[k] - b[k]) for k in a)


class TestCompile:
    def test_blocks_cover_all_rows(self, graph, store):
        plan = _compile(graph, store, n_blocks=4)
        assert plan.n == graph.n_nodes
        assert plan.offsets[0] == 0 and plan.offsets[-1] == plan.n
        assert plan.n_blocks == 4

    def test_more_blocks_than_rows_clamps(self, store):
        graph = DirectedGraph()
        graph.add_edge("a.example", "b.example")
        plan = _compile(graph, store, n_blocks=10)
        assert plan.n_blocks == graph.n_nodes

    def test_empty_graph_rejected(self, store):
        with pytest.raises(GraphError):
            _compile(DirectedGraph(), store, n_blocks=2)

    def test_bad_block_count_rejected(self, graph, store):
        with pytest.raises(ValidationError):
            _compile(graph, store, n_blocks=0)

    def test_plan_reloads_identically(self, graph, store):
        plan = _compile(graph, store, n_blocks=3)
        reloaded = load_block_plan(store)
        assert reloaded.nodes == plan.nodes
        assert reloaded.offsets == plan.offsets
        assert block_personalized_pagerank(
            reloaded
        ) == block_personalized_pagerank(plan)


class TestEquivalence:
    def test_uniform_matches_inmemory(self, graph, store):
        plan = _compile(graph, store, n_blocks=4)
        assert (
            _max_divergence(
                block_personalized_pagerank(plan), personalized_pagerank(graph)
            )
            <= 1e-9
        )

    def test_personalized_matches_inmemory(self, graph, store):
        teleport = {f"d{i}.example": 1.0 for i in range(0, 60, 7)}
        plan = _compile(graph, store, n_blocks=5)
        assert (
            _max_divergence(
                block_personalized_pagerank(plan, teleport=teleport),
                personalized_pagerank(graph, teleport=teleport),
            )
            <= 1e-9
        )

    def test_trustrank_matches_inmemory(self, graph, store):
        seed = [f"d{i}.example" for i in range(6)]
        plan = _compile(graph, store, n_blocks=4)
        assert (
            _max_divergence(
                block_trustrank(plan, seed), trustrank(graph, seed)
            )
            <= 1e-9
        )

    def test_anti_trustrank_matches_inmemory(self, graph, store):
        seed = [f"d{i}.example" for i in range(50, 60)]
        plan = _compile(graph, store, n_blocks=4, reverse=True)
        assert (
            _max_divergence(
                block_trustrank(plan, seed), anti_trustrank(graph, seed)
            )
            <= 1e-9
        )

    def test_serial_equals_parallel_bitwise(self, graph, store):
        teleport = {f"d{i}.example": 1.0 for i in range(0, 60, 5)}
        plan = _compile(graph, store, n_blocks=4)
        serial = block_personalized_pagerank(plan, teleport=teleport, jobs=1)
        parallel = block_personalized_pagerank(
            plan, teleport=teleport, jobs=2
        )
        assert serial == parallel  # identical floats, not just close

    def test_block_count_does_not_change_result(self, graph, store):
        one = _compile(graph, store, n_blocks=1, prefix="p1")
        many = _compile(graph, store, n_blocks=7, prefix="p7")
        assert block_personalized_pagerank(
            one
        ) == block_personalized_pagerank(many)


class TestEdgeCompile:
    def test_edges_match_graph_compile(self, graph, store):
        nodes = list(graph.nodes())
        index = {n: i for i, n in enumerate(nodes)}
        src, dst, weight = [], [], []
        for node in nodes:
            for succ, w in graph.successors(node).items():
                src.append(index[node])
                dst.append(index[succ])
                weight.append(w)
        from_edges = compile_transition_store_from_edges(
            store,
            nodes,
            np.asarray(src),
            np.asarray(dst),
            np.asarray(weight, dtype=np.float64),
            n_blocks=4,
        )
        # The in-memory ranker compiles the graph as one block of the
        # same builder; four spilled blocks give identical floats.
        assert block_personalized_pagerank(from_edges) == personalized_pagerank(
            graph
        )

    def test_edgeless_nodes_are_all_dangling(self, store):
        plan = compile_transition_store_from_edges(
            store,
            ["a.example", "b.example"],
            np.asarray([], dtype=np.int64),
            np.asarray([], dtype=np.int64),
            np.asarray([], dtype=np.float64),
            n_blocks=2,
        )
        ranks = block_personalized_pagerank(plan)
        assert ranks["a.example"] == pytest.approx(0.5)

    def test_mismatched_edge_arrays_rejected(self, store):
        with pytest.raises(ValidationError):
            compile_transition_store_from_edges(
                store,
                ["a.example"],
                np.asarray([0]),
                np.asarray([0, 0]),
                np.asarray([1.0]),
                n_blocks=1,
            )

    def test_empty_nodes_rejected(self, store):
        with pytest.raises(GraphError):
            compile_transition_store_from_edges(
                store,
                [],
                np.asarray([]),
                np.asarray([]),
                np.asarray([]),
                n_blocks=1,
            )


class TestValidation:
    def test_bad_damping(self, graph, store):
        plan = _compile(graph, store, n_blocks=2)
        with pytest.raises(ValidationError):
            block_personalized_pagerank(plan, damping=1.0)

    def test_empty_trust_seed(self, graph, store):
        plan = _compile(graph, store, n_blocks=2)
        with pytest.raises(GraphError):
            block_trustrank(plan, ["unknown.example"])

    def test_scores_sum_to_one(self, graph, store):
        plan = _compile(graph, store, n_blocks=3)
        assert sum(block_personalized_pagerank(plan).values()) == pytest.approx(1.0)
