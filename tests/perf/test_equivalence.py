"""Property tests: the vectorized fast paths match the reference kernels.

The vectorized :class:`~repro.text.ngram_graph.NGramGraph` and the CSR
power iteration in :mod:`repro.network.pagerank` (which EigenTrust also
runs on) replaced pure-Python dict/loop implementations.  These tests
pin the equivalence on randomized, seeded inputs: same edges, same
weights, similarities within 1e-9, ranks within 1e-9 (EigenTrust within
1e-12).
"""

import pickle
import random
import string

import pytest

from repro.exceptions import ValidationError
from repro.network.eigentrust import eigentrust
from repro.network.graph import DirectedGraph
from repro.network.pagerank import pagerank, personalized_pagerank
from repro.text.ngram_graph import ClassGraphModel, NGramGraph

from tests.reference import (
    ReferenceNGramGraph,
    reference_personalized_pagerank,
)

ALPHABET = string.ascii_lowercase[:9] + " "


def random_text(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(length))


def random_graph(rng: random.Random, n_nodes: int, n_edges: int) -> DirectedGraph:
    graph = DirectedGraph()
    names = [f"d{i}.example" for i in range(n_nodes)]
    for name in names:
        graph.add_node(name)
    for _ in range(n_edges):
        src, dst = rng.sample(names, 2)
        graph.add_edge(src, dst, weight=rng.choice([1.0, 1.0, 2.0, 3.0]))
    return graph


class TestNGramGraphEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_edges_bit_equal(self, seed):
        rng = random.Random(seed)
        text = random_text(rng, rng.randint(0, 400))
        fast = NGramGraph.from_text(text)
        slow = ReferenceNGramGraph.from_text(text)
        assert dict(fast.edges()) == slow.edges()

    @pytest.mark.parametrize("seed", [10, 11, 12])
    @pytest.mark.parametrize("n,window", [(3, 2), (4, 4), (5, 6)])
    def test_edges_bit_equal_across_params(self, seed, n, window):
        rng = random.Random(seed * 100 + n * 10 + window)
        text = random_text(rng, rng.randint(n, 300))
        fast = NGramGraph.from_text(text, n=n, window=window)
        slow = ReferenceNGramGraph.from_text(text, n=n, window=window)
        assert dict(fast.edges()) == slow.edges()

    @pytest.mark.parametrize("seed", [20, 21, 22, 23])
    def test_similarities_match(self, seed):
        rng = random.Random(seed)
        a_text = random_text(rng, rng.randint(50, 300))
        # Overlap the tail so CS/VS are non-trivial.
        b_text = a_text[len(a_text) // 2 :] + random_text(rng, 120)
        fast = NGramGraph.from_text(a_text).similarities(
            NGramGraph.from_text(b_text)
        )
        slow = ReferenceNGramGraph.from_text(a_text).similarities(
            ReferenceNGramGraph.from_text(b_text)
        )
        assert fast.as_tuple() == pytest.approx(slow, abs=1e-9)

    def test_empty_and_short_texts(self):
        for text in ("", "a", "abc", "abcd"):
            fast = NGramGraph.from_text(text)
            slow = ReferenceNGramGraph.from_text(text)
            assert dict(fast.edges()) == slow.edges()

    @pytest.mark.parametrize("seed", [30, 31])
    def test_merged_class_graph_matches(self, seed):
        rng = random.Random(seed)
        texts = [random_text(rng, rng.randint(40, 200)) for _ in range(6)]
        fast = NGramGraph.merged([NGramGraph.from_text(t) for t in texts])
        slow = ReferenceNGramGraph.merged(
            [ReferenceNGramGraph.from_text(t) for t in texts]
        )
        fast_edges = dict(fast.edges())
        slow_edges = slow.edges()
        assert set(fast_edges) == set(slow_edges)
        for key, weight in slow_edges.items():
            assert fast_edges[key] == pytest.approx(weight, abs=1e-12)

    @pytest.mark.parametrize("seed", [40, 41])
    def test_transform_many_matches_per_doc_reference(self, seed):
        rng = random.Random(seed)
        train = [random_text(rng, rng.randint(60, 220)) for _ in range(8)]
        labels = [i % 2 for i in range(8)]
        test = [random_text(rng, rng.randint(60, 220)) for _ in range(5)]

        # fraction=1.0 so the reference merge below sees the same
        # documents (the default subsamples half of each class).
        model = ClassGraphModel(class_sample_fraction=1.0)
        model.fit(train, labels)
        batch = model.transform(test)

        # Reference: per-document dict-loop similarities against a
        # reference merge of the same per-class texts.
        for col, cls in enumerate(model.classes):
            class_graph = ReferenceNGramGraph.merged(
                [
                    ReferenceNGramGraph.from_text(t)
                    for t, y in zip(train, labels)
                    if y == cls
                ]
            )
            for row, text in enumerate(test):
                expected = ReferenceNGramGraph.from_text(text).similarities(
                    class_graph
                )
                got = batch[row, col * 4 : col * 4 + 4]
                assert tuple(got) == pytest.approx(expected, abs=1e-9)

    def test_pickle_round_trip_preserves_edges(self):
        graph = NGramGraph.from_text("the quick brown fox jumps over the dog")
        clone = pickle.loads(pickle.dumps(graph))
        assert dict(clone.edges()) == dict(graph.edges())
        assert clone.similarities(graph).as_tuple() == pytest.approx(
            (1.0, 1.0, 1.0, 1.0), abs=1e-12
        )


class TestPageRankEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_random_graphs_match(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, rng.randint(5, 40), rng.randint(4, 120))
        fast = personalized_pagerank(graph)
        slow = reference_personalized_pagerank(graph)
        assert set(fast) == set(slow)
        for node, score in slow.items():
            assert fast[node] == pytest.approx(score, abs=1e-9)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_personalized_with_dangling_and_islands(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, 20, 25)
        graph.add_node("island.example")  # no edges at all
        graph.add_node("dangling.example")
        graph.add_edge("d0.example", "dangling.example")
        teleport = {"d0.example": 2.0, "d3.example": 1.0}
        fast = personalized_pagerank(graph, teleport=teleport)
        slow = reference_personalized_pagerank(graph, teleport=teleport)
        for node, score in slow.items():
            assert fast[node] == pytest.approx(score, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("alpha", [0.15, 0.5])
    def test_eigentrust_matches_trustrank_reference(self, seed, alpha):
        """EigenTrust is TrustRank with damping ``1 - alpha``."""
        rng = random.Random(seed)
        graph = random_graph(rng, rng.randint(5, 40), rng.randint(4, 120))
        pretrusted = rng.sample(list(graph.nodes()), 3)
        fast = eigentrust(graph, pretrusted, alpha=alpha)
        slow = reference_personalized_pagerank(
            graph,
            teleport={node: 1.0 for node in pretrusted},
            damping=1.0 - alpha,
        )
        assert set(fast) == set(slow)
        for node, score in slow.items():
            assert fast[node] == pytest.approx(score, abs=1e-12)

    def test_pagerank_wrapper_matches(self):
        rng = random.Random(99)
        graph = random_graph(rng, 15, 30)
        fast = pagerank(graph)
        slow = reference_personalized_pagerank(graph)
        for node, score in slow.items():
            assert fast[node] == pytest.approx(score, abs=1e-9)

    def test_negative_teleport_rejected_by_both(self):
        graph = DirectedGraph()
        graph.add_edge("a", "b")
        with pytest.raises(ValidationError):
            personalized_pagerank(graph, teleport={"a": -0.5})
        with pytest.raises(ValidationError):
            reference_personalized_pagerank(graph, teleport={"a": -0.5})
