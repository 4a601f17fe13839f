"""Tests for character N-Gram Graphs and the class-graph featurizer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import NotFittedError
from repro.text.ngram_graph import ClassGraphModel, NGramGraph


class TestGraphConstruction:
    def test_ngrams_of_short_text(self):
        graph = NGramGraph.from_text("abc", n=4, window=4)
        # Text shorter than n yields a single vertex, hence no edges.
        assert graph.n_edges == 0

    def test_simple_edges(self):
        # "abcde" with n=2, window=1: grams ab, bc, cd, de; edges between
        # consecutive grams only.
        graph = NGramGraph.from_text("abcde", n=2, window=1)
        assert graph.n_edges == 3
        assert graph.edge_weight("ab", "bc") == 1.0
        assert graph.edge_weight("ab", "cd") == 0.0

    def test_window_widens_neighbourhood(self):
        wide = NGramGraph.from_text("abcde", n=2, window=3)
        assert wide.edge_weight("ab", "de") == 1.0

    def test_repeated_cooccurrence_accumulates_weight(self):
        # "ababab" with n=2 w=1: grams ab,ba,ab,ba,ab; edge {ab,ba} seen 4x.
        graph = NGramGraph.from_text("ababab", n=2, window=1)
        assert graph.edge_weight("ab", "ba") == 4.0

    def test_edge_key_symmetric(self):
        graph = NGramGraph.from_text("abcde", n=2, window=1)
        assert graph.edge_weight("bc", "ab") == graph.edge_weight("ab", "bc")

    def test_empty_text(self):
        graph = NGramGraph.from_text("", n=4, window=4)
        assert graph.n_edges == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NGramGraph(n=0)
        with pytest.raises(ValueError):
            NGramGraph(window=0)


class TestSimilarities:
    def test_identical_graphs(self):
        a = NGramGraph.from_text("pharmacy online store", n=4, window=4)
        b = NGramGraph.from_text("pharmacy online store", n=4, window=4)
        sims = a.similarities(b)
        assert sims.cs == pytest.approx(1.0)
        assert sims.ss == pytest.approx(1.0)
        assert sims.vs == pytest.approx(1.0)
        assert sims.nvs == pytest.approx(1.0)

    def test_disjoint_graphs(self):
        a = NGramGraph.from_text("aaaaaa", n=2, window=1)
        b = NGramGraph.from_text("bbbbbb", n=2, window=1)
        sims = a.similarities(b)
        assert sims.cs == 0.0
        assert sims.vs == 0.0

    def test_empty_graph_all_zero(self):
        a = NGramGraph.from_text("", n=4)
        b = NGramGraph.from_text("pharmacy", n=4)
        assert a.similarities(b).as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_size_similarity_formula(self):
        a = NGramGraph.from_text("abcde", n=2, window=1)  # 3 edges
        b = NGramGraph.from_text("abcdefg", n=2, window=1)  # 5 edges
        assert a.size_similarity(b) == pytest.approx(3 / 5)
        assert b.size_similarity(a) == pytest.approx(3 / 5)  # symmetric

    def test_containment_formula_hand_computed(self):
        a = NGramGraph.from_text("abcd", n=2, window=1)  # edges ab-bc, bc-cd
        b = NGramGraph.from_text("abcx", n=2, window=1)  # edges ab-bc, bc-cx
        # shared edges: {ab,bc}; min size = 2.
        assert a.containment_similarity(b) == pytest.approx(1 / 2)

    def test_fused_similarities_match_individual_methods(self):
        a = NGramGraph.from_text("cheap viagra pills", n=3, window=3)
        b = NGramGraph.from_text("cheap cialis pills", n=3, window=3)
        sims = a.similarities(b)
        assert sims.cs == pytest.approx(a.containment_similarity(b))
        assert sims.ss == pytest.approx(a.size_similarity(b))
        assert sims.vs == pytest.approx(a.value_similarity(b))
        assert sims.nvs == pytest.approx(a.normalized_value_similarity(b))

    def test_nvs_is_vs_over_ss(self):
        a = NGramGraph.from_text("pharmacy online", n=4, window=4)
        b = NGramGraph.from_text("pharmacy store and more", n=4, window=4)
        sims = a.similarities(b)
        assert sims.nvs == pytest.approx(sims.vs / sims.ss)


class TestMerge:
    def test_merge_identical_is_stable(self):
        a = NGramGraph.from_text("pharmacy", n=4, window=4)
        b = NGramGraph.from_text("pharmacy", n=4, window=4)
        before = dict(a.edges())
        a.merge(b, learning_rate=0.5)
        assert dict(a.edges()) == pytest.approx(before)

    def test_merge_new_edges_adopted(self):
        a = NGramGraph.from_text("abcde", n=2, window=1)
        b = NGramGraph.from_text("vwxyz", n=2, window=1)
        n_before = a.n_edges
        a.merge(b, learning_rate=0.5)
        assert a.n_edges == n_before + b.n_edges

    def test_merged_running_average(self):
        """merged() with lr=1/i equals the arithmetic mean of weights."""
        texts = ["ababab", "ababab", "abab"]
        graphs = [NGramGraph.from_text(t, n=2, window=1) for t in texts]
        merged = NGramGraph.merged(graphs, n=2, window=1)
        # edge {ab, ba} weights: 4, 4, 2 -> mean 10/3.
        assert merged.edge_weight("ab", "ba") == pytest.approx(10 / 3)

    def test_merge_incompatible_params_raises(self):
        a = NGramGraph(n=3, window=3)
        b = NGramGraph(n=4, window=4)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_bad_learning_rate(self):
        a = NGramGraph(n=4)
        with pytest.raises(ValueError):
            a.merge(NGramGraph(n=4), learning_rate=0.0)


class TestClassGraphModel:
    TEXTS = [
        "licensed pharmacy prescription required",
        "verified pharmacy health consultation",
        "cheap viagra no prescription pills",
        "discount cialis bonus pills cheap",
    ]
    LABELS = [1, 1, 0, 0]

    def test_feature_shape(self):
        model = ClassGraphModel(seed=0)
        feats = model.fit_transform(self.TEXTS, self.LABELS)
        assert feats.shape == (4, 8)

    def test_feature_names(self):
        model = ClassGraphModel(seed=0).fit(self.TEXTS, self.LABELS)
        names = model.feature_names()
        assert names[:4] == ("cs_class0", "ss_class0", "vs_class0", "nvs_class0")
        assert len(names) == 8

    def test_classes_sorted(self):
        model = ClassGraphModel(seed=0).fit(self.TEXTS, self.LABELS)
        assert model.classes == (0, 1)

    def test_own_class_similarity_higher(self):
        model = ClassGraphModel(class_sample_fraction=1.0, seed=0)
        feats = model.fit_transform(self.TEXTS, self.LABELS)
        # Column 0 is CS against class 0 (illegit), column 4 CS class 1.
        for i, label in enumerate(self.LABELS):
            own_cs = feats[i, 4] if label == 1 else feats[i, 0]
            other_cs = feats[i, 0] if label == 1 else feats[i, 4]
            assert own_cs > other_cs

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            ClassGraphModel().transform(["x"])

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            ClassGraphModel().fit(["a"], [1, 0])

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            ClassGraphModel().fit([], [])

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            ClassGraphModel(class_sample_fraction=0.0)

    def test_graph_api_equivalent_to_text_api(self):
        text_model = ClassGraphModel(seed=3).fit(self.TEXTS, self.LABELS)
        graphs = [NGramGraph.from_text(t, n=4, window=4) for t in self.TEXTS]
        graph_model = ClassGraphModel(seed=3).fit_graphs(graphs, self.LABELS)
        a = text_model.transform(self.TEXTS)
        b = graph_model.transform_graphs(graphs)
        assert np.allclose(a, b)


@st.composite
def _texts(draw):
    alphabet = st.sampled_from("abcdxyz ")
    return draw(st.text(alphabet=alphabet, min_size=6, max_size=60))


@given(a=_texts(), b=_texts())
@settings(max_examples=40)
def test_similarities_bounded(a, b):
    """Property: CS, SS, VS in [0, 1]; NVS >= 0."""
    ga = NGramGraph.from_text(a, n=3, window=3)
    gb = NGramGraph.from_text(b, n=3, window=3)
    sims = ga.similarities(gb)
    assert 0.0 <= sims.cs <= 1.0
    assert 0.0 <= sims.ss <= 1.0
    assert 0.0 <= sims.vs <= 1.0
    assert sims.nvs >= 0.0


@given(a=_texts(), b=_texts())
@settings(max_examples=40)
def test_size_similarity_symmetric(a, b):
    ga = NGramGraph.from_text(a, n=3, window=3)
    gb = NGramGraph.from_text(b, n=3, window=3)
    assert ga.size_similarity(gb) == pytest.approx(gb.size_similarity(ga))


@given(t=_texts())
@settings(max_examples=40)
def test_self_similarity_is_one(t):
    g = NGramGraph.from_text(t, n=3, window=3)
    if g.n_edges:
        sims = g.similarities(g)
        assert sims.as_tuple() == pytest.approx((1.0, 1.0, 1.0, 1.0))
