"""Tests for the C4.5 decision tree (J48 equivalent)."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError
from repro.ml.tree import C45Tree, _entropy, _pessimistic_errors


def _leaf_depths(clf):
    """Depth of every leaf, read off the J48-style rendering: each leaf
    is one ``class`` line indented by one ``|`` per level."""
    return [
        line.count("|") for line in clf.to_text().splitlines() if "class " in line
    ]


def _depth(clf):
    return max(_leaf_depths(clf))


def _n_leaves(clf):
    return len(_leaf_depths(clf))


class TestEntropyHelpers:
    def test_pure_node_zero_entropy(self):
        assert _entropy(np.array([10.0, 0.0])) == 0.0

    def test_balanced_node_one_bit(self):
        assert _entropy(np.array([5.0, 5.0])) == pytest.approx(1.0)

    def test_pessimistic_errors_exceed_observed(self):
        assert _pessimistic_errors(100, 10) > 10

    def test_pessimistic_errors_zero_samples(self):
        assert _pessimistic_errors(0, 0) == 0.0


class TestC45Tree:
    def test_axis_aligned_split(self):
        X = np.array([[0.1], [0.2], [0.3], [0.7], [0.8], [0.9]] * 4)
        y = np.array([0, 0, 0, 1, 1, 1] * 4)
        clf = C45Tree(min_samples_split=2, min_samples_leaf=1).fit(X, y)
        assert (clf.predict(X) == y).all()

    def test_xor_needs_depth_two(self):
        rng = np.random.default_rng(0)
        X = rng.random((200, 2))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
        clf = C45Tree(min_samples_split=4, min_samples_leaf=2).fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.9
        assert _depth(clf) >= 2

    def test_max_depth_limits(self):
        rng = np.random.default_rng(0)
        X = rng.random((100, 3))
        y = (X[:, 0] + X[:, 1] > 1).astype(int)
        clf = C45Tree(max_depth=1, confidence_factor=None).fit(X, y)
        assert _depth(clf) <= 1

    def test_min_samples_leaf_respected(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        clf = C45Tree(min_samples_split=2, min_samples_leaf=2).fit(X, y)
        # Only the middle cut keeps 2 per side.
        assert _n_leaves(clf) <= 2

    def test_pure_data_single_leaf(self):
        X = np.random.default_rng(0).random((10, 2))
        y01 = np.array([0, 1] + [0] * 8)
        clf = C45Tree().fit(X, y01)
        assert _n_leaves(clf) >= 1  # fitted without error

    def test_proba_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        X = rng.random((60, 3))
        y = (X[:, 0] > 0.5).astype(int)
        proba = C45Tree().fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_pruning_reduces_or_keeps_leaves(self):
        rng = np.random.default_rng(0)
        X = rng.random((150, 4))
        y = rng.integers(0, 2, 150)  # pure noise: pruning should collapse
        pruned = C45Tree(confidence_factor=0.25).fit(X, y)
        unpruned = C45Tree(confidence_factor=None).fit(X, y)
        assert _n_leaves(pruned) <= _n_leaves(unpruned)

    def test_constant_features_yield_leaf(self):
        X = np.ones((10, 3))
        y = np.array([0, 1] * 5)
        clf = C45Tree().fit(X, y)
        assert _depth(clf) == 0

    def test_max_candidate_features(self):
        rng = np.random.default_rng(0)
        X = rng.random((80, 20))
        y = (X[:, 0] > 0.5).astype(int)
        clf = C45Tree(max_candidate_features=5).fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.5  # still a working tree

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            C45Tree().predict(np.ones((1, 2)))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            C45Tree(max_depth=0)
        with pytest.raises(ValueError):
            C45Tree(min_samples_split=1)
        with pytest.raises(ValueError):
            C45Tree(min_samples_leaf=0)

    def test_feature_mismatch_raises(self):
        X = np.random.default_rng(0).random((20, 3))
        y = (X[:, 0] > 0.5).astype(int)
        clf = C45Tree().fit(X, y)
        with pytest.raises(ValueError):
            clf.predict(np.ones((1, 7)))

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        X = rng.random((100, 5))
        y = (X[:, 1] > 0.4).astype(int)
        a = C45Tree().fit(X, y).predict_proba(X)
        b = C45Tree().fit(X, y).predict_proba(X)
        assert np.allclose(a, b)

    def test_max_features_subsamples_candidates(self):
        rng = np.random.default_rng(2)
        X = rng.random((80, 10))
        y = (X[:, 0] > 0.5).astype(int)
        clf = C45Tree(max_features=2, seed=0).fit(X, y)
        assert clf.predict(X).shape == (80,)

    def test_max_features_seeded_refit_is_deterministic(self):
        # fit() draws its max_features subsets from a per-fit RNG
        # seeded with the constructor seed, so refitting the same
        # instance reproduces the identical tree.
        rng = np.random.default_rng(3)
        X = rng.random((120, 8))
        y = (X[:, 2] + X[:, 5] > 1.0).astype(int)
        clf = C45Tree(max_features=3, seed=42)
        first = clf.fit(X, y).to_text()
        second = clf.fit(X, y).to_text()
        assert first == second

    def test_max_features_clone_reproduces_tree(self):
        from repro.ml.base import clone

        rng = np.random.default_rng(4)
        X = rng.random((120, 8))
        y = (X[:, 0] - X[:, 4] > 0.0).astype(int)
        proto = C45Tree(max_features=3, seed=7)
        copy = clone(proto)
        assert copy.get_params() == proto.get_params()
        a = proto.fit(X, y)
        b = copy.fit(X, y)
        assert a.to_text() == b.to_text()
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


class TestTreeTextExport:
    def test_leaf_only_tree(self):
        X = np.ones((6, 2))
        y = np.array([0, 1, 0, 1, 0, 0])
        text = C45Tree().fit(X, y).to_text()
        assert text.startswith("class 0")

    def test_split_rendering_with_names(self):
        X = np.array([[0.1], [0.2], [0.8], [0.9]] * 3)
        y = np.array([0, 0, 1, 1] * 3)
        tree = C45Tree(min_samples_split=2, min_samples_leaf=1).fit(X, y)
        text = tree.to_text(feature_names=["tfidf_viagra"])
        assert "tfidf_viagra <=" in text
        assert "tfidf_viagra >" in text
        assert "class 0" in text and "class 1" in text

    def test_unfitted_raises(self):
        from repro.exceptions import NotFittedError

        with pytest.raises(NotFittedError):
            C45Tree().to_text()
