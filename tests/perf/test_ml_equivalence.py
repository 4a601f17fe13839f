"""Property tests: the vectorized ML kernels match the reference loops.

The mini-batch Pegasos SVM, the C4.5 split search, the ensemble
hill-climb, SMOTE's neighbour search, and the batched TF-IDF transform
all replaced per-sample/per-candidate Python loops (kept in
:mod:`repro.perf.reference` as the equivalence oracle).  These tests
pin the equivalence on randomized, seeded inputs: bit-equal where the
arithmetic is identical, within 1e-9 where summation order differs.
"""

import random

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ml.ensemble import EnsembleSelection, LibraryModel
from repro.ml.metrics import auc_roc, auc_roc_many
from repro.ml.sampling import SMOTE
from repro.ml.base import ensure_dense
from repro.ml.svm import pegasos_weights
from repro.ml.tree import C45Tree
from repro.perf.reference import (
    ReferenceC45Tree,
    ReferenceSMOTE,
    reference_ensemble_select,
    reference_ensure_dense,
    reference_pegasos_fit,
    reference_tfidf_transform,
)
from repro.text.term_vector import TfidfVectorizer

VOCAB = [f"term{i}" for i in range(40)]


def random_margin_problem(seed, n_samples=60, n_features=25, sparse=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_samples, n_features))
    signs = np.where(rng.random(n_samples) < 0.4, -1.0, 1.0)
    X += 0.5 * signs[:, None]
    sample_weight = rng.choice([0.5, 1.0, 2.0], size=n_samples)
    if sparse:
        X[rng.random(X.shape) < 0.6] = 0.0
        return sp.csr_matrix(X), signs, sample_weight
    return X, signs, sample_weight


def random_documents(rng, n_docs, min_len=5, max_len=40):
    return [
        [rng.choice(VOCAB) for _ in range(rng.randint(min_len, max_len))]
        for _ in range(n_docs)
    ]


def assert_transform_matches_reference(vectorizer, documents):
    fast = vectorizer.transform(documents)
    slow = reference_tfidf_transform(vectorizer, documents)
    assert fast.shape == slow.shape
    np.testing.assert_array_equal(fast.indptr, slow.indptr)
    np.testing.assert_array_equal(fast.indices, slow.indices)
    np.testing.assert_array_equal(fast.data, slow.data)
    return fast


class TestPegasosEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("batch_size", [1, 7, 16])
    def test_dense_matches_reference(self, seed, batch_size):
        X, signs, sw = random_margin_problem(seed)
        kwargs = dict(
            lam=1e-3, n_epochs=4, seed=seed, batch_size=batch_size
        )
        fast = pegasos_weights(X, signs, sw, **kwargs)
        slow = reference_pegasos_fit(X, signs, sw, **kwargs)
        np.testing.assert_allclose(fast, slow, atol=1e-9)

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_sparse_matches_reference(self, seed, batch_size):
        X, signs, sw = random_margin_problem(seed, sparse=True)
        kwargs = dict(
            lam=1e-3, n_epochs=4, seed=seed, batch_size=batch_size
        )
        fast = pegasos_weights(X, signs, sw, **kwargs)
        slow = reference_pegasos_fit(X, signs, sw, **kwargs)
        np.testing.assert_allclose(fast, slow, atol=1e-9)

    def test_batch_size_one_dense_is_bit_equal(self):
        # With one sample per step the fast path performs the exact
        # same scalar operations in the same order as the loop.
        X, signs, sw = random_margin_problem(7)
        kwargs = dict(lam=1e-3, n_epochs=3, seed=5, batch_size=1)
        fast = pegasos_weights(X, signs, sw, **kwargs)
        slow = reference_pegasos_fit(X, signs, sw, **kwargs)
        np.testing.assert_array_equal(fast, slow)

    def test_sparse_and_dense_agree(self):
        X, signs, sw = random_margin_problem(11)
        kwargs = dict(lam=1e-3, n_epochs=3, seed=0, batch_size=8)
        dense = pegasos_weights(X, signs, sw, **kwargs)
        sparse = pegasos_weights(sp.csr_matrix(X), signs, sw, **kwargs)
        np.testing.assert_allclose(sparse, dense, atol=1e-9)


class TestC45Equivalence:
    @staticmethod
    def _random_problem(seed, n_samples=120, n_features=12):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n_samples, n_features))
        # Quantize some columns so duplicate values (and therefore
        # skipped split candidates) actually occur.
        X[:, ::3] = np.round(X[:, ::3], 1)
        y = (X[:, 0] + 0.5 * X[:, 1] - 0.25 * X[:, 2] > 0).astype(int)
        return X, y

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_default_params_identical_tree(self, seed):
        X, y = self._random_problem(seed)
        fast = C45Tree().fit(X, y)
        slow = ReferenceC45Tree().fit(X, y)
        assert fast.to_text() == slow.to_text()
        np.testing.assert_array_equal(fast.predict(X), slow.predict(X))
        np.testing.assert_array_equal(
            fast.predict_proba(X), slow.predict_proba(X)
        )

    @pytest.mark.parametrize("seed", [4, 5])
    @pytest.mark.parametrize(
        "params",
        [
            {"max_candidate_features": 6},
            {"max_features": 4, "seed": 13},
            {"max_depth": 3, "min_samples_leaf": 5},
            {"confidence_factor": None},
        ],
    )
    def test_hyperparameter_grid_identical_tree(self, seed, params):
        X, y = self._random_problem(seed)
        fast = C45Tree(**params).fit(X, y)
        slow = ReferenceC45Tree(**params).fit(X, y)
        assert fast.to_text() == slow.to_text()
        np.testing.assert_array_equal(
            fast.predict_proba(X), slow.predict_proba(X)
        )

    def test_three_class_problem(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(150, 8))
        y = np.digitize(X[:, 0] + 0.3 * X[:, 1], [-0.5, 0.5])
        fast = C45Tree().fit(X, y)
        slow = ReferenceC45Tree().fit(X, y)
        assert fast.to_text() == slow.to_text()
        np.testing.assert_array_equal(
            fast.predict_proba(X), slow.predict_proba(X)
        )


class TestEnsembleEquivalence:
    @staticmethod
    def _random_library(seed, n_models=10, n_instances=80):
        rng = np.random.default_rng(seed)
        y = (rng.random(n_instances) < 0.4).astype(int)
        predictions = {}
        for m in range(n_models):
            p = np.clip(
                0.6 * y + 0.2 + rng.normal(scale=0.3, size=n_instances),
                0.0,
                1.0,
            )
            predictions[f"model{m:02d}"] = np.column_stack([1.0 - p, p])
        return predictions, y

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bag_matches_reference(self, seed):
        predictions, y = self._random_library(seed)
        library = [
            LibraryModel(name, lambda idx, p=proba: p[idx])
            for name, proba in predictions.items()
        ]
        selector = EnsembleSelection()
        selector.fit(library, np.arange(y.size), y)
        expected = reference_ensemble_select(predictions, y)
        assert selector.bag_counts == expected

    @pytest.mark.parametrize("n_init,max_rounds", [(1, 5), (3, 12), (2, 0)])
    def test_bag_matches_reference_across_knobs(self, n_init, max_rounds):
        predictions, y = self._random_library(9)
        library = [
            LibraryModel(name, lambda idx, p=proba: p[idx])
            for name, proba in predictions.items()
        ]
        selector = EnsembleSelection(n_init=n_init, max_rounds=max_rounds)
        selector.fit(library, np.arange(y.size), y)
        expected = reference_ensemble_select(
            predictions, y, n_init=n_init, max_rounds=max_rounds
        )
        assert selector.bag_counts == expected

    def test_custom_metric_matches_reference(self):
        predictions, y = self._random_library(12)
        library = [
            LibraryModel(name, lambda idx, p=proba: p[idx])
            for name, proba in predictions.items()
        ]

        def neg_brier(y_true, scores):
            return -float(np.mean((scores - y_true) ** 2))

        selector = EnsembleSelection(metric=neg_brier)
        selector.fit(library, np.arange(y.size), y)
        expected = reference_ensemble_select(predictions, y, metric=neg_brier)
        assert selector.bag_counts == expected


class TestSMOTEEquivalence:
    @staticmethod
    def _random_imbalanced(seed, n_minority=40, n_features=12):
        rng = np.random.default_rng(seed)
        X_min = rng.normal(size=(n_minority, n_features))
        X_maj = rng.normal(loc=2.0, size=(3 * n_minority, n_features))
        X = np.vstack([X_min, X_maj])
        y = np.concatenate(
            [np.zeros(n_minority, dtype=int), np.ones(3 * n_minority, dtype=int)]
        )
        return X, y

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("chunk_size", [1, 7, 512])
    def test_bit_equal_at_any_chunk_size(self, seed, chunk_size):
        X, y = self._random_imbalanced(seed)
        fast_X, fast_y = SMOTE(seed=seed, chunk_size=chunk_size).fit_resample(
            X, y
        )
        slow_X, slow_y = ReferenceSMOTE(seed=seed).fit_resample(X, y)
        np.testing.assert_array_equal(fast_X, slow_X)
        np.testing.assert_array_equal(fast_y, slow_y)

    def test_small_block_and_custom_k(self):
        X, y = self._random_imbalanced(5, n_minority=4)
        fast = SMOTE(k_neighbors=2, seed=3).fit_resample(X, y)
        slow = ReferenceSMOTE(k_neighbors=2, seed=3).fit_resample(X, y)
        np.testing.assert_array_equal(fast[0], slow[0])
        np.testing.assert_array_equal(fast[1], slow[1])

    def test_sparse_input_matches_reference(self):
        X, y = self._random_imbalanced(8)
        X[np.abs(X) < 0.8] = 0.0
        fast = SMOTE(seed=1).fit_resample(sp.csr_matrix(X), y)
        slow = ReferenceSMOTE(seed=1).fit_resample(sp.csr_matrix(X), y)
        np.testing.assert_array_equal(fast[0], slow[0])
        np.testing.assert_array_equal(fast[1], slow[1])


class TestTfidfEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "sublinear_tf,normalize",
        [(False, True), (True, True), (False, False), (True, False)],
    )
    def test_transform_bit_identical(self, seed, sublinear_tf, normalize):
        rng = random.Random(seed)
        train = random_documents(rng, 20)
        test = random_documents(rng, 12)
        # Unseen terms must be skipped identically.
        test[0] = test[0] + ["never-seen-term"]
        test[1] = []
        vectorizer = TfidfVectorizer(
            sublinear_tf=sublinear_tf, normalize=normalize
        )
        vectorizer.fit(train)
        assert_transform_matches_reference(vectorizer, test)

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize(
        "case",
        [
            "all_oov_document",
            "no_token_in_vocabulary",
            "zero_documents",
            "tuple_documents",
            "oov_last_token",
        ],
    )
    def test_transform_edge_batches_bit_identical(self, case, normalize):
        """Out-of-vocabulary masking at the batch's edges: every lookup
        that misses must drop exactly its own entry and row id."""
        rng = random.Random(11)
        vectorizer = TfidfVectorizer(normalize=normalize)
        vectorizer.fit(random_documents(rng, 20))
        test = random_documents(rng, 6)
        if case == "all_oov_document":
            test[2] = ["never-seen", "oov-term", "never-seen"]
        elif case == "no_token_in_vocabulary":
            test = [["never-seen"], [], ["oov-a", "oov-b", "oov-a"]]
        elif case == "zero_documents":
            test = []
        elif case == "tuple_documents":
            test = [tuple(doc) for doc in test]  # as SummaryDocument.tokens
            test[0] = test[0] + ("never-seen",)
        elif case == "oov_last_token":
            test[-1] = test[-1] + ["never-seen"]
        fast = assert_transform_matches_reference(vectorizer, test)
        assert fast.shape == (len(test), len(vectorizer.vocabulary))


class TestAucManyEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_looped_auc(self, seed):
        rng = np.random.default_rng(seed)
        y = (rng.random(70) < 0.35).astype(int)
        scores = rng.random(size=(9, 70))
        # Force heavy ties in some rows (tie handling is the hard part).
        scores[0] = np.round(scores[0], 1)
        scores[1] = 0.5
        scores[2, :] = y  # perfect ranking
        batched = auc_roc_many(y, scores)
        looped = np.array([auc_roc(y, row) for row in scores])
        np.testing.assert_allclose(batched, looped, atol=1e-9)


class TestEnsureDenseEquivalence:
    """The dtype-aware densify must match the np.matrix-routed
    reference bit-for-bit on every dtype branch it dispatches on."""

    @pytest.mark.parametrize(
        "dtype",
        [np.float64, np.float32, np.int64, np.int32, np.bool_],
    )
    def test_sparse_input_matches_reference(self, dtype):
        base = sp.random(40, 17, density=0.2, format="csr", random_state=7)
        X = (base * 10).astype(dtype)
        fast = ensure_dense(X)
        slow = reference_ensure_dense(X)
        assert fast.dtype == slow.dtype == np.float64
        np.testing.assert_array_equal(fast, slow)

    def test_dense_and_1d_inputs_match_reference(self):
        rng = np.random.default_rng(5)
        dense = rng.normal(size=(12, 4))
        np.testing.assert_array_equal(
            ensure_dense(dense), reference_ensure_dense(dense)
        )
        column = rng.normal(size=9)
        fast = ensure_dense(column)
        assert fast.shape == (9, 1)
        np.testing.assert_array_equal(fast, reference_ensure_dense(column))
