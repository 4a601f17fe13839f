"""Property tests: the vectorized ML kernels match the reference loops.

The mini-batch Pegasos SVM, the C4.5 split search, the ensemble
hill-climb, SMOTE's neighbour search, and the batched TF-IDF transform
all replaced per-sample/per-candidate Python loops (kept in
:mod:`tests.reference` as the equivalence oracle).  These tests
pin the equivalence on randomized, seeded inputs: bit-equal where the
arithmetic is identical, within 1e-9 where summation order differs.
The raw-CSR Pegasos kernel is also pinned bit-equal to the
scipy-indexing loop it replaced (:func:`scipy_indexing_pegasos`).
"""

import random

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse._base as sparse_base

from repro.ml.ensemble import EnsembleSelection, LibraryModel
from repro.ml.metrics import auc_roc, auc_roc_many
from repro.ml.sampling import SMOTE
from repro.ml.base import ensure_dense
from repro.data.deltas import StreamConfig, StreamCorpus, plan_deltas
from repro.data.synthesis import GeneratorConfig
from repro.ml.svm import LinearSVC, pegasos_weights
from repro.ml.tree import C45Tree
from repro.stream import DriftDetector, StreamingVerifier
from repro.text.term_vector import TfidfVectorizer

from tests.reference import (
    ReferenceC45Tree,
    ReferenceSMOTE,
    reference_ensemble_select,
    reference_ensure_dense,
    reference_pegasos_fit,
    reference_tfidf_transform,
)

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


def scipy_indexing_pegasos(
    X, signs, sample_weight, lam, n_epochs, seed, batch_size,
    init_weights=None, t0=0,
):
    """The CSR Pegasos loop before the raw-CSR kernel (the oracle).

    Each batch indexes ``X[batch]`` and ``X[batch][violators]`` with
    scipy, so its sums are scipy's ``csr_matvec`` and ``csc_matvec``.
    """
    n_samples, n_features = X.shape
    rng = np.random.default_rng(seed)
    if init_weights is None:
        w = np.zeros(n_features + 1, dtype=np.float64)
    else:
        w = np.array(init_weights, dtype=np.float64)
    coef_full = sample_weight * signs
    t = t0
    for _ in range(n_epochs):
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, batch_size):
            batch = order[start : start + batch_size]
            t += 1
            eta = 1.0 / (lam * t)
            Xb = X[batch]
            margins = signs[batch] * (Xb @ w[:-1] + w[-1])
            w *= 1.0 - eta * lam
            violators = margins < 1.0
            if not np.any(violators):
                continue
            coefs = (eta / batch.shape[0]) * coef_full[batch[violators]]
            w[:-1] += Xb[violators].T @ coefs
            w[-1] += coefs.sum()
    return w


def tfidf_shaped_problem(seed, n_samples=53, n_features=90, min_nnz=0, max_nnz=20):
    """Sparse nonnegative rows of varying length, rows 0, n/2 and n-1 empty."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(min_nnz, max_nnz + 1, size=n_samples)
    lengths[[0, n_samples // 2, n_samples - 1]] = 0
    cols = np.concatenate(
        [np.sort(rng.choice(n_features, size=k, replace=False)) for k in lengths]
    )
    X = sp.csr_matrix(
        (rng.random(cols.size), cols, np.concatenate([[0], np.cumsum(lengths)])),
        shape=(n_samples, n_features),
    )
    signs = np.where(rng.random(n_samples) < 0.3, 1.0, -1.0)
    sample_weight = np.where(signs > 0, 1.7, 0.6)
    return X, signs, sample_weight


def assert_pegasos_bit_equal(X, signs, sw, oracle_X=None, **kwargs):
    """Cold and warm (``init_weights``, ``t0 > 0``) fits equal the oracle.

    The oracle runs on ``oracle_X`` when given, else on ``X`` itself.
    """
    oracle_X = X if oracle_X is None else oracle_X
    cold = pegasos_weights(X, signs, sw, **kwargs)
    np.testing.assert_array_equal(
        cold, scipy_indexing_pegasos(oracle_X, signs, sw, **kwargs)
    )
    warm_kwargs = dict(kwargs, n_epochs=3, seed=kwargs["seed"] + 1)
    warm_kwargs.update(init_weights=cold, t0=17)
    np.testing.assert_array_equal(
        pegasos_weights(X, signs, sw, **warm_kwargs),
        scipy_indexing_pegasos(oracle_X, signs, sw, **warm_kwargs),
    )
    return cold


def stream_weekly_matrix():
    """The ``stream_weekly`` benchmark's seed-1 live rows after tick 50."""
    n_sites = 400
    config = GeneratorConfig(
        n_legitimate=n_sites // 4,
        n_illegitimate=n_sites - n_sites // 4,
        n_affiliate_hubs=n_sites // 20,
        min_pages=3,
        max_pages=6,
        min_terms_per_page=60,
        max_terms_per_page=120,
        seed=1,
    )
    stream = StreamConfig(
        n_ticks=50,
        birth_fraction=0.015,
        death_fraction=0.01,
        drift_fraction=0.01,
        rewire_fraction=0.01,
    )
    corpus = StreamCorpus.generate(config)
    verifier = StreamingVerifier(
        corpus, detector=DriftDetector(max_ticks_between_retrains=4)
    )
    verifier.bootstrap()
    for delta in plan_deltas(config, stream):
        verifier.apply_tick(delta)
    return verifier._matrix, verifier._labels_array(corpus.domains())


class TestPegasosCsrBitEquality:
    """The raw-CSR kernel against the scipy-indexing loop, bit for bit."""

    @pytest.mark.parametrize("batch_size", [1, 7, 32])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_empty_rows_and_partial_last_batch(self, seed, batch_size):
        X, signs, sw = tfidf_shaped_problem(seed)
        assert X.shape[0] % batch_size or batch_size == 1
        assert np.count_nonzero(np.diff(X.indptr) == 0) >= 3
        assert_pegasos_bit_equal(
            X, signs, sw, lam=1e-3, n_epochs=4, seed=seed, batch_size=batch_size
        )

    @pytest.mark.parametrize("batch_size", [1, 7, 32])
    def test_rows_with_many_nonzeros(self, batch_size):
        # Eight or more entries per row: where a pairwise summation
        # (``np.add.reduceat``) would start to differ from scipy's.
        X, signs, sw = tfidf_shaped_problem(
            5, n_samples=70, n_features=200, min_nnz=8, max_nnz=60
        )
        assert np.count_nonzero(np.diff(X.indptr) >= 8) == X.shape[0] - 3
        assert_pegasos_bit_equal(
            X, signs, sw, lam=1e-4, n_epochs=5, seed=3, batch_size=batch_size
        )

    def test_batches_with_no_and_with_all_violators(self):
        n = 40
        X = sp.csr_matrix(
            (np.ones(n), np.where(np.arange(n) % 2, 0, 1), np.arange(n + 1)),
            shape=(n, 3),
        )
        signs = np.where(np.arange(n) % 2, 1.0, -1.0)
        sw = np.ones(n)
        kwargs = dict(lam=1e-3, n_epochs=2, seed=4, batch_size=8)
        # From zero weights every margin is 0: the first batch all violate.
        assert_pegasos_bit_equal(X, signs, sw, **kwargs)
        # Margins of 10 everywhere: the first batch has no violator.
        separating = np.array([10.0, -10.0, 0.0, 0.0])
        assert np.all(signs * (X @ separating[:-1] + separating[-1]) >= 1.0)
        np.testing.assert_array_equal(
            pegasos_weights(X, signs, sw, init_weights=separating, t0=5000, **kwargs),
            scipy_indexing_pegasos(
                X, signs, sw, init_weights=separating, t0=5000, **kwargs
            ),
        )

    def test_margin_at_one_follows_scipy_summation_order(self):
        # 1 - 8 * 3e-17 summed one term at a time stays 1.0 (no
        # violation); summed pairwise it drops below 1.0 (a violation).
        weights = np.array([1.0] + [-3e-17] * 8 + [0.0, 0.0])
        X = sp.csr_matrix(
            np.vstack([np.r_[np.ones(9), 0.0], np.r_[np.zeros(9), 1.0]])
        )
        products = X[0].data * weights[X[0].indices]
        assert X[0] @ weights[:-1] == 1.0
        assert np.add.reduceat(products, [0])[0] < 1.0
        signs, sw = np.ones(2), np.ones(2)
        kwargs = dict(lam=1e-3, n_epochs=1, seed=0, batch_size=2)
        np.testing.assert_array_equal(
            pegasos_weights(X, signs, sw, init_weights=weights, t0=10, **kwargs),
            scipy_indexing_pegasos(
                X, signs, sw, init_weights=weights, t0=10, **kwargs
            ),
        )

    def test_unsorted_column_indices(self):
        X, signs, sw = tfidf_shaped_problem(8)
        reversed_rows = X.copy()
        for i in range(X.shape[0]):
            lo, hi = X.indptr[i], X.indptr[i + 1]
            reversed_rows.indices[lo:hi] = X.indices[lo:hi][::-1]
            reversed_rows.data[lo:hi] = X.data[lo:hi][::-1]
        reversed_rows.has_sorted_indices = False
        kwargs = dict(lam=1e-3, n_epochs=3, seed=2, batch_size=7)
        assert_pegasos_bit_equal(reversed_rows, signs, sw, **kwargs)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_index_dtypes(self, index_dtype):
        X, signs, sw = tfidf_shaped_problem(9)
        X.indptr = X.indptr.astype(index_dtype)
        X.indices = X.indices.astype(index_dtype)
        assert X.indptr.dtype == index_dtype
        assert_pegasos_bit_equal(
            X, signs, sw, lam=1e-3, n_epochs=3, seed=6, batch_size=7
        )

    @pytest.mark.parametrize("data_dtype", [np.float32, np.int64])
    def test_float32_and_integer_data(self, data_dtype):
        # scipy upcasts the data to float64 inside each product; the
        # kernel converts it once per fit.
        X, signs, sw = tfidf_shaped_problem(12)
        X.data = (10.0 * X.data).astype(data_dtype)
        assert X.dtype == data_dtype
        assert_pegasos_bit_equal(
            X, signs, sw, lam=1e-3, n_epochs=3, seed=7, batch_size=7
        )

    @pytest.mark.parametrize("fmt", ["csc", "coo"])
    def test_csc_and_coo_input(self, fmt):
        # The oracle runs on the CSR form that :func:`pegasos_weights`
        # converts to: COO cannot be row-indexed, and CSC's own row
        # indexing and products sum in another order.
        X, signs, sw = tfidf_shaped_problem(13)
        assert_pegasos_bit_equal(
            X.asformat(fmt), signs, sw, oracle_X=X.asformat(fmt).tocsr(),
            lam=1e-3, n_epochs=3, seed=8, batch_size=7,
        )

    def test_duplicate_column_entries(self):
        X, signs, sw = tfidf_shaped_problem(15)
        indices = X.indices.copy()
        for i in range(X.shape[0]):
            lo, hi = X.indptr[i], X.indptr[i + 1]
            if hi - lo >= 3:
                indices[lo + 1 : lo + 3] = indices[lo]
        X = sp.csr_matrix((X.data, indices, X.indptr), shape=X.shape)
        assert not X.has_canonical_format
        assert_pegasos_bit_equal(
            X, signs, sw, lam=1e-3, n_epochs=3, seed=11, batch_size=7
        )

    @pytest.mark.parametrize(
        "data_dtype, index_dtype", [(np.float64, np.int32), (np.float32, np.int64)]
    )
    def test_caller_arrays_unchanged(self, data_dtype, index_dtype):
        X, signs, sw = tfidf_shaped_problem(16)
        X.data = X.data.astype(data_dtype)
        X.indptr = X.indptr.astype(index_dtype)
        X.indices = X.indices.astype(index_dtype)
        arrays = (X.indptr, X.indices, X.data)
        before = [a.copy() for a in arrays]
        assert_pegasos_bit_equal(
            X, signs, sw, lam=1e-3, n_epochs=3, seed=12, batch_size=7
        )
        for array, now in zip(arrays, (X.indptr, X.indices, X.data)):
            assert now is array
        for array, copy in zip(arrays, before):
            assert array.dtype == copy.dtype
            np.testing.assert_array_equal(array, copy)

    def test_no_sparse_object_per_batch(self, monkeypatch):
        # Neither a batch nor the per-epoch gather builds a scipy object.
        X, signs, sw = tfidf_shaped_problem(17)
        built = []
        init = sparse_base._spbase.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sparse_base._spbase, "__init__", counting_init)
        sp.csr_array(X)
        assert built == ["csr_array"]
        built.clear()
        pegasos_weights(X, signs, sw, lam=1e-3, n_epochs=3, seed=13, batch_size=7)
        assert built == []

    def test_stream_weekly_live_matrix(self):
        X, y = stream_weekly_matrix()
        svm = LinearSVC()
        X, signs, sw = svm._prepare(X, y)
        assert_pegasos_bit_equal(
            X, signs, sw, lam=1e-4, n_epochs=30, seed=0, batch_size=32
        )


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
