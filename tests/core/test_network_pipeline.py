"""Tests for the TrustRank network classification pipeline."""

import numpy as np
import pytest

from repro.core.network_pipeline import NetworkClassificationPipeline
from repro.core.verifier import PharmacyVerifier
from repro.exceptions import NotFittedError
from repro.ml.metrics import accuracy


class TestNetworkPipeline:
    def test_fit_predict_shapes(self, tiny_corpus):
        y = tiny_corpus.labels
        train = np.arange(0, len(y), 2)
        test = np.arange(1, len(y), 2)
        pipeline = NetworkClassificationPipeline(tiny_corpus).fit(train)
        preds = pipeline.score(test).labels
        assert preds.shape == test.shape
        assert set(preds) <= {0, 1}

    def test_better_than_chance(self, tiny_corpus):
        y = tiny_corpus.labels
        train = np.arange(0, len(y), 2)
        test = np.arange(1, len(y), 2)
        pipeline = NetworkClassificationPipeline(tiny_corpus).fit(train)
        assert accuracy(y[test], pipeline.score(test).labels) > 0.85

    def test_decision_scores_order_classes(self, tiny_corpus):
        y = tiny_corpus.labels
        train = np.arange(0, len(y), 2)
        test = np.arange(1, len(y), 2)
        pipeline = NetworkClassificationPipeline(tiny_corpus).fit(train)
        scores = pipeline.score(test).scores
        assert scores[y[test] == 1].mean() > scores[y[test] == 0].mean()

    def test_network_rank_uses_trust_values(self, tiny_corpus):
        y = tiny_corpus.labels
        train = np.arange(0, len(y), 2)
        pipeline = NetworkClassificationPipeline(tiny_corpus).fit(train)
        ranks = pipeline.score(np.arange(len(y))).rank
        assert np.all(ranks >= 0)
        # Seed legit pharmacies hold teleport mass -> highest ranks.
        seed_legit = [i for i in train if y[i] == 1]
        assert ranks[seed_legit].mean() > ranks.mean()

    def test_network_rank_equals_verifier(self, tiny_corpus):
        """One networkRank: the verifier and the pipeline read one stage."""
        everything = np.arange(len(tiny_corpus))
        reports = PharmacyVerifier(seed=0).fit(tiny_corpus).verify_sites(
            tiny_corpus.sites
        )
        pipeline = NetworkClassificationPipeline(tiny_corpus).fit(everything)
        ranks = pipeline.score(everything).rank
        assert [r.network_rank for r in reports] == ranks.tolist()

    def test_unfitted_raises(self, tiny_corpus):
        with pytest.raises(NotFittedError):
            NetworkClassificationPipeline(tiny_corpus).score([0])

    def test_feature_matrix_exposed(self, tiny_corpus):
        y = tiny_corpus.labels
        pipeline = NetworkClassificationPipeline(tiny_corpus)
        pipeline.fit(np.arange(len(y)))
        matrix = pipeline.feature_matrix
        assert matrix.features.shape[0] == len(y)
        assert "outlink_trust" in matrix.feature_names

    def test_anti_trustrank_option(self, tiny_corpus):
        y = tiny_corpus.labels
        train = np.arange(0, len(y), 2)
        pipeline = NetworkClassificationPipeline(
            tiny_corpus, include_anti_trustrank=True
        ).fit(train)
        assert "outlink_distrust" in pipeline.feature_matrix.feature_names
        preds = pipeline.score(np.arange(1, len(y), 2)).labels
        assert preds.shape[0] == len(y) // 2
