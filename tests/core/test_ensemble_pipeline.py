"""Tests for the ensemble pipeline."""

import numpy as np
import pytest

from repro.core.ensemble_pipeline import EnsembleClassificationPipeline
from repro.exceptions import NotFittedError
from repro.ml.metrics import accuracy, auc_roc


@pytest.fixture(scope="module")
def split(tiny_corpus):
    y = tiny_corpus.labels
    train = np.arange(0, len(y), 2)
    test = np.arange(1, len(y), 2)
    return train, test


class TestEnsemblePipeline:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_corpus, tiny_documents, split):
        train, _ = split
        pipeline = EnsembleClassificationPipeline(
            tiny_corpus, tiny_documents, seed=0, include_ngg_member=False
        )
        return pipeline.fit(train)

    def test_predicts_well(self, fitted, tiny_corpus, split):
        _, test = split
        y = tiny_corpus.labels
        assert accuracy(y[test], fitted.score(test).labels) > 0.9

    def test_auc_high(self, fitted, tiny_corpus, split):
        _, test = split
        y = tiny_corpus.labels
        assert auc_roc(y[test], fitted.score(test).scores) > 0.95

    def test_bag_contains_library_members(self, fitted):
        names = set(fitted.selection.bag_counts)
        assert names <= {"nbm-text", "svm-text", "j48-text", "mlp-ngg", "nb-network"}
        assert names

    def test_unfitted_raises(self, tiny_corpus, tiny_documents):
        pipeline = EnsembleClassificationPipeline(tiny_corpus, tiny_documents)
        with pytest.raises(NotFittedError):
            pipeline.score([0])

    def test_length_mismatch_rejected(self, tiny_corpus, tiny_documents):
        with pytest.raises(ValueError):
            EnsembleClassificationPipeline(tiny_corpus, tiny_documents[:-1])
