"""Tests for the cross-validation evaluation harness."""

import numpy as np
import pytest

from repro.core.evaluation import (
    AggregatedReport,
    PipelineScores,
    cross_validate_indexed,
    cross_validate_pipeline,
    train_test_evaluate,
)
from repro.ml.metrics import BinaryClassificationReport


def report(acc):
    return BinaryClassificationReport(
        accuracy=acc,
        legitimate_precision=acc,
        legitimate_recall=acc,
        illegitimate_precision=acc,
        illegitimate_recall=acc,
        auc_roc=acc,
    )


class FakePipeline:
    """Scores are the scalar 'documents' it receives, cut at 0.5."""

    def fit(self, documents, y):
        return self

    def score(self, documents):
        scores = np.asarray(documents, dtype=float)
        return PipelineScores(
            labels=(scores > 0.5).astype(int), scores=scores, proba=scores, rank=scores
        )


class TestAggregatedReport:
    def test_measure_mean_and_ci(self):
        agg = AggregatedReport(fold_reports=(report(0.8), report(0.9), report(1.0)))
        summary = agg.measure("accuracy")
        assert summary.mean == pytest.approx(0.9)
        assert summary.ci_half_width > 0

    def test_named_properties(self):
        agg = AggregatedReport(fold_reports=(report(0.7),))
        assert agg.auc_roc.mean == pytest.approx(0.7)
        assert agg.legitimate_recall.mean == pytest.approx(0.7)

    def test_as_dict(self):
        agg = AggregatedReport(fold_reports=(report(0.6),))
        d = agg.as_dict()
        assert len(d) == 6
        assert all(v == pytest.approx(0.6) for v in d.values())

    def test_format_protocol(self):
        agg = AggregatedReport(fold_reports=(report(0.875),))
        assert f"{agg.accuracy:.2f}" == "0.88"


class TestCrossValidatePipeline:
    def test_perfect_pipeline_scores_one(self):
        # Documents are scores: legit docs = 0.9, illegit = 0.1.
        documents = [0.9] * 6 + [0.1] * 18
        y = [1] * 6 + [0] * 18
        agg = cross_validate_pipeline(FakePipeline, documents, y, n_folds=3)
        assert agg.accuracy.mean == pytest.approx(1.0)
        assert agg.auc_roc.mean == pytest.approx(1.0)
        assert len(agg.fold_reports) == 3


class TestCrossValidateIndexed:
    def test_fold_callback_receives_indices(self):
        y = np.array([1] * 6 + [0] * 18)
        calls = []

        def fit_predict(train_idx, test_idx):
            calls.append((len(train_idx), len(test_idx)))
            return y[test_idx], y[test_idx].astype(float)

        agg = cross_validate_indexed(fit_predict, y, n_folds=3)
        assert len(calls) == 3
        assert all(tr + te == 24 for tr, te in calls)
        assert agg.accuracy.mean == pytest.approx(1.0)


class TestTrainTestEvaluate:
    def test_cross_dataset(self):
        train_docs = [0.9] * 4 + [0.1] * 8
        y_train = [1] * 4 + [0] * 8
        test_docs = [0.8] * 2 + [0.2] * 4
        y_test = [1] * 2 + [0] * 4
        result = train_test_evaluate(
            FakePipeline, train_docs, y_train, test_docs, y_test
        )
        assert result.accuracy == pytest.approx(1.0)


class TestFeaturizeOnce:
    """Every test document is featurized once: one ``score`` per fold."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        from repro.text.ngram_graph import NGramGraph
        from repro.text.term_vector import TfidfVectorizer

        counts = {"tfidf_rows": 0, "graphs": 0}
        transform = TfidfVectorizer.transform
        from_text = NGramGraph.from_text

        def counting_transform(self, documents):
            matrix = transform(self, documents)
            counts["tfidf_rows"] += matrix.shape[0]
            return matrix

        def counting_from_text(text, n=4, window=4):
            counts["graphs"] += 1
            return from_text(text, n=n, window=window)

        monkeypatch.setattr(TfidfVectorizer, "transform", counting_transform)
        monkeypatch.setattr(NGramGraph, "from_text", counting_from_text)
        return counts

    @staticmethod
    def factories():
        from repro.core.text_pipeline import NGramGraphTextPipeline, TfidfTextPipeline
        from repro.ml.naive_bayes import GaussianNB, MultinomialNB

        return (
            lambda: TfidfTextPipeline(MultinomialNB()),
            lambda: NGramGraphTextPipeline(GaussianNB(), seed=0),
        )

    def test_cross_validation(self, counts, tiny_corpus, tiny_documents):
        assert len(tiny_documents) == 100
        for factory in self.factories():
            cross_validate_pipeline(factory, tiny_documents, tiny_corpus.labels, n_folds=3)
        # 200 training rows across the folds, then each of the 100 test rows once.
        assert counts == {"tfidf_rows": 300, "graphs": 300}

    def test_train_test_evaluate(self, counts, tiny_corpus, tiny_documents):
        y = tiny_corpus.labels
        for factory in self.factories():
            train_test_evaluate(
                factory, tiny_documents[::2], y[::2], tiny_documents[1::2], y[1::2]
            )
        assert counts == {"tfidf_rows": 100, "graphs": 100}
