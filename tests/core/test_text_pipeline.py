"""Tests for the TF-IDF and N-Gram-Graph text pipelines."""

import numpy as np
import pytest

from repro.core.text_pipeline import NGramGraphTextPipeline, TfidfTextPipeline
from repro.exceptions import NotFittedError
from repro.ml.naive_bayes import MultinomialNB
from repro.ml.sampling import RandomUnderSampler
from repro.ml.svm import LinearSVC
from repro.text.summarization import SummaryDocument


def doc(domain, text):
    tokens = tuple(text.split())
    return SummaryDocument(domain=domain, tokens=tokens, n_source_terms=len(tokens))


@pytest.fixture()
def toy_docs():
    legit = [
        doc(f"l{i}.com", "licensed pharmacy verified prescription consultation health")
        for i in range(6)
    ]
    illegit = [
        doc(f"b{i}.net", "cheap viagra cialis pills discount bonus prescription")
        for i in range(12)
    ]
    return legit + illegit, np.array([1] * 6 + [0] * 12)


class TestTfidfTextPipeline:
    def test_fit_predict(self, toy_docs):
        docs, y = toy_docs
        pipeline = TfidfTextPipeline(MultinomialNB()).fit(docs, y)
        assert (pipeline.predict(docs) == y).all()

    def test_decision_scores_separate(self, toy_docs):
        docs, y = toy_docs
        pipeline = TfidfTextPipeline(MultinomialNB()).fit(docs, y)
        scores = pipeline.decision_scores(docs)
        assert scores[y == 1].min() > scores[y == 0].max()

    def test_text_rank_probabilistic_default(self, toy_docs):
        docs, y = toy_docs
        pipeline = TfidfTextPipeline(MultinomialNB()).fit(docs, y)
        ranks = pipeline.text_rank(docs)
        assert np.all((0 <= ranks) & (ranks <= 1))
        # Membership probabilities, not hard labels.
        assert not set(np.unique(ranks)) <= {0.0, 1.0}

    def test_text_rank_svm_is_hard_labels(self, toy_docs):
        """Per Section 5: non-probabilistic classifiers contribute 0/1."""
        docs, y = toy_docs
        pipeline = TfidfTextPipeline(LinearSVC(n_epochs=10)).fit(docs, y)
        ranks = pipeline.text_rank(docs)
        assert set(np.unique(ranks)) <= {0.0, 1.0}

    def test_probabilistic_rank_override(self, toy_docs):
        docs, y = toy_docs
        pipeline = TfidfTextPipeline(
            LinearSVC(n_epochs=10), probabilistic_rank=True
        ).fit(docs, y)
        ranks = pipeline.text_rank(docs)
        assert not set(np.unique(ranks)) <= {0.0, 1.0}

    def test_sampler_applied(self, toy_docs):
        docs, y = toy_docs
        pipeline = TfidfTextPipeline(
            MultinomialNB(), sampler=RandomUnderSampler(seed=0)
        ).fit(docs, y)
        assert (pipeline.predict(docs) == y).mean() > 0.9

    def test_unfitted_raises(self, toy_docs):
        docs, _ = toy_docs
        with pytest.raises(NotFittedError):
            TfidfTextPipeline(MultinomialNB()).predict(docs)

    def test_classifier_prototype_not_mutated(self, toy_docs):
        docs, y = toy_docs
        prototype = MultinomialNB()
        TfidfTextPipeline(prototype).fit(docs, y)
        with pytest.raises(NotFittedError):
            prototype.predict(np.ones((1, 2)))


class TestScore:
    """``score`` is the three scoring calls fused over one transform."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TfidfTextPipeline(MultinomialNB()),
            lambda: TfidfTextPipeline(LinearSVC(n_epochs=10)),
            lambda: TfidfTextPipeline(LinearSVC(n_epochs=10), calibrate=True),
        ],
        ids=["nb", "svm", "calibrated-svm"],
    )
    def test_equals_separate_calls_with_one_transform(self, make, toy_docs):
        docs, y = toy_docs
        pipeline = make().fit(docs, y)
        expected = (
            pipeline.predict_proba(docs)[:, -1],
            pipeline.predict(docs),
            pipeline.text_rank(docs),
        )
        vectorizer = pipeline._vectorizer
        calls = []

        def counting_transform(documents):
            calls.append(len(documents))
            return type(vectorizer).transform(vectorizer, documents)

        vectorizer.transform = counting_transform
        proba, labels, ranks = pipeline.score(docs)
        assert calls == [len(docs)]
        np.testing.assert_array_equal(proba, expected[0])
        np.testing.assert_array_equal(labels, expected[1])
        np.testing.assert_array_equal(ranks, expected[2])
        assert labels.dtype == expected[1].dtype
        assert ranks.dtype == expected[2].dtype


class TestNGramGraphTextPipeline:
    def test_fit_predict(self, toy_docs):
        docs, y = toy_docs
        from repro.ml.naive_bayes import GaussianNB

        pipeline = NGramGraphTextPipeline(GaussianNB(), seed=0).fit(docs, y)
        assert (pipeline.predict(docs) == y).mean() > 0.9

    def test_text_rank_is_equation3(self, toy_docs):
        docs, y = toy_docs
        from repro.ml.naive_bayes import GaussianNB

        pipeline = NGramGraphTextPipeline(
            GaussianNB(), class_sample_fraction=1.0, seed=0
        ).fit(docs, y)
        ranks = pipeline.text_rank(docs)
        # Equation 3 is a sum of 8 terms, 4 in [0,1] and 4 of (1 - s).
        assert np.all(ranks >= 0)
        assert np.all(ranks <= 8)
        # Legit docs should outrank illegit ones.
        assert ranks[y == 1].mean() > ranks[y == 0].mean()

    def test_unfitted_raises(self, toy_docs):
        docs, _ = toy_docs
        from repro.ml.naive_bayes import GaussianNB

        with pytest.raises(NotFittedError):
            NGramGraphTextPipeline(GaussianNB()).predict(docs)

    def test_class_graph_model_exposed(self, toy_docs):
        docs, y = toy_docs
        from repro.ml.naive_bayes import GaussianNB

        pipeline = NGramGraphTextPipeline(GaussianNB(), seed=0).fit(docs, y)
        assert set(pipeline.class_graph_model.classes) == {0, 1}


class TestCalibratedTfidfPipeline:
    def test_calibrated_svm_gives_continuous_probabilities(self, toy_docs):
        docs, y = toy_docs
        pipeline = TfidfTextPipeline(
            LinearSVC(n_epochs=10), calibrate=True, seed=0
        ).fit(docs, y)
        proba = pipeline.predict_proba(docs)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert not set(np.unique(np.round(proba[:, 1], 6))) <= {0.0, 1.0}

    def test_calibrated_text_rank_is_probabilistic(self, toy_docs):
        docs, y = toy_docs
        pipeline = TfidfTextPipeline(
            LinearSVC(n_epochs=10), calibrate=True, seed=0
        ).fit(docs, y)
        ranks = pipeline.text_rank(docs)
        assert np.all((ranks >= 0) & (ranks <= 1))
        assert not set(np.unique(ranks)) <= {0.0, 1.0}

    def test_calibrated_predictions_still_accurate(self, toy_docs):
        docs, y = toy_docs
        pipeline = TfidfTextPipeline(
            LinearSVC(n_epochs=10), calibrate=True, seed=0
        ).fit(docs, y)
        assert (pipeline.predict(docs) == y).mean() > 0.9
