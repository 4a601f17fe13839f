"""Tests for the TF-IDF and N-Gram-Graph text pipelines."""

import numpy as np
import pytest

from repro.core.text_pipeline import NGramGraphTextPipeline, TfidfTextPipeline
from repro.exceptions import NotFittedError
from repro.ml.calibration import CalibratedClassifier
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
        assert (pipeline.score(docs).labels == y).all()

    def test_decision_scores_separate(self, toy_docs):
        docs, y = toy_docs
        pipeline = TfidfTextPipeline(MultinomialNB()).fit(docs, y)
        scores = pipeline.score(docs).scores
        assert scores[y == 1].min() > scores[y == 0].max()

    def test_text_rank_probabilistic_default(self, toy_docs):
        docs, y = toy_docs
        pipeline = TfidfTextPipeline(MultinomialNB()).fit(docs, y)
        ranks = pipeline.score(docs).rank
        assert np.all((0 <= ranks) & (ranks <= 1))
        # Membership probabilities, not hard labels.
        assert not set(np.unique(ranks)) <= {0.0, 1.0}

    def test_text_rank_svm_is_hard_labels(self, toy_docs):
        """Per Section 5: non-probabilistic classifiers contribute 0/1."""
        docs, y = toy_docs
        pipeline = TfidfTextPipeline(LinearSVC(n_epochs=10)).fit(docs, y)
        ranks = pipeline.score(docs).rank
        assert set(np.unique(ranks)) <= {0.0, 1.0}

    def test_sampler_applied(self, toy_docs):
        docs, y = toy_docs
        pipeline = TfidfTextPipeline(
            MultinomialNB(), sampler=RandomUnderSampler(seed=0)
        ).fit(docs, y)
        assert (pipeline.score(docs).labels == y).mean() > 0.9

    def test_unfitted_raises(self, toy_docs):
        docs, _ = toy_docs
        with pytest.raises(NotFittedError):
            TfidfTextPipeline(MultinomialNB()).score(docs)

    def test_classifier_prototype_not_mutated(self, toy_docs):
        docs, y = toy_docs
        prototype = MultinomialNB()
        TfidfTextPipeline(prototype).fit(docs, y)
        with pytest.raises(NotFittedError):
            prototype.predict(np.ones((1, 2)))


class TestScore:
    """``score`` is the classifier's separate calls over one transform."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TfidfTextPipeline(MultinomialNB()),
            lambda: TfidfTextPipeline(LinearSVC(n_epochs=10)),
            lambda: TfidfTextPipeline(CalibratedClassifier(LinearSVC(n_epochs=10))),
        ],
        ids=["nb", "svm", "calibrated-svm"],
    )
    def test_equals_separate_calls_with_one_transform(self, make, toy_docs):
        docs, y = toy_docs
        pipeline = make().fit(docs, y)
        vectorizer = pipeline._vectorizer
        X = vectorizer.transform([d.tokens for d in docs])
        classifier = pipeline.classifier
        labels = classifier.predict(X)
        proba = classifier.predict_proba(X)[:, -1]
        svm = isinstance(classifier, LinearSVC)
        calls = []

        def counting_transform(documents):
            calls.append(len(documents))
            return type(vectorizer).transform(vectorizer, documents)

        vectorizer.transform = counting_transform
        scored = pipeline.score(docs)
        assert calls == [len(docs)]
        np.testing.assert_array_equal(scored.labels, labels)
        np.testing.assert_array_equal(scored.scores, classifier.decision_scores(X))
        np.testing.assert_array_equal(scored.proba, proba)
        np.testing.assert_array_equal(
            scored.rank, labels.astype(np.float64) if svm else proba
        )
        assert scored.labels.dtype == labels.dtype
        assert scored.rank.dtype == np.float64


class TestNGramGraphTextPipeline:
    def test_fit_predict(self, toy_docs):
        docs, y = toy_docs
        from repro.ml.naive_bayes import GaussianNB

        pipeline = NGramGraphTextPipeline(GaussianNB(), seed=0).fit(docs, y)
        assert (pipeline.score(docs).labels == y).mean() > 0.9

    def test_text_rank_is_equation3(self, toy_docs):
        docs, y = toy_docs
        from repro.ml.naive_bayes import GaussianNB

        pipeline = NGramGraphTextPipeline(
            GaussianNB(), class_sample_fraction=1.0, seed=0
        ).fit(docs, y)
        ranks = pipeline.score(docs).rank
        # Equation 3 is a sum of 8 terms, 4 in [0,1] and 4 of (1 - s).
        assert np.all(ranks >= 0)
        assert np.all(ranks <= 8)
        # Legit docs should outrank illegit ones.
        assert ranks[y == 1].mean() > ranks[y == 0].mean()

    def test_unfitted_raises(self, toy_docs):
        docs, _ = toy_docs
        from repro.ml.naive_bayes import GaussianNB

        with pytest.raises(NotFittedError):
            NGramGraphTextPipeline(GaussianNB()).score(docs)

    def test_class_graph_model_exposed(self, toy_docs):
        docs, y = toy_docs
        from repro.ml.naive_bayes import GaussianNB

        pipeline = NGramGraphTextPipeline(GaussianNB(), seed=0).fit(docs, y)
        assert set(pipeline.class_graph_model.classes) == {0, 1}


class TestCalibratedTfidfPipeline:
    @staticmethod
    def calibrated():
        return TfidfTextPipeline(CalibratedClassifier(LinearSVC(n_epochs=10)))

    def test_calibrated_svm_gives_continuous_probabilities(self, toy_docs):
        docs, y = toy_docs
        scored = self.calibrated().fit(docs, y).score(docs)
        assert np.all((scored.proba > 0.0) & (scored.proba < 1.0))
        assert not set(np.unique(np.round(scored.proba, 6))) <= {0.0, 1.0}
        # The AUC score is the calibrated probability, not the margin.
        np.testing.assert_array_equal(scored.scores, scored.proba)

    def test_calibrated_text_rank_is_probabilistic(self, toy_docs):
        docs, y = toy_docs
        ranks = self.calibrated().fit(docs, y).score(docs).rank
        assert np.all((ranks >= 0) & (ranks <= 1))
        assert not set(np.unique(ranks)) <= {0.0, 1.0}

    def test_calibrated_predictions_still_accurate(self, toy_docs):
        docs, y = toy_docs
        scored = self.calibrated().fit(docs, y).score(docs)
        assert (scored.labels == y).mean() > 0.9

    def test_equals_fit_then_platt_on_holdout_margins(self, toy_docs):
        """Split 3:1 (seed 0), fit the SVM, Platt-scale its held-out margins."""
        from repro.ml.calibration import PlattScaler
        from repro.ml.model_selection import train_test_split
        from repro.text.term_vector import TfidfVectorizer

        docs, y = toy_docs
        X = TfidfVectorizer().fit_transform([d.tokens for d in docs])
        fit_idx, holdout_idx = train_test_split(y, test_fraction=0.25, seed=0)
        svm = LinearSVC(n_epochs=10).fit(X[fit_idx], y[fit_idx])
        scaler = PlattScaler().fit(svm.decision_scores(X[holdout_idx]), y[holdout_idx])
        proba = scaler.transform(svm.decision_scores(X))

        scored = self.calibrated().fit(docs, y).score(docs)
        assert scored.proba.tolist() == proba.tolist()
        assert scored.labels.tolist() == (proba >= 0.5).astype(int).tolist()
