"""Text-classification pipelines (Section 4.1): TF-IDF and N-Gram Graphs.

A *pipeline* wires one text representation, an optional resampler, and
one classifier into a fit/predict unit operating on summary documents.
Two flavours mirror the paper:

* :class:`TfidfTextPipeline` — Term Vector model with TF-IDF weights;
  classifiers see a sparse document-term matrix.
* :class:`NGramGraphTextPipeline` — per-class character 4-gram graphs;
  classifiers see the 8-dimensional CS/SS/VS/NVS similarity features
  (Figure 2).  Per the paper, no resampling is used with this
  representation, and the class graphs are built from a random half of
  the training instances.

Both expose ``text_rank`` — the ranking signal of Section 5:
probabilistic classifiers contribute their legitimate-class membership
probability, non-probabilistic ones (SVM) the hard 0/1 label, and the
N-Gram-Graph pipeline the similarity sum of Equation 3.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import NotFittedError
from repro.ml.base import BaseClassifier, clone
from repro.ml.svm import LinearSVC
from repro.text.ngram_graph import ClassGraphModel
from repro.text.summarization import SummaryDocument
from repro.text.term_vector import TfidfVectorizer

__all__ = ["TfidfTextPipeline", "NGramGraphTextPipeline", "similarity_rank"]


def similarity_rank(features: np.ndarray, classes: Sequence[int]) -> np.ndarray:
    """Equation 3: the 8-term similarity sum against both classes.

    ``CS_legit + (1 - CS_illegit) + SS_legit + (1 - SS_illegit) +
    VS_legit + (1 - VS_illegit) + NVS_legit + (1 - NVS_illegit)``

    Args:
        features: :class:`~repro.text.ngram_graph.ClassGraphModel`
            similarity features, 4 columns per class in ``classes``
            order.
        classes: the model's class labels; the largest is legitimate.
    """
    by_class = {
        label: features[:, 4 * i : 4 * (i + 1)] for i, label in enumerate(classes)
    }
    legit = by_class[max(classes)]
    illegit = by_class[min(classes)]
    return legit.sum(axis=1) + (1.0 - illegit).sum(axis=1)


class TfidfTextPipeline:
    """Term-Vector (TF-IDF) text classification pipeline.

    Args:
        classifier: unfitted classifier prototype (cloned on fit).
        sampler: optional resampler with ``fit_resample(X, y)``
            (:class:`~repro.ml.sampling.RandomUnderSampler` or
            :class:`~repro.ml.sampling.SMOTE`); ``None`` keeps the
            natural distribution.
        min_df: vectorizer document-frequency floor.
        probabilistic_rank: when False (the paper's convention for
            SVM), ``text_rank`` returns hard 0/1 labels instead of
            membership probabilities.  Defaults to auto: False for
            LinearSVC, True otherwise.
        calibrate: fit a Platt scaler on a held-out slice of the
            training data so ``predict_proba`` (and ``text_rank``,
            which becomes probabilistic) returns calibrated
            probabilities — the production alternative to the paper's
            hard 0/1 SVM ranking.
        calibration_fraction: training fraction held out for Platt
            scaling when ``calibrate`` is on.
        seed: RNG seed for the calibration split.
    """

    def __init__(
        self,
        classifier: BaseClassifier,
        sampler=None,
        min_df: int = 1,
        probabilistic_rank: bool | None = None,
        calibrate: bool = False,
        calibration_fraction: float = 0.25,
        seed: int = 0,
    ) -> None:
        self._prototype = classifier
        self._sampler = sampler
        self._min_df = min_df
        if probabilistic_rank is None:
            probabilistic_rank = calibrate or not isinstance(classifier, LinearSVC)
        self._probabilistic_rank = probabilistic_rank
        self._calibrate = calibrate
        self._calibration_fraction = calibration_fraction
        self._seed = seed
        self._vectorizer: TfidfVectorizer | None = None
        self._classifier: BaseClassifier | None = None
        self._scaler = None

    @property
    def classifier(self) -> BaseClassifier:
        if self._classifier is None:
            raise NotFittedError("TfidfTextPipeline has not been fitted")
        return self._classifier

    def fit(
        self, documents: Sequence[SummaryDocument], y: Sequence[int]
    ) -> "TfidfTextPipeline":
        """Vectorize, optionally resample, and fit the classifier."""
        tokens = [doc.tokens for doc in documents]
        vectorizer = TfidfVectorizer(min_df=self._min_df)
        X = vectorizer.fit_transform(tokens)
        y_arr = np.asarray(y, dtype=np.int64)
        self._vectorizer = vectorizer
        self._scaler = None
        if self._calibrate:
            from repro.ml.calibration import PlattScaler
            from repro.ml.model_selection import train_test_split

            fit_idx, holdout_idx = train_test_split(
                y_arr, test_fraction=self._calibration_fraction, seed=self._seed
            )
            X_fit, y_fit = X[fit_idx], y_arr[fit_idx]
            if self._sampler is not None:
                X_fit, y_fit = self._sampler.fit_resample(X_fit, y_fit)
            classifier = clone(self._prototype)
            classifier.fit(X_fit, y_fit)
            self._scaler = PlattScaler().fit(
                classifier.decision_scores(X[holdout_idx]), y_arr[holdout_idx]
            )
            self._classifier = classifier
            return self
        if self._sampler is not None:
            X, y_arr = self._sampler.fit_resample(X, y_arr)
        classifier = clone(self._prototype)
        classifier.fit(X, y_arr)
        self._classifier = classifier
        return self

    def _transform(self, documents: Sequence[SummaryDocument]):
        if self._vectorizer is None:
            raise NotFittedError("TfidfTextPipeline has not been fitted")
        return self._vectorizer.transform([doc.tokens for doc in documents])

    def predict(self, documents: Sequence[SummaryDocument]) -> np.ndarray:
        if self._scaler is not None:
            proba = self.predict_proba(documents)
            classes = self.classifier._fitted_classes()
            return classes[(proba[:, 1] >= 0.5).astype(np.int64)]
        return self.classifier.predict(self._transform(documents))

    def predict_proba(self, documents: Sequence[SummaryDocument]) -> np.ndarray:
        X = self._transform(documents)
        if self._scaler is not None:
            pos = self._scaler.transform(self.classifier.decision_scores(X))
            return np.column_stack([1.0 - pos, pos])
        return self.classifier.predict_proba(X)

    def decision_scores(self, documents: Sequence[SummaryDocument]) -> np.ndarray:
        """Continuous positive-class score for ROC analysis."""
        return self.classifier.decision_scores(self._transform(documents))

    def text_rank(self, documents: Sequence[SummaryDocument]) -> np.ndarray:
        """The textRank term of Section 5.

        Probability of the legitimate class for probabilistic
        classifiers, hard 0/1 for non-probabilistic ones.
        """
        if self._probabilistic_rank:
            return self.predict_proba(documents)[:, -1]
        return self.predict(documents).astype(np.float64)

    def score(
        self, documents: Sequence[SummaryDocument]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positive-class probability, labels and textRank in one pass.

        Equal to ``(predict_proba(documents)[:, -1], predict(documents),
        text_rank(documents))``, but the documents go through the
        TF-IDF transform once instead of three times.
        """
        X = self._transform(documents)
        classifier = self.classifier
        if self._scaler is not None:
            proba = self._scaler.transform(classifier.decision_scores(X))
            classes = classifier._fitted_classes()
            labels = classes[(proba >= 0.5).astype(np.int64)]
        else:
            proba = classifier.predict_proba(X)[:, -1]
            labels = classifier.predict(X)
        if self._probabilistic_rank:
            return proba, labels, proba
        return proba, labels, labels.astype(np.float64)


class NGramGraphTextPipeline:
    """N-Gram-Graph text classification pipeline (Figure 2).

    Args:
        classifier: unfitted classifier prototype (cloned on fit).
        n: n-gram rank (paper: 4).
        window: Dwin (paper: 4).
        class_sample_fraction: fraction of training docs per class used
            to build the class graphs (paper: 0.5).
        seed: class-graph subsample seed.
    """

    def __init__(
        self,
        classifier: BaseClassifier,
        n: int = 4,
        window: int = 4,
        class_sample_fraction: float = 0.5,
        seed: int = 0,
    ) -> None:
        self._prototype = classifier
        self._n = n
        self._window = window
        self._fraction = class_sample_fraction
        self._seed = seed
        self._model: ClassGraphModel | None = None
        self._classifier: BaseClassifier | None = None

    @property
    def classifier(self) -> BaseClassifier:
        if self._classifier is None:
            raise NotFittedError("NGramGraphTextPipeline has not been fitted")
        return self._classifier

    @property
    def class_graph_model(self) -> ClassGraphModel:
        if self._model is None:
            raise NotFittedError("NGramGraphTextPipeline has not been fitted")
        return self._model

    def fit(
        self, documents: Sequence[SummaryDocument], y: Sequence[int]
    ) -> "NGramGraphTextPipeline":
        """Build class graphs and fit the classifier on similarities."""
        texts = [doc.text for doc in documents]
        y_arr = np.asarray(y, dtype=np.int64)
        model = ClassGraphModel(
            n=self._n,
            window=self._window,
            class_sample_fraction=self._fraction,
            seed=self._seed,
        )
        features = model.fit_transform(texts, y_arr.tolist())
        classifier = clone(self._prototype)
        classifier.fit(features, y_arr)
        self._model = model
        self._classifier = classifier
        return self

    def _transform(self, documents: Sequence[SummaryDocument]) -> np.ndarray:
        return self.class_graph_model.transform([doc.text for doc in documents])

    def predict(self, documents: Sequence[SummaryDocument]) -> np.ndarray:
        return self.classifier.predict(self._transform(documents))

    def predict_proba(self, documents: Sequence[SummaryDocument]) -> np.ndarray:
        return self.classifier.predict_proba(self._transform(documents))

    def decision_scores(self, documents: Sequence[SummaryDocument]) -> np.ndarray:
        return self.classifier.decision_scores(self._transform(documents))

    def text_rank(self, documents: Sequence[SummaryDocument]) -> np.ndarray:
        """Equation 3 (:func:`similarity_rank`) of each document."""
        return similarity_rank(
            self._transform(documents), self.class_graph_model.classes
        )
