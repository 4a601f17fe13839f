"""Text-classification pipelines (Section 4.1): TF-IDF and N-Gram Graphs.

A *pipeline* wires one text representation, an optional resampler, and
one classifier into a fit/score unit operating on summary documents.
Two flavours mirror the paper:

* :class:`TfidfTextPipeline` — Term Vector model with TF-IDF weights;
  classifiers see a sparse document-term matrix.
* :class:`NGramGraphTextPipeline` — per-class character 4-gram graphs;
  classifiers see the 8-dimensional CS/SS/VS/NVS similarity features
  (Figure 2).  Per the paper, no resampling is used with this
  representation, and the class graphs are built from a random half of
  the training instances.

Each featurizes a batch once in ``score``, whose
:class:`~repro.core.evaluation.PipelineScores` carries the labels, the
AUC score, the probability and the textRank term of Section 5:
probabilistic classifiers contribute their legitimate-class membership
probability, non-probabilistic ones (SVM) the hard 0/1 label, and the
N-Gram-Graph pipeline the similarity sum of Equation 3.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.core.evaluation import PipelineScores, classifier_scores
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
            Wrap it in :class:`~repro.ml.calibration.CalibratedClassifier`
            for Platt-calibrated probabilities.
        sampler: optional resampler with ``fit_resample(X, y)``
            (:class:`~repro.ml.sampling.RandomUnderSampler` or
            :class:`~repro.ml.sampling.SMOTE`); ``None`` keeps the
            natural distribution.
    """

    def __init__(self, classifier: BaseClassifier, sampler=None) -> None:
        self._prototype = classifier
        self._sampler = sampler
        self._vectorizer: TfidfVectorizer | None = None
        self._classifier: BaseClassifier | None = None

    @property
    def classifier(self) -> BaseClassifier:
        if self._classifier is None:
            raise NotFittedError("TfidfTextPipeline has not been fitted")
        return self._classifier

    def fit(
        self, documents: Sequence[SummaryDocument], y: Sequence[int]
    ) -> "TfidfTextPipeline":
        """Vectorize, optionally resample, and fit the classifier."""
        vectorizer = TfidfVectorizer()
        X = vectorizer.fit_transform([doc.tokens for doc in documents])
        y_arr = np.asarray(y, dtype=np.int64)
        if self._sampler is not None:
            X, y_arr = self._sampler.fit_resample(X, y_arr)
        classifier = clone(self._prototype)
        classifier.fit(X, y_arr)
        self._vectorizer = vectorizer
        self._classifier = classifier
        return self

    def score(self, documents: Sequence[SummaryDocument]) -> PipelineScores:
        """Score documents through one TF-IDF transform.

        The rank term is the legitimate-class probability, except for
        :class:`~repro.ml.svm.LinearSVC`, which contributes its hard 0/1
        label (Section 5).
        """
        return self.score_tokens([doc.tokens for doc in documents])

    def score_tokens(self, token_lists: Sequence[Sequence[str]]) -> PipelineScores:
        """:meth:`score` on one token list per document.

        Out-of-vocabulary tokens add nothing to a row, so a list that
        differs from a summary's tokens only by terms outside the
        vocabulary scores exactly as the summary does (see
        :meth:`Summarizer.scoring_tokens
        <repro.text.summarization.Summarizer.scoring_tokens>`).
        """
        if self._vectorizer is None:
            raise NotFittedError("TfidfTextPipeline has not been fitted")
        X = self._vectorizer.transform(token_lists)
        scored = classifier_scores(self.classifier, X)
        if isinstance(self._prototype, LinearSVC):
            return replace(scored, rank=scored.labels.astype(np.float64))
        return scored


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

    def score(self, documents: Sequence[SummaryDocument]) -> PipelineScores:
        """Score documents from one n-gram graph each.

        The rank term is Equation 3 (:func:`similarity_rank`).
        """
        model = self.class_graph_model
        features = model.transform([doc.text for doc in documents])
        return classifier_scores(
            self.classifier, features, similarity_rank(features, model.classes)
        )
