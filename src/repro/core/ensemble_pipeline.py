"""Ensemble classification (Section 6.3.3) and combined-feature models.

:class:`EnsembleClassificationPipeline` builds a model library out of
text and network models fitted on a sub-training set, runs Ensemble
Selection (Caruana et al. 2004) on a held-out hill-climbing slice of
the training fold, and predicts by bag-averaged probabilities —
mirroring the paper's use of Weka's "Ensemble Selection".

:class:`CombinedFeaturePipeline` is the future-work alternative
(Section 7b): a single classifier over the concatenation of text and
network features.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.evaluation import PipelineScores, classifier_scores
from repro.core.network_pipeline import NetworkClassificationPipeline
from repro.data.corpus import PharmacyCorpus
from repro.exceptions import NotFittedError, ValidationError
from repro.ml.base import BaseClassifier, clone, ensure_dense
from repro.ml.ensemble import EnsembleSelection, LibraryModel
from repro.ml.mlp import MLPClassifier
from repro.ml.model_selection import train_test_split
from repro.ml.naive_bayes import GaussianNB, MultinomialNB
from repro.ml.svm import LinearSVC
from repro.ml.tree import C45Tree
from repro.network.graph import DirectedGraph
from repro.text.ngram_graph import ClassGraphModel
from repro.text.summarization import SummaryDocument
from repro.text.term_vector import TfidfVectorizer

__all__ = ["EnsembleClassificationPipeline", "CombinedFeaturePipeline"]

#: Slice of the training fold held out for the greedy selection.
_HILLCLIMB_FRACTION = 0.3


class EnsembleClassificationPipeline:
    """Text + network model library combined by Ensemble Selection.

    The library defaults to the paper's strongest members: NBM, SVM and
    J48 on TF-IDF text, MLP on N-Gram-Graph similarities, and Naïve
    Bayes on TrustRank network scores.

    The pipeline is transductive (the network member re-runs TrustRank
    per training fold), so like
    :class:`~repro.core.network_pipeline.NetworkClassificationPipeline`
    it fits on corpus row indices.

    Args:
        corpus: full working set.
        documents: summary documents aligned with the corpus rows.
        seed: RNG seed (hill-climbing split, member classifiers).
        include_ngg_member: include the (expensive) N-Gram-Graph MLP
            member; disable for quick runs.
        graph: optional prebuilt link graph for the corpus, shared with
            the network member (see
            :class:`~repro.core.network_pipeline.NetworkClassificationPipeline`).
    """

    def __init__(
        self,
        corpus: PharmacyCorpus,
        documents: Sequence[SummaryDocument],
        seed: int = 0,
        include_ngg_member: bool = True,
        graph: DirectedGraph | None = None,
    ) -> None:
        if len(documents) != len(corpus):
            raise ValidationError(
                f"documents/corpus length mismatch: {len(documents)} vs {len(corpus)}"
            )
        self._corpus = corpus
        self._documents = list(documents)
        self._seed = seed
        self._include_ngg = include_ngg_member
        self._graph = graph
        self._selection: EnsembleSelection | None = None
        self._library: list[LibraryModel] = []

    @property
    def selection(self) -> EnsembleSelection:
        if self._selection is None:
            raise NotFittedError("EnsembleClassificationPipeline is not fitted")
        return self._selection

    def fit(self, train_indices: Sequence[int]) -> "EnsembleClassificationPipeline":
        """Fit the library on a sub-train split and select the bag."""
        train_idx = np.asarray(train_indices, dtype=np.int64)
        labels = self._corpus.labels
        y_train = labels[train_idx]
        sub_rel, hill_rel = train_test_split(
            y_train, test_fraction=_HILLCLIMB_FRACTION, seed=self._seed
        )
        sub_idx = train_idx[sub_rel]
        hill_idx = train_idx[hill_rel]

        library = self._build_library(sub_idx)
        selection = EnsembleSelection()
        selection.fit(library, hill_idx, labels[hill_idx])
        self._library = library
        self._selection = selection
        return self

    # -- library construction ----------------------------------------------

    def _build_library(self, sub_idx: np.ndarray) -> list[LibraryModel]:
        labels = self._corpus.labels
        docs = self._documents
        y_sub = labels[sub_idx]
        library: list[LibraryModel] = []

        # Text members on TF-IDF.
        vectorizer = TfidfVectorizer()
        X_text_sub = vectorizer.fit_transform(
            [docs[i].tokens for i in sub_idx]
        )
        X_text_all = vectorizer.transform([doc.tokens for doc in docs])
        for name, prototype in (
            ("nbm-text", MultinomialNB()),
            ("svm-text", LinearSVC(seed=self._seed)),
            ("j48-text", C45Tree(max_candidate_features=400)),
        ):
            model = clone(prototype)
            model.fit(X_text_sub, y_sub)
            library.append(
                LibraryModel(
                    name=name,
                    predict_proba=_indexed_proba(model, X_text_all),
                )
            )

        # N-Gram-Graph member (MLP on similarity features).
        if self._include_ngg:
            ngg = ClassGraphModel(seed=self._seed)
            ngg.fit([docs[i].text for i in sub_idx], y_sub.tolist())
            X_ngg_all = ngg.transform([doc.text for doc in docs])
            mlp = MLPClassifier(seed=self._seed)
            mlp.fit(X_ngg_all[sub_idx], y_sub)
            library.append(
                LibraryModel(
                    name="mlp-ngg",
                    predict_proba=_indexed_proba(mlp, X_ngg_all),
                )
            )

        # Network member (NB on TrustRank scores, seeded on sub-train):
        # the network classifier's two-column probabilities over the
        # column it was fitted on.
        network = NetworkClassificationPipeline(
            self._corpus, GaussianNB(), graph=self._graph
        )
        network.fit(sub_idx)
        X_net_all = network.feature_matrix.column("outlink_trust").reshape(-1, 1)
        library.append(
            LibraryModel(
                name="nb-network",
                predict_proba=_indexed_proba(network.classifier, X_net_all),
            )
        )
        return library

    def score(self, indices: Sequence[int]) -> PipelineScores:
        """Score corpus rows by one bag-averaged probability.

        Labels cut it at 0.5, as :meth:`EnsembleSelection.predict
        <repro.ml.ensemble.EnsembleSelection.predict>` does; the
        probability is also the AUC score and the rank term.
        """
        idx = np.asarray(indices, dtype=np.int64)
        proba = self.selection.predict_proba(idx)[:, 1]
        labels = (proba >= 0.5).astype(np.int64)
        return PipelineScores(labels=labels, scores=proba, proba=proba, rank=proba)


def _indexed_proba(model: BaseClassifier, X_all) -> Callable[[np.ndarray], np.ndarray]:
    """Close over a fitted model + full feature matrix; index rows."""

    def predict_proba(indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        return model.predict_proba(X_all[idx])

    return predict_proba


class CombinedFeaturePipeline:
    """One classifier over concatenated text + network features.

    Future-work extension (Section 7b): instead of voting over separate
    models, concatenate the TF-IDF matrix (densified), the
    N-Gram-Graph similarities, and the TrustRank scores into a single
    feature space.

    Fits on corpus row indices like the other transductive pipelines.

    Args:
        corpus: full working set.
        documents: summary documents aligned with corpus rows.
        classifier: prototype (default MLP).
        max_text_features: TF-IDF vocabulary cap (densified, keep small).
        seed: RNG seed.
    """

    def __init__(
        self,
        corpus: PharmacyCorpus,
        documents: Sequence[SummaryDocument],
        classifier: BaseClassifier | None = None,
        max_text_features: int = 300,
        seed: int = 0,
    ) -> None:
        self._corpus = corpus
        self._documents = list(documents)
        self._prototype = classifier or MLPClassifier(seed=seed)
        self._max_text_features = max_text_features
        self._seed = seed
        self._classifier: BaseClassifier | None = None
        self._X_all: np.ndarray | None = None

    def fit(self, train_indices: Sequence[int]) -> "CombinedFeaturePipeline":
        train_idx = np.asarray(train_indices, dtype=np.int64)
        labels = self._corpus.labels
        docs = self._documents

        vectorizer = TfidfVectorizer(max_features=self._max_text_features)
        vectorizer.fit([docs[i].tokens for i in train_idx])
        X_text = ensure_dense(
            vectorizer.transform([doc.tokens for doc in docs])
        )

        ngg = ClassGraphModel(seed=self._seed)
        ngg.fit(
            [docs[i].text for i in train_idx], labels[train_idx].tolist()
        )
        X_ngg = ngg.transform([doc.text for doc in docs])

        network = NetworkClassificationPipeline(self._corpus, GaussianNB())
        network.fit(train_idx)
        X_net = network.feature_matrix.column("outlink_trust").reshape(-1, 1)

        self._X_all = np.hstack([X_text, X_ngg, X_net])
        classifier = clone(self._prototype)
        classifier.fit(self._X_all[train_idx], labels[train_idx])
        self._classifier = classifier
        return self

    def score(self, indices: Sequence[int]) -> PipelineScores:
        """Score corpus rows; the rank term is the probability."""
        if self._X_all is None or self._classifier is None:
            raise NotFittedError("CombinedFeaturePipeline is not fitted")
        idx = np.asarray(indices, dtype=np.int64)
        return classifier_scores(self._classifier, self._X_all[idx])
