"""Ensemble classification (Section 6.3.3).

:class:`EnsembleClassificationPipeline` builds a model library out of
text and network models fitted on a sub-training set, runs Ensemble
Selection (Caruana et al. 2004) on a held-out hill-climbing slice of
the training fold, and predicts by bag-averaged probabilities —
mirroring the paper's use of Weka's "Ensemble Selection".
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.evaluation import PipelineScores
from repro.core.network_pipeline import NetworkClassificationPipeline
from repro.data.corpus import PharmacyCorpus
from repro.exceptions import NotFittedError, ValidationError
from repro.ml.base import BaseClassifier, clone
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

__all__ = ["EnsembleClassificationPipeline"]

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
