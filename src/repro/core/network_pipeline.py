"""Network-classification pipeline (Section 4.2 + Table 12/13).

Fold protocol, per the paper: the two training folds form the TrustRank
seed P0 (legitimate members get trust 1, everything else 0); the
propagation runs over the full working-set graph; a Naïve Bayes
classifier is trained on the TrustRank-derived scores of the training
pharmacies and evaluated on the test pharmacies.

Because TrustRank is transductive (the seed changes per fold and the
scores of *all* nodes depend on it), this pipeline fits on index sets
over a fixed corpus rather than on feature matrices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.evaluation import PipelineScores, classifier_scores
from repro.data.corpus import LEGITIMATE, PharmacyCorpus
from repro.exceptions import NotFittedError
from repro.ml.base import BaseClassifier, clone
from repro.ml.naive_bayes import GaussianNB
from repro.network.features import NetworkFeatureMatrix, NetworkStage
from repro.network.graph import DirectedGraph

__all__ = ["NetworkClassificationPipeline"]

#: Columns the classifier reads, in this order, when the stage has them.
#: Not the seed-biased own-node score: see NetworkStage.
_CLASSIFIER_COLUMNS = ("outlink_trust", "inlink_trust", "outlink_distrust")


class NetworkClassificationPipeline:
    """TrustRank-score classifier over a pharmacy corpus.

    Args:
        corpus: the full working set P (train + test pharmacies).
        classifier: unfitted classifier prototype (paper: Naïve Bayes).
        damping: TrustRank damping factor.
        include_anti_trustrank: also seed distrust from the training
            illegitimate pharmacies and append the ``outlink_distrust``
            column to the classifier's ``outlink_trust`` (future-work
            extension).
        use_auxiliary_sites: add the corpus's non-pharmacy auxiliary
            sites (health portals / spam directories) to the link graph
            (future-work extension (a)); when enabled, pharmacies gain
            in-links from portals, so the ``inlink_trust`` column is
            appended to the classifier features.
        graph: optional prebuilt link graph for exactly this corpus
            (plus its auxiliary sites when ``use_auxiliary_sites``).
            The graph depends only on the working set, never on the
            fold, so CV drivers build it once and share it across every
            fold's pipeline; when omitted each :meth:`fit` builds it.
    """

    def __init__(
        self,
        corpus: PharmacyCorpus,
        classifier: BaseClassifier | None = None,
        damping: float = 0.85,
        include_anti_trustrank: bool = False,
        use_auxiliary_sites: bool = False,
        graph: DirectedGraph | None = None,
    ) -> None:
        self._corpus = corpus
        self._prototype = classifier or GaussianNB()
        self._damping = damping
        self._include_anti = include_anti_trustrank
        self._use_auxiliary = use_auxiliary_sites
        self._shared_graph = graph
        self._classifier: BaseClassifier | None = None
        self._features: NetworkFeatureMatrix | None = None
        self._rank: np.ndarray | None = None

    @property
    def corpus(self) -> PharmacyCorpus:
        return self._corpus

    @property
    def classifier(self) -> BaseClassifier:
        if self._classifier is None:
            raise NotFittedError("NetworkClassificationPipeline is not fitted")
        return self._classifier

    @property
    def feature_matrix(self) -> NetworkFeatureMatrix:
        """Features of the whole corpus from the last :meth:`fit`."""
        if self._features is None:
            raise NotFittedError("NetworkClassificationPipeline is not fitted")
        return self._features

    def fit(self, train_indices: Sequence[int]) -> "NetworkClassificationPipeline":
        """Seed TrustRank from the training fold and fit the classifier.

        Args:
            train_indices: corpus row indices forming P0.
        """
        train_idx = np.asarray(train_indices, dtype=np.int64)
        labels = self._corpus.labels
        domains = self._corpus.domains
        trusted = [domains[i] for i in train_idx if labels[i] == LEGITIMATE]
        distrusted = [domains[i] for i in train_idx if labels[i] != LEGITIMATE]
        stage = NetworkStage(self._damping).fit(
            self._corpus.sites,
            trusted,
            distrusted=distrusted if self._include_anti else (),
            auxiliary_sites=(
                self._corpus.auxiliary_sites if self._use_auxiliary else ()
            ),
            graph=self._shared_graph,
        )
        endpoints = [site.outbound_endpoints() for site in self._corpus.sites]
        self._features = stage.features(domains, endpoints)
        self._rank = stage.network_rank(domains, endpoints)
        X = self._classifier_columns()
        classifier = clone(self._prototype)
        classifier.fit(X[train_idx], labels[train_idx])
        self._classifier = classifier
        return self

    def _classifier_columns(self) -> np.ndarray:
        matrix = self.feature_matrix
        return np.column_stack(
            [
                matrix.column(name)
                for name in _CLASSIFIER_COLUMNS
                if name in matrix.feature_names
            ]
        )

    def score(self, indices: Sequence[int]) -> PipelineScores:
        """Score corpus rows ``indices``.

        The rank term is the stage's networkRank (Section 5): the raw
        TrustRank value, own node plus outlink trust, not the
        classifier output — "networkRank() simply returns the TrustRank
        value".
        """
        idx = np.asarray(indices, dtype=np.int64)
        X = self._classifier_columns()
        return classifier_scores(self.classifier, X[idx], self._rank[idx])
