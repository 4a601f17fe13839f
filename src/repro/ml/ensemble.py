"""Ensemble Selection (Caruana et al., ICML 2004).

The paper's Section 6.3.3 combines the text and network models with
"Ensemble Selection": given a *library* of fitted models, greedily add
models (with replacement) to a bag whenever doing so improves a target
metric on a hill-climbing set; the final prediction averages the
probability outputs of the bag members.

Two refinements from the original paper are included:

* **sorted initialization** — the bag starts with the ``n_init`` best
  single models;
* **selection with replacement** — the same model can be added many
  times, implementing implicit weighting and preventing overfitting of
  the greedy step.

Following Caruana's design, the library's probability predictions are
precomputed once into an ``(n_models, n_instances, n_classes)`` tensor
and the bag sum is maintained incrementally, so every hill-climb round
is a broadcasted vector add; with the default AUC metric all candidate
scores of a round come from one batched rank computation
(:func:`repro.ml.metrics.auc_roc_many`).  Candidates are always
considered in sorted-name order: initialization ranks models by
(metric desc, Brier score asc, name asc) and hill-climb ties resolve to
the lowest name, so the selected bag is deterministic regardless of the
order the library was assembled in.  The per-candidate loop
implementation lives on as
``tests.reference.reference_ensemble_select``, the equivalence
oracle pinned by ``tests/perf``.

The library entries are heterogeneous: each has its own feature matrix
(text models see TF-IDF or graph-similarity features, the network model
sees TrustRank scores), so the ensemble works with pre-computed
probability predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.ml.metrics import auc_roc, auc_roc_many

__all__ = ["LibraryModel", "EnsembleSelection"]


@dataclass(frozen=True, slots=True)
class LibraryModel:
    """One member of the model library.

    Attributes:
        name: display name ("svm-text", "nb-network", ...).
        predict_proba: maps an *instance index array* to an
            ``(n, 2)`` probability matrix.  The indirection through
            indices lets every model use its own feature matrix.
    """

    name: str
    predict_proba: Callable[[np.ndarray], np.ndarray]


class EnsembleSelection:
    """Greedy forward ensemble selection with replacement.

    Args:
        metric: scoring function ``(y_true, positive_scores) -> float``
            maximized by the greedy step (default AUC-ROC, the measure
            the paper optimizes for).  With the default, candidate
            scoring is batched; a custom metric is evaluated per
            candidate with identical selection semantics.
        n_init: size of the sorted initialization (best single models).
        max_rounds: cap on greedy additions after initialization.
        tolerance: stop when the best addition improves the score by
            less than this.
    """

    def __init__(
        self,
        metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
        n_init: int = 1,
        max_rounds: int = 30,
        tolerance: float = 1e-6,
    ) -> None:
        if n_init < 1:
            raise ValidationError(f"n_init must be >= 1, got {n_init}")
        if max_rounds < 0:
            raise ValidationError(f"max_rounds must be >= 0, got {max_rounds}")
        self._metric = metric or auc_roc
        self._n_init = n_init
        self._max_rounds = max_rounds
        self._tolerance = tolerance
        self._library: tuple[LibraryModel, ...] = ()
        self._bag_counts: dict[str, int] | None = None

    @property
    def bag_counts(self) -> dict[str, int]:
        """How many times each library model was selected."""
        if self._bag_counts is None:
            raise NotFittedError("EnsembleSelection has not been fitted")
        return dict(self._bag_counts)

    def _candidate_scores(self, y: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """Metric of every candidate score row (batched when possible)."""
        if self._metric is auc_roc:
            return auc_roc_many(y, cand)
        return np.array([self._metric(y, row) for row in cand])

    def fit(
        self,
        library: Sequence[LibraryModel],
        hillclimb_indices: np.ndarray,
        y_hillclimb: np.ndarray,
    ) -> "EnsembleSelection":
        """Select the ensemble bag on the hill-climbing set.

        Args:
            library: fitted candidate models.
            hillclimb_indices: instance indices of the hill-climbing set
                (passed to each model's ``predict_proba``).
            y_hillclimb: labels of the hill-climbing set.
        """
        if not library:
            raise ValidationError("model library is empty")
        y = np.asarray(y_hillclimb).ravel()
        predictions = {
            model.name: np.asarray(model.predict_proba(hillclimb_indices))
            for model in library
        }
        for name, proba in predictions.items():
            if proba.shape != (y.shape[0], 2):
                raise ValidationError(
                    f"model {name!r} returned probability shape {proba.shape}, "
                    f"expected {(y.shape[0], 2)}"
                )

        # Deterministic candidate order: sorted model names.  The
        # prediction tensor is built once; every later step is pure
        # array arithmetic on it.
        names = sorted(predictions)
        tensor = np.stack([predictions[name] for name in names])
        pos_scores = tensor[:, :, 1]  # (n_models, n_instances)

        single_scores = self._candidate_scores(y, pos_scores)
        # Initialization ties (several perfect single models are common
        # on small hill-climb sets) resolve by Brier score — the model
        # with the better-calibrated probabilities — then by name.
        briers = np.mean((pos_scores - y[None, :]) ** 2, axis=1)
        ranked = sorted(
            range(len(names)),
            key=lambda m: (-single_scores[m], briers[m], names[m]),
        )
        bag: list[int] = ranked[: self._n_init]
        bag_sum = tensor[bag].sum(axis=0)
        best_score = float(self._metric(y, (bag_sum / len(bag))[:, 1]))

        for _ in range(self._max_rounds):
            candidates = (bag_sum[None, :, 1] + pos_scores) / (len(bag) + 1)
            scores = self._candidate_scores(y, candidates)
            best_m = int(np.argmax(scores))  # ties -> lowest sorted name
            if not scores[best_m] > best_score + self._tolerance:
                break
            bag.append(best_m)
            bag_sum = bag_sum + tensor[best_m]
            best_score = float(scores[best_m])

        self._library = tuple(library)
        counts: dict[str, int] = {}
        for m in bag:
            counts[names[m]] = counts.get(names[m], 0) + 1
        self._bag_counts = counts
        return self

    def predict_proba(self, indices: np.ndarray) -> np.ndarray:
        """Bag-weighted average probability for the given instances."""
        if self._bag_counts is None:
            raise NotFittedError("EnsembleSelection has not been fitted")
        total = sum(self._bag_counts.values())
        by_name = {model.name: model for model in self._library}
        out: np.ndarray | None = None
        for name, count in self._bag_counts.items():
            proba = np.asarray(by_name[name].predict_proba(indices))
            weighted = proba * (count / total)
            out = weighted if out is None else out + weighted
        assert out is not None
        return out

    def predict(self, indices: np.ndarray) -> np.ndarray:
        """Hard labels (0/1) from the averaged probabilities."""
        return (self.predict_proba(indices)[:, 1] >= 0.5).astype(np.int64)

    def decision_scores(self, indices: np.ndarray) -> np.ndarray:
        """Positive-class averaged probability (ranking signal)."""
        return self.predict_proba(indices)[:, 1]
