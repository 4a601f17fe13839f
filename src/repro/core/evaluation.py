"""Cross-validation evaluation harness (Section 6 protocol).

Runs the paper's 3-fold cross-validation for any of the pipelines and
aggregates the measures of Section 6.2 with 95% confidence intervals.
Also provides the cross-dataset evaluation used by the
model-over-time experiments (Section 6.5): train on one corpus, test
on another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.ml.base import BaseClassifier
from repro.ml.metrics import (
    BinaryClassificationReport,
    classification_report,
    mean_confidence_interval,
)
from repro.ml.model_selection import StratifiedKFold

__all__ = [
    "AggregatedReport",
    "MeasureSummary",
    "PipelineScores",
    "classifier_scores",
    "cross_validate_pipeline",
    "cross_validate_indexed",
    "train_test_evaluate",
]

#: The measures every paper table draws from.
MEASURES = (
    "accuracy",
    "legitimate_precision",
    "legitimate_recall",
    "illegitimate_precision",
    "illegitimate_recall",
    "auc_roc",
)


@dataclass(frozen=True, slots=True)
class PipelineScores:
    """What a pipeline's ``score`` returns: one featurization, four views.

    Attributes:
        labels: hard labels (1 legitimate, 0 illegitimate).
        scores: continuous score increasing with legitimacy; AUC reads it.
        proba: probability of the legitimate class.
        rank: the Section-5 rank term (textRank, Equation 3 or
            networkRank).
    """

    labels: np.ndarray
    scores: np.ndarray
    proba: np.ndarray
    rank: np.ndarray


def classifier_scores(
    classifier: BaseClassifier, X: Any, rank: np.ndarray | None = None
) -> PipelineScores:
    """Score feature rows ``X`` with a fitted classifier.

    ``rank`` is the pipeline's Section-5 term; it defaults to the
    legitimate-class probability.
    """
    proba = classifier.predict_proba(X)[:, -1]
    return PipelineScores(
        labels=classifier.predict(X),
        scores=classifier.decision_scores(X),
        proba=proba,
        rank=proba if rank is None else rank,
    )


@dataclass(frozen=True, slots=True)
class MeasureSummary:
    """Mean and 95%-CI half-width of one measure across folds."""

    mean: float
    ci_half_width: float

    def __format__(self, spec: str) -> str:
        return format(self.mean, spec or ".3f")


@dataclass(frozen=True, slots=True)
class AggregatedReport:
    """Fold-aggregated evaluation of one configuration."""

    fold_reports: tuple[BinaryClassificationReport, ...]

    def measure(self, name: str) -> MeasureSummary:
        """Aggregate one measure by name (see MEASURES)."""
        values = [getattr(report, name) for report in self.fold_reports]
        mean, half = mean_confidence_interval(values)
        return MeasureSummary(mean=mean, ci_half_width=half)

    @property
    def accuracy(self) -> MeasureSummary:
        return self.measure("accuracy")

    @property
    def legitimate_precision(self) -> MeasureSummary:
        return self.measure("legitimate_precision")

    @property
    def legitimate_recall(self) -> MeasureSummary:
        return self.measure("legitimate_recall")

    @property
    def illegitimate_precision(self) -> MeasureSummary:
        return self.measure("illegitimate_precision")

    @property
    def illegitimate_recall(self) -> MeasureSummary:
        return self.measure("illegitimate_recall")

    @property
    def auc_roc(self) -> MeasureSummary:
        return self.measure("auc_roc")

    def as_dict(self) -> dict[str, float]:
        """Mean of every measure, keyed by name."""
        return {name: self.measure(name).mean for name in MEASURES}


def cross_validate_pipeline(
    pipeline_factory: Callable[[], object],
    documents: Sequence[object],
    y: Sequence[int],
    n_folds: int = 3,
    seed: int = 0,
) -> AggregatedReport:
    """K-fold CV of a text pipeline (fit/score on document lists).

    Each test fold is featurized once, by one ``score`` call.

    Args:
        pipeline_factory: zero-arg callable returning a fresh unfitted
            pipeline whose ``fit(documents, y)`` and ``score(documents)``
            take document sequences; ``score`` returns
            :class:`PipelineScores`.
        documents: per-pharmacy summary documents.
        y: labels aligned with ``documents``.
        n_folds: fold count (paper: 3).
        seed: fold-assignment seed.
    """
    labels = np.asarray(y, dtype=np.int64)
    splitter = StratifiedKFold(n_splits=n_folds, shuffle=True, seed=seed)
    reports: list[BinaryClassificationReport] = []
    for train_idx, test_idx in splitter.split(labels):
        pipeline = pipeline_factory()
        pipeline.fit([documents[i] for i in train_idx], labels[train_idx])
        scored = pipeline.score([documents[i] for i in test_idx])
        reports.append(
            classification_report(labels[test_idx], scored.labels, scored.scores)
        )
    return AggregatedReport(fold_reports=tuple(reports))


def cross_validate_indexed(
    fit_predict: Callable[
        [np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]
    ],
    y: Sequence[int],
    n_folds: int = 3,
    seed: int = 0,
) -> AggregatedReport:
    """K-fold CV for transductive pipelines that work on row indices.

    Used by the network and ensemble pipelines, whose features depend
    on the composition of the training fold (TrustRank seeds).

    Args:
        fit_predict: callable ``(train_idx, test_idx) ->
            (predictions, scores)`` for the test rows.
        y: labels for stratification and scoring.
    """
    labels = np.asarray(y, dtype=np.int64)
    splitter = StratifiedKFold(n_splits=n_folds, shuffle=True, seed=seed)
    reports: list[BinaryClassificationReport] = []
    for train_idx, test_idx in splitter.split(labels):
        predictions, scores = fit_predict(train_idx, test_idx)
        reports.append(
            classification_report(labels[test_idx], predictions, scores)
        )
    return AggregatedReport(fold_reports=tuple(reports))


def train_test_evaluate(
    pipeline_factory: Callable[[], object],
    train_documents: Sequence[object],
    y_train: Sequence[int],
    test_documents: Sequence[object],
    y_test: Sequence[int],
) -> BinaryClassificationReport:
    """Train on one corpus, evaluate on another (Section 6.5 Old-New)."""
    pipeline = pipeline_factory()
    pipeline.fit(list(train_documents), np.asarray(y_train, dtype=np.int64))
    scored = pipeline.score(list(test_documents))
    return classification_report(
        np.asarray(y_test, dtype=np.int64), scored.labels, scored.scores
    )
