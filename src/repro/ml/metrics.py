"""Evaluation measures (Section 6.2 of the paper).

Implements exactly the measures the paper reports:

* overall accuracy;
* per-class precision and recall (the paper reports them for both the
  *legitimate* (positive) and *illegitimate* (negative) class);
* the ROC curve and the area under it (AUC-ROC);
* normal-approximation confidence intervals over cross-validation folds;
* pairwise orderedness for the ranking problem (Problem 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from numpy.typing import ArrayLike

from repro.contracts import check_score_range
from repro.exceptions import ValidationError

__all__ = [
    "confusion_counts",
    "accuracy",
    "precision",
    "recall",
    "roc_curve",
    "auc_roc",
    "auc_roc_many",
    "precision_recall_curve",
    "threshold_for_precision",
    "mean_confidence_interval",
    "pairwise_orderedness",
    "BinaryClassificationReport",
    "classification_report",
]


def _as_label_arrays(
    y_true: ArrayLike, y_pred: ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    yt = np.asarray(y_true).ravel()
    yp = np.asarray(y_pred).ravel()
    if yt.shape != yp.shape:
        raise ValidationError(f"shape mismatch: {yt.shape} vs {yp.shape}")
    if yt.size == 0:
        raise ValidationError("empty label arrays")
    return yt, yp


def confusion_counts(
    y_true: ArrayLike, y_pred: ArrayLike, positive_label: int = 1
) -> tuple[int, int, int, int]:
    """Return ``(tp, fp, tn, fn)`` with respect to ``positive_label``."""
    yt, yp = _as_label_arrays(y_true, y_pred)
    pos_true = yt == positive_label
    pos_pred = yp == positive_label
    tp = int(np.sum(pos_true & pos_pred))
    fp = int(np.sum(~pos_true & pos_pred))
    tn = int(np.sum(~pos_true & ~pos_pred))
    fn = int(np.sum(pos_true & ~pos_pred))
    return tp, fp, tn, fn


@check_score_range(0.0, 1.0)
def accuracy(y_true: ArrayLike, y_pred: ArrayLike) -> float:
    """Overall accuracy: fraction of correctly classified instances."""
    yt, yp = _as_label_arrays(y_true, y_pred)
    return float(np.mean(yt == yp))


def precision(
    y_true: ArrayLike, y_pred: ArrayLike, positive_label: int = 1
) -> float:
    """Precision for ``positive_label``; 0.0 when nothing was predicted
    positive (convention for the degenerate case)."""
    tp, fp, _, _ = confusion_counts(y_true, y_pred, positive_label)
    denom = tp + fp
    return tp / denom if denom else 0.0


def recall(
    y_true: ArrayLike, y_pred: ArrayLike, positive_label: int = 1
) -> float:
    """Recall for ``positive_label``; 0.0 when the class is absent."""
    tp, _, _, fn = confusion_counts(y_true, y_pred, positive_label)
    denom = tp + fn
    return tp / denom if denom else 0.0


def roc_curve(
    y_true: ArrayLike, scores: ArrayLike, positive_label: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute the ROC curve.

    Args:
        y_true: true labels.
        scores: real-valued scores, higher = more positive.
        positive_label: which label counts as positive.

    Returns:
        ``(fpr, tpr, thresholds)`` arrays; thresholds descending,
        starting above the max score so the curve begins at (0, 0).
    """
    yt = np.asarray(y_true).ravel()
    sc = np.asarray(scores, dtype=np.float64).ravel()
    if yt.shape != sc.shape:
        raise ValidationError(f"shape mismatch: {yt.shape} vs {sc.shape}")
    pos = yt == positive_label
    n_pos = int(np.sum(pos))
    n_neg = int(yt.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("ROC requires both positive and negative examples")
    order = np.argsort(-sc, kind="stable")
    sorted_scores = sc[order]
    sorted_pos = pos[order].astype(np.float64)
    # Collapse ties: only keep the last index of each distinct score.
    distinct = np.where(np.diff(sorted_scores))[0]
    cut = np.r_[distinct, sorted_scores.size - 1]
    tp_cum = np.cumsum(sorted_pos)[cut]
    fp_cum = (cut + 1) - tp_cum
    tpr = np.r_[0.0, tp_cum / n_pos]
    fpr = np.r_[0.0, fp_cum / n_neg]
    thresholds = np.r_[sorted_scores[0] + 1.0, sorted_scores[cut]]
    return fpr, tpr, thresholds


@check_score_range(0.0, 1.0)
def auc_roc(
    y_true: ArrayLike, scores: ArrayLike, positive_label: int = 1
) -> float:
    """Area under the ROC curve (trapezoidal rule over the exact curve)."""
    fpr, tpr, _ = roc_curve(y_true, scores, positive_label)
    return float(np.trapezoid(tpr, fpr))


def auc_roc_many(
    y_true: ArrayLike, scores: ArrayLike, positive_label: int = 1
) -> np.ndarray:
    """AUC-ROC of many score rows against one label vector at once.

    Uses the Mann-Whitney rank statistic with average ranks for ties,
    which equals the trapezoidal area over the tie-collapsed ROC curve
    computed by :func:`auc_roc` (up to floating-point rounding, well
    within 1e-9).  One argsort per row replaces one full ROC-curve
    construction per row, which is what makes batched ensemble
    hill-climbing cheap.

    Args:
        y_true: true labels, shape ``(n,)``.
        scores: score matrix, shape ``(m, n)`` — one row per candidate.
        positive_label: which label counts as positive.

    Returns:
        Array of ``m`` AUC values in [0, 1].
    """
    yt = np.asarray(y_true).ravel()
    mat = np.asarray(scores, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] != yt.size:
        raise ValidationError(
            f"scores must be (m, {yt.size}), got {mat.shape}"
        )
    pos = yt == positive_label
    n_pos = int(np.sum(pos))
    n_neg = int(yt.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("ROC requires both positive and negative examples")
    m, n = mat.shape
    order = np.argsort(mat, axis=1, kind="stable")
    svals = np.take_along_axis(mat, order, axis=1)
    idx = np.arange(n, dtype=np.float64)
    # Average ranks over tie groups: for each sorted position find the
    # first and last index of its group of equal values.
    new_group = np.ones((m, n), dtype=bool)
    new_group[:, 1:] = np.diff(svals, axis=1) != 0.0  # exact tie-group detection
    first = np.maximum.accumulate(np.where(new_group, idx, 0.0), axis=1)
    is_last = np.ones((m, n), dtype=bool)
    is_last[:, :-1] = new_group[:, 1:]
    last = np.minimum.accumulate(
        np.where(is_last, idx, np.inf)[:, ::-1], axis=1
    )[:, ::-1]
    avg_rank_sorted = 0.5 * (first + last) + 1.0
    ranks = np.empty_like(mat)
    np.put_along_axis(ranks, order, avg_rank_sorted, axis=1)
    rank_sum_pos = ranks[:, pos].sum(axis=1)
    denom = float(n_pos) * float(n_neg)
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / denom


def precision_recall_curve(
    y_true: ArrayLike, scores: ArrayLike, positive_label: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision-recall pairs at every distinct score threshold.

    Returns:
        ``(precision, recall, thresholds)``; recall is non-decreasing
        along the arrays (thresholds descending), with the conventional
        (precision=1, recall=0) starting point prepended.
    """
    yt = np.asarray(y_true).ravel()
    sc = np.asarray(scores, dtype=np.float64).ravel()
    if yt.shape != sc.shape:
        raise ValidationError(f"shape mismatch: {yt.shape} vs {sc.shape}")
    pos = yt == positive_label
    n_pos = int(np.sum(pos))
    if n_pos == 0:
        raise ValidationError("precision-recall requires positive examples")
    order = np.argsort(-sc, kind="stable")
    sorted_scores = sc[order]
    sorted_pos = pos[order].astype(np.float64)
    distinct = np.where(np.diff(sorted_scores))[0]
    cut = np.r_[distinct, sorted_scores.size - 1]
    tp = np.cumsum(sorted_pos)[cut]
    predicted = (cut + 1).astype(np.float64)
    prec = np.r_[1.0, tp / predicted]
    rec = np.r_[0.0, tp / n_pos]
    thresholds = np.r_[sorted_scores[0] + 1.0, sorted_scores[cut]]
    return prec, rec, thresholds


def threshold_for_precision(
    y_true: ArrayLike,
    scores: ArrayLike,
    min_precision: float,
    positive_label: int = 1,
) -> float | None:
    """Smallest score threshold achieving at least ``min_precision``.

    The operational knob for a verification deployment: "only
    auto-whitelist pharmacies when legitimate precision stays above X".

    Returns:
        The threshold (predict positive when ``score >= threshold``)
        maximizing recall subject to the precision floor, or ``None``
        when no threshold achieves it.
    """
    if not 0.0 < min_precision <= 1.0:
        raise ValidationError(f"min_precision must be in (0, 1], got {min_precision}")
    prec, rec, thresholds = precision_recall_curve(
        y_true, scores, positive_label
    )
    feasible = np.flatnonzero(prec[1:] >= min_precision) + 1
    if feasible.size == 0:
        return None
    best = feasible[np.argmax(rec[feasible])]
    return float(thresholds[best])


def mean_confidence_interval(
    values: ArrayLike, confidence: float = 0.95
) -> tuple[float, float]:
    """Mean and half-width of a normal-approximation confidence interval.

    The paper reports 95% confidence intervals across cross-validation
    folds.  For tiny fold counts a Student-t critical value is used.

    Returns:
        ``(mean, half_width)``; half_width is 0.0 for a single value.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValidationError("no values to aggregate")
    mean = float(np.mean(arr))
    if arr.size == 1:
        return mean, 0.0
    from scipy import stats

    sem = float(np.std(arr, ddof=1) / np.sqrt(arr.size))
    t_crit = float(stats.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1))
    return mean, t_crit * sem


@check_score_range(0.0, 1.0)
def pairwise_orderedness(ranks: ArrayLike, oracle_labels: ArrayLike) -> float:
    """Pairwise orderedness of a legitimacy ranking (Section 6.2).

    A pair (p, q) is a *violation* when an illegitimate pharmacy
    received a rank score >= that of a legitimate pharmacy.  The
    measure is the fraction of ordered pairs without a violation:

        pairord(X) = (|X| - violations) / |X|

    Args:
        ranks: rank scores (higher = more legitimate).
        oracle_labels: ground-truth labels (1 legit, 0 illegit).

    Returns:
        Value in [0, 1]; 1.0 means every legitimate pharmacy outranks
        every illegitimate one strictly.
    """
    r = np.asarray(ranks, dtype=np.float64).ravel()
    y = np.asarray(oracle_labels).ravel()
    if r.shape != y.shape:
        raise ValidationError(f"shape mismatch: {r.shape} vs {y.shape}")
    legit_scores = r[y == 1]
    illegit_scores = r[y == 0]
    n_pairs = legit_scores.size * illegit_scores.size
    if n_pairs == 0:
        raise ValidationError("pairwise orderedness needs both classes present")
    # Violation: rank(illegit) >= rank(legit).  Count via sorting:
    # for each legit score, how many illegit scores are >= it.
    sorted_illegit = np.sort(illegit_scores)
    # index of first illegit >= legit score
    idx = np.searchsorted(sorted_illegit, legit_scores, side="left")
    violations = int(np.sum(sorted_illegit.size - idx))
    return (n_pairs - violations) / n_pairs


@dataclass(frozen=True, slots=True)
class BinaryClassificationReport:
    """All paper-reported classification measures for one evaluation."""

    accuracy: float
    legitimate_precision: float
    legitimate_recall: float
    illegitimate_precision: float
    illegitimate_recall: float
    auc_roc: float

    def as_dict(self) -> dict[str, float]:
        """The report as a measure-name -> value mapping."""
        return {
            "accuracy": self.accuracy,
            "legitimate_precision": self.legitimate_precision,
            "legitimate_recall": self.legitimate_recall,
            "illegitimate_precision": self.illegitimate_precision,
            "illegitimate_recall": self.illegitimate_recall,
            "auc_roc": self.auc_roc,
        }


def classification_report(
    y_true: ArrayLike,
    y_pred: ArrayLike,
    scores: ArrayLike,
    positive_label: int = 1,
    negative_label: int = 0,
) -> BinaryClassificationReport:
    """Build the full report the paper's tables are drawn from.

    Args:
        y_true: true labels.
        y_pred: hard predictions.
        scores: real-valued positive-class scores (for AUC).
        positive_label: the *legitimate* label (default 1).
        negative_label: the *illegitimate* label (default 0).
    """
    return BinaryClassificationReport(
        accuracy=accuracy(y_true, y_pred),
        legitimate_precision=precision(y_true, y_pred, positive_label),
        legitimate_recall=recall(y_true, y_pred, positive_label),
        illegitimate_precision=precision(y_true, y_pred, negative_label),
        illegitimate_recall=recall(y_true, y_pred, negative_label),
        auc_roc=auc_roc(y_true, scores, positive_label),
    )
