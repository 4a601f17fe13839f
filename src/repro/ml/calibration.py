"""Probability calibration (Platt scaling).

The paper maps non-probabilistic SVM output to {0, 1} for ranking.  A
production deployment usually wants calibrated probabilities instead;
:class:`PlattScaler` fits the classic sigmoid

    P(y = 1 | s) = 1 / (1 + exp(A * s + B))

to (score, label) pairs by regularized maximum likelihood (Platt 1999,
with the Lin/Weng/others target smoothing), and
:class:`CalibratedClassifier` wraps any classifier prototype exposing
``decision_scores`` so it gains a calibrated ``predict_proba``; its
``decision_scores`` is that calibrated probability.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import ArrayLike

from repro.contracts import check_row_stochastic, check_score_range
from repro.exceptions import NotFittedError, ValidationError
from repro.ml.base import BaseClassifier, check_X_y, clone
from repro.ml.model_selection import train_test_split

__all__ = ["PlattScaler", "CalibratedClassifier"]


class PlattScaler:
    """Fit a sigmoid mapping real scores to probabilities.

    Args:
        max_iterations: Newton-step cap.
        tolerance: gradient-norm stopping threshold.
    """

    def __init__(self, max_iterations: int = 100, tolerance: float = 1e-10) -> None:
        self._max_iterations = max_iterations
        self._tolerance = tolerance
        self._a: float | None = None
        self._b: float | None = None

    @property
    def coefficients(self) -> tuple[float, float]:
        """The fitted (A, B) of ``sigma(A s + B)``."""
        if self._a is None or self._b is None:
            raise NotFittedError("PlattScaler has not been fitted")
        return self._a, self._b

    def fit(self, scores: ArrayLike, y: ArrayLike) -> "PlattScaler":
        """Fit on held-out (score, binary-label) pairs.

        Uses Platt's smoothed targets ``(n_pos + 1) / (n_pos + 2)`` and
        ``1 / (n_neg + 2)`` to avoid overfitting tiny calibration sets,
        optimized with Newton iterations on the 2-parameter problem.
        """
        s = np.asarray(scores, dtype=np.float64).ravel()
        labels = np.asarray(y, dtype=np.int64).ravel()
        if s.shape != labels.shape:
            raise ValidationError("scores and y disagree in shape")
        if s.size == 0:
            raise ValidationError("cannot calibrate on an empty set")
        n_pos = float(np.sum(labels == 1))
        n_neg = float(labels.size - n_pos)
        if n_pos == 0 or n_neg == 0:
            raise ValidationError("calibration needs both classes present")
        hi = (n_pos + 1.0) / (n_pos + 2.0)
        lo = 1.0 / (n_neg + 2.0)
        target = np.where(labels == 1, hi, lo)

        a, b = 0.0, float(np.log((n_neg + 1.0) / (n_pos + 1.0)))
        for _ in range(self._max_iterations):
            z = a * s + b
            p = 1.0 / (1.0 + np.exp(-np.clip(-z, -50.0, 50.0)))
            # Note: Platt's convention is P = 1/(1+exp(A s + B)), i.e.
            # p above is sigma(-(a s + b)).
            d = p - target
            grad_a = float(np.dot(d, -s))
            grad_b = float(-np.sum(d))
            w = p * (1.0 - p)
            h_aa = float(np.dot(w, s * s)) + 1e-12
            h_ab = float(np.dot(w, s))
            h_bb = float(np.sum(w)) + 1e-12
            det = h_aa * h_bb - h_ab * h_ab
            if abs(det) < 1e-18:
                break
            step_a = (h_bb * grad_a - h_ab * grad_b) / det
            step_b = (h_aa * grad_b - h_ab * grad_a) / det
            a -= step_a
            b -= step_b
            if abs(step_a) + abs(step_b) < self._tolerance:
                break
        self._a, self._b = a, b
        return self

    @check_score_range(0.0, 1.0)
    def transform(self, scores: ArrayLike) -> np.ndarray:
        """Map scores to calibrated P(y = 1)."""
        a, b = self.coefficients
        s = np.asarray(scores, dtype=np.float64).ravel()
        z = np.clip(a * s + b, -50.0, 50.0)
        return 1.0 / (1.0 + np.exp(z))

    def fit_transform(self, scores: ArrayLike, y: ArrayLike) -> np.ndarray:
        """``fit(scores, y).transform(scores)``."""
        return self.fit(scores, y).transform(scores)


class CalibratedClassifier(BaseClassifier):
    """A classifier whose probabilities are Platt-calibrated.

    :meth:`fit` holds out a stratified quarter of the training rows
    (``train_test_split(y, 0.25, seed=0)``), fits a clone of the wrapped
    prototype on the rest, and fits a :class:`PlattScaler` on the
    prototype's ``decision_scores`` of the held-out slice.  Being a
    :class:`~repro.ml.base.BaseClassifier` prototype itself, it drops
    into any pipeline or verifier, e.g.
    ``TfidfTextPipeline(CalibratedClassifier(LinearSVC()))``.

    Args:
        classifier: unfitted binary classifier prototype exposing
            ``decision_scores`` (cloned on fit).
    """

    def __init__(self, classifier: BaseClassifier) -> None:
        super().__init__()
        self._classifier = classifier
        self._fitted: BaseClassifier | None = None
        self._scaler: PlattScaler | None = None

    def fit(self, X: Any, y: Any) -> "CalibratedClassifier":
        """Fit the prototype on 3/4 of the rows, Platt on the other 1/4."""
        X, y_arr = check_X_y(X, y)
        fit_idx, holdout_idx = train_test_split(y_arr, test_fraction=0.25, seed=0)
        fitted = clone(self._classifier).fit(X[fit_idx], y_arr[fit_idx])
        classes = fitted._fitted_classes()
        self._scaler = PlattScaler().fit(
            fitted.decision_scores(X[holdout_idx]),
            (y_arr[holdout_idx] == classes[-1]).astype(np.int64),
        )
        self._fitted = fitted
        self.classes_ = classes
        return self

    @check_row_stochastic()
    def predict_proba(self, X: Any) -> np.ndarray:
        """Calibrated class probabilities, columns ``[P(0), P(1)]``."""
        if self._fitted is None or self._scaler is None:
            raise NotFittedError("CalibratedClassifier has not been fitted")
        pos = self._scaler.transform(self._fitted.decision_scores(X))
        return np.column_stack([1.0 - pos, pos])

    def predict(self, X: Any) -> np.ndarray:
        """Labels from thresholding the calibrated probability at 0.5."""
        classes = self._fitted_classes()
        return classes[(self.predict_proba(X)[:, 1] >= 0.5).astype(np.int64)]
