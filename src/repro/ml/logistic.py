"""L2-regularized logistic regression.

Not one of the paper's five classifiers, but a natural library member
for Ensemble Selection (the Caruana approach explicitly thrives on
diverse libraries) and a well-calibrated probabilistic baseline for the
ranking model.  Trained full-batch with gradient descent + momentum on
dense or sparse input.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.ml.base import BaseClassifier, check_X, check_X_y

__all__ = ["LogisticRegression"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -50.0, 50.0)))


class LogisticRegression(BaseClassifier):
    """Binary logistic regression (L2, full-batch gradient descent).

    Args:
        l2: regularization strength.
        learning_rate: gradient step size.
        n_iterations: gradient steps.
        momentum: classical momentum coefficient.
        class_weight: ``None`` or ``"balanced"``.
        tolerance: stop when the gradient norm falls below this.
    """

    def __init__(
        self,
        l2: float = 1e-3,
        learning_rate: float = 1.0,
        n_iterations: int = 300,
        momentum: float = 0.9,
        class_weight: str | None = "balanced",
        tolerance: float = 1e-7,
    ) -> None:
        super().__init__()
        if l2 < 0:
            raise ValidationError(f"l2 must be >= 0, got {l2}")
        if learning_rate <= 0:
            raise ValidationError(f"learning_rate must be > 0, got {learning_rate}")
        if n_iterations < 1:
            raise ValidationError(f"n_iterations must be >= 1, got {n_iterations}")
        if not 0.0 <= momentum < 1.0:
            raise ValidationError(f"momentum must be in [0, 1), got {momentum}")
        if class_weight not in (None, "balanced"):
            raise ValidationError(f"unsupported class_weight: {class_weight!r}")
        self._l2 = l2
        self._learning_rate = learning_rate
        self._n_iterations = n_iterations
        self._momentum = momentum
        self._class_weight = class_weight
        self._tolerance = tolerance
        self._w: np.ndarray | None = None
        self._b: float = 0.0

    def fit(self, X: Any, y: Any) -> "LogisticRegression":
        X, y = check_X_y(X, y, allow_sparse=True)
        encoded = self._store_classes(y)
        if len(self._fitted_classes()) != 2:
            raise ValidationError("LogisticRegression is binary; got > 2 classes")
        target = encoded.astype(np.float64)
        n_samples, n_features = X.shape
        if self._class_weight == "balanced":
            n_pos = float(target.sum())
            n_neg = float(n_samples - n_pos)
            weight = np.where(
                target == 1.0,  # exact 0/1 label match
                n_samples / (2.0 * max(n_pos, 1.0)),
                n_samples / (2.0 * max(n_neg, 1.0)),
            )
        else:
            weight = np.ones(n_samples)
        weight = weight / weight.sum()

        w = np.zeros(n_features)
        b = 0.0
        v_w = np.zeros(n_features)
        v_b = 0.0
        lr = self._learning_rate
        mu = self._momentum
        XT = X.T  # cached transpose view (cheap for CSR too)
        for _ in range(self._n_iterations):
            # CSR @ dense vector yields a dense ndarray directly.
            margin = np.asarray(X @ w).ravel()
            proba = _sigmoid(margin + b)
            error = (proba - target) * weight
            grad_w = np.asarray(XT @ error).ravel() + self._l2 * w
            grad_b = float(error.sum())
            if np.sqrt(grad_w @ grad_w + grad_b**2) < self._tolerance:
                break
            v_w = mu * v_w - lr * grad_w
            v_b = mu * v_b - lr * grad_b
            w = w + v_w
            b = b + v_b
        self._w = w
        self._b = b
        return self

    def decision_function(self, X: Any) -> np.ndarray:
        """Log-odds of the positive (legitimate) class."""
        if self._w is None:
            raise NotFittedError("LogisticRegression has not been fitted")
        X = check_X(X, allow_sparse=True)
        if X.shape[1] != self._w.shape[0]:
            raise ValidationError(
                f"feature-count mismatch: fitted on {self._w.shape[0]}, "
                f"got {X.shape[1]}"
            )
        scores = np.asarray(X @ self._w).ravel()
        return scores + self._b

    def predict_proba(self, X: Any) -> np.ndarray:
        pos = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - pos, pos])
