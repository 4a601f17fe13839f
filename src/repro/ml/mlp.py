"""Multilayer perceptron (the paper's MLP / "Artificial Neural Networks").

A single-hidden-layer feed-forward network with sigmoid activations and
a softmax output trained by mini-batch gradient descent with momentum —
the same architecture family as Weka's MultilayerPerceptron, which the
paper uses on N-Gram-Graph similarity features (where it is the best
classifier, Tables 7–10).

Inputs are expected to be dense and roughly unit-scaled (similarity
features are already in [0, 1]).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.ml.base import BaseClassifier, check_X_y, ensure_dense

__all__ = ["MLPClassifier"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -50.0, 50.0)))


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class MLPClassifier(BaseClassifier):
    """One-hidden-layer MLP with sigmoid units and softmax output.

    Args:
        hidden_units: width of the hidden layer.
        learning_rate: SGD step size.
        momentum: classical momentum coefficient (Weka default 0.2).
        n_epochs: passes over the training data (Weka default 500; the
            low-dimensional similarity features converge much faster).
        batch_size: mini-batch size.
        l2: weight decay coefficient.
        class_weight: ``None`` or ``"balanced"`` (loss re-weighting).
        seed: RNG seed for init and shuffling.
    """

    def __init__(
        self,
        hidden_units: int = 16,
        learning_rate: float = 0.3,
        momentum: float = 0.2,
        n_epochs: int = 200,
        batch_size: int = 32,
        l2: float = 1e-4,
        class_weight: str | None = "balanced",
        seed: int = 0,
    ) -> None:
        super().__init__()
        if hidden_units < 1:
            raise ValidationError(f"hidden_units must be >= 1, got {hidden_units}")
        if learning_rate <= 0:
            raise ValidationError(f"learning_rate must be > 0, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ValidationError(f"momentum must be in [0, 1), got {momentum}")
        if n_epochs < 1:
            raise ValidationError(f"n_epochs must be >= 1, got {n_epochs}")
        if batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
        if class_weight not in (None, "balanced"):
            raise ValidationError(f"unsupported class_weight: {class_weight!r}")
        self._hidden_units = hidden_units
        self._learning_rate = learning_rate
        self._momentum = momentum
        self._n_epochs = n_epochs
        self._batch_size = batch_size
        self._l2 = l2
        self._class_weight = class_weight
        self._seed = seed
        self._w1: np.ndarray | None = None
        self._b1: np.ndarray | None = None
        self._w2: np.ndarray | None = None
        self._b2: np.ndarray | None = None

    def fit(self, X: Any, y: Any) -> "MLPClassifier":
        X = ensure_dense(X)
        X, y = check_X_y(X, y, allow_sparse=False)
        encoded = self._store_classes(y)
        n_classes = len(self._fitted_classes())
        n_samples, n_features = X.shape

        rng = np.random.default_rng(self._seed)
        scale1 = np.sqrt(2.0 / (n_features + self._hidden_units))
        scale2 = np.sqrt(2.0 / (self._hidden_units + n_classes))
        w1 = rng.normal(0.0, scale1, size=(n_features, self._hidden_units))
        b1 = np.zeros(self._hidden_units)
        w2 = rng.normal(0.0, scale2, size=(self._hidden_units, n_classes))
        b2 = np.zeros(n_classes)
        v_w1 = np.zeros_like(w1)
        v_b1 = np.zeros_like(b1)
        v_w2 = np.zeros_like(w2)
        v_b2 = np.zeros_like(b2)

        onehot = np.zeros((n_samples, n_classes))
        onehot[np.arange(n_samples), encoded] = 1.0
        if self._class_weight == "balanced":
            counts = np.bincount(encoded, minlength=n_classes).astype(np.float64)
            weights_per_class = n_samples / (n_classes * np.maximum(counts, 1.0))
            sample_weight = weights_per_class[encoded]
        else:
            sample_weight = np.ones(n_samples)

        lr = self._learning_rate
        mu = self._momentum
        for _ in range(self._n_epochs):
            order = rng.permutation(n_samples)
            for start in range(0, n_samples, self._batch_size):
                idx = order[start : start + self._batch_size]
                xb = X[idx]
                tb = onehot[idx]
                wb = sample_weight[idx][:, None]
                hidden = _sigmoid(xb @ w1 + b1)
                proba = _softmax(hidden @ w2 + b2)
                # Cross-entropy gradient at the softmax input:
                delta_out = (proba - tb) * wb / len(idx)
                grad_w2 = hidden.T @ delta_out + self._l2 * w2
                grad_b2 = delta_out.sum(axis=0)
                delta_hidden = (delta_out @ w2.T) * hidden * (1.0 - hidden)
                grad_w1 = xb.T @ delta_hidden + self._l2 * w1
                grad_b1 = delta_hidden.sum(axis=0)
                v_w2 = mu * v_w2 - lr * grad_w2
                v_b2 = mu * v_b2 - lr * grad_b2
                v_w1 = mu * v_w1 - lr * grad_w1
                v_b1 = mu * v_b1 - lr * grad_b1
                w2 += v_w2
                b2 += v_b2
                w1 += v_w1
                b1 += v_b1

        self._w1, self._b1, self._w2, self._b2 = w1, b1, w2, b2
        return self

    def predict_proba(self, X: Any) -> np.ndarray:
        if self._w1 is None:
            raise NotFittedError("MLPClassifier has not been fitted")
        X = ensure_dense(X)
        if X.shape[1] != self._w1.shape[0]:
            raise ValidationError(
                f"feature-count mismatch: fitted on {self._w1.shape[0]}, "
                f"got {X.shape[1]}"
            )
        hidden = _sigmoid(X @ self._w1 + self._b1)
        return _softmax(hidden @ self._w2 + self._b2)
