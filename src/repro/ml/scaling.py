"""Feature standardization."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.ml.base import ensure_dense

__all__ = ["StandardScaler"]


class StandardScaler:
    """Standardize dense features to zero mean and unit variance.

    Constant features are left centered but unscaled (divisor 1.0).
    """

    def __init__(self) -> None:
        self._mean: np.ndarray | None = None
        self._scale: np.ndarray | None = None

    def fit(self, X: Any) -> "StandardScaler":
        X = ensure_dense(X)
        self._mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0  # exact zero-division guard
        self._scale = std
        return self

    def transform(self, X: Any) -> np.ndarray:
        if self._mean is None or self._scale is None:
            raise NotFittedError("StandardScaler has not been fitted")
        X = ensure_dense(X)
        if X.shape[1] != self._mean.shape[0]:
            raise ValidationError(
                f"feature-count mismatch: fitted on {self._mean.shape[0]}, "
                f"got {X.shape[1]}"
            )
        return (X - self._mean) / self._scale

    def fit_transform(self, X: Any) -> np.ndarray:
        return self.fit(X).transform(X)
