"""Cross-validation utilities.

The paper evaluates everything with 3-fold cross-validation (two folds
train, one tests), repeated over all fold rotations.  Folds are
stratified so every fold keeps the 12/88 class ratio — essential with
only ~167 legitimate examples.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from repro.exceptions import ValidationError

__all__ = ["StratifiedKFold", "train_test_split"]


class StratifiedKFold:
    """Stratified k-fold splitter.

    Args:
        n_splits: number of folds (paper: 3).
        shuffle: shuffle within each class before folding.
        seed: RNG seed used when shuffling.
    """

    def __init__(self, n_splits: int = 3, shuffle: bool = True, seed: int = 0) -> None:
        if n_splits < 2:
            raise ValidationError(f"n_splits must be >= 2, got {n_splits}")
        self._n_splits = n_splits
        self._shuffle = shuffle
        self._seed = seed

    @property
    def n_splits(self) -> int:
        return self._n_splits

    def split(self, y: Sequence[int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (train_indices, test_indices) for each fold.

        Raises:
            ValueError: when any class has fewer rows than ``n_splits``.
        """
        labels = np.asarray(y).ravel()
        n = labels.shape[0]
        rng = np.random.default_rng(self._seed)
        fold_of = np.empty(n, dtype=np.int64)
        for label in np.unique(labels):
            idx = np.flatnonzero(labels == label)
            if idx.size < self._n_splits:
                raise ValidationError(
                    f"class {label} has {idx.size} rows < n_splits={self._n_splits}"
                )
            if self._shuffle:
                rng.shuffle(idx)
            # Deal class rows round-robin into folds.
            fold_of[idx] = np.arange(idx.size) % self._n_splits
        for fold in range(self._n_splits):
            test = np.flatnonzero(fold_of == fold)
            train = np.flatnonzero(fold_of != fold)
            yield train, test


def train_test_split(
    y: Sequence[int], test_fraction: float = 0.33, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified single split; returns (train_indices, test_indices)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    labels = np.asarray(y).ravel()
    rng = np.random.default_rng(seed)
    train_parts: list[np.ndarray] = []
    test_parts: list[np.ndarray] = []
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        rng.shuffle(idx)
        n_test = max(1, int(round(test_fraction * idx.size)))
        if n_test >= idx.size:
            n_test = idx.size - 1
        test_parts.append(idx[:n_test])
        train_parts.append(idx[n_test:])
    return (
        np.sort(np.concatenate(train_parts)),
        np.sort(np.concatenate(test_parts)),
    )
