"""Class-imbalance resampling: random undersampling (SUB) and SMOTE.

The paper's two classes are strongly imbalanced (12% legitimate).  It
evaluates three regimes per classifier — the natural distribution (NO),
random undersampling of the majority class (SUB), and SMOTE
oversampling of the minority class — and reports the best (Table 2).

* :class:`RandomUnderSampler` removes majority-class examples at random
  until both classes are the same size.
* :class:`SMOTE` synthesizes minority examples by interpolating between
  a minority point and one of its k nearest minority neighbours
  (Chawla et al., JAIR 2002) — "operating in feature space rather than
  data space".

Both operate on dense or sparse matrices (sparse input is densified for
SMOTE's neighbour computation; the paper's subsampled TF-IDF matrices
are small enough for this).
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.ml.base import check_X_y, ensure_dense
from repro.exceptions import ValidationError

__all__ = ["RandomUnderSampler", "SMOTE", "SAMPLER_ABBREVIATIONS"]

#: Abbreviations used in the paper's tables (Table 2).
SAMPLER_ABBREVIATIONS = {
    None: "NO",
    "RandomUnderSampler": "SUB",
    "SMOTE": "SMOTE",
}


class RandomUnderSampler:
    """Balance classes by dropping random majority-class rows (SUB).

    Args:
        seed: RNG seed for the row selection.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed

    def fit_resample(self, X: Any, y: Any) -> tuple[Any, np.ndarray]:
        """Return a class-balanced (X, y) subsample.

        Every class is cut to the size of the smallest one.  Row order
        is re-sorted to keep the output deterministic.
        """
        X, y = check_X_y(X, y, allow_sparse=True)
        rng = np.random.default_rng(self._seed)
        classes, counts = np.unique(y, return_counts=True)
        target = int(counts.min())
        keep: list[np.ndarray] = []
        for label in classes:
            idx = np.flatnonzero(y == label)
            if idx.size > target:
                idx = rng.choice(idx, size=target, replace=False)
            keep.append(idx)
        rows = np.sort(np.concatenate(keep))
        return X[rows], y[rows]


class SMOTE:
    """Synthetic Minority Over-sampling TEchnique (Chawla et al. 2002).

    Oversamples every non-majority class up to the majority-class size
    by generating synthetic rows ``x + u * (neighbour - x)`` with
    ``u ~ U(0, 1)`` and ``neighbour`` one of the ``k`` nearest
    same-class rows.

    The neighbour search computes pairwise squared distances in row
    chunks of the minority block (one ``chunk @ block.T`` product per
    chunk), so memory stays bounded at ``chunk_size * n_minority``
    floats while the interpolation of all synthetic rows happens in one
    vectorized expression.  The classic per-sample loop implementation
    is kept as ``tests.reference.ReferenceSMOTE``, the
    equivalence oracle pinned by ``tests/perf``.

    Args:
        k_neighbors: neighbourhood size (paper/standard default 5).
        seed: RNG seed.
        chunk_size: rows per pairwise-distance chunk (memory knob; the
            result is identical at any chunk size).
    """

    def __init__(
        self, k_neighbors: int = 5, seed: int = 0, chunk_size: int = 512
    ) -> None:
        if k_neighbors < 1:
            raise ValidationError(f"k_neighbors must be >= 1, got {k_neighbors}")
        if chunk_size < 1:
            raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
        self._k_neighbors = k_neighbors
        self._seed = seed
        self._chunk_size = chunk_size

    def fit_resample(self, X: Any, y: Any) -> tuple[np.ndarray, np.ndarray]:
        """Return (X, y) with minority classes synthetically upsampled.

        Output is always dense (synthetic rows are dense by nature).
        """
        X, y = check_X_y(X, y, allow_sparse=True)
        dense = ensure_dense(X) if sp.issparse(X) else X
        rng = np.random.default_rng(self._seed)
        classes, counts = np.unique(y, return_counts=True)
        majority = int(counts.max())
        new_rows: list[np.ndarray] = [dense]
        new_labels: list[np.ndarray] = [y]
        for label, count in zip(classes, counts):
            deficit = majority - int(count)
            if deficit == 0:
                continue
            block = dense[y == label]
            if block.shape[0] == 1:
                # Nothing to interpolate with; replicate the single row.
                synthetic = np.repeat(block, deficit, axis=0)
            else:
                synthetic = self._synthesize(block, deficit, rng)
            new_rows.append(synthetic)
            new_labels.append(np.full(deficit, label, dtype=y.dtype))
        return np.vstack(new_rows), np.concatenate(new_labels)

    def _synthesize(
        self, block: np.ndarray, n_new: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Generate ``n_new`` synthetic rows from minority ``block``."""
        k = min(self._k_neighbors, block.shape[0] - 1)
        n_rows = block.shape[0]
        # Pairwise squared distances within the minority class, chunked
        # over rows so peak memory is chunk_size * n_rows.
        sq = np.sum(block**2, axis=1)
        neighbour_idx = np.empty((n_rows, k), dtype=np.int64)
        for start in range(0, n_rows, self._chunk_size):
            stop = min(start + self._chunk_size, n_rows)
            d2 = (
                sq[start:stop, None]
                + sq[None, :]
                - 2.0 * (block[start:stop] @ block.T)
            )
            d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
            neighbour_idx[start:stop] = np.argsort(d2, axis=1)[:, :k]
        base = rng.integers(0, block.shape[0], size=n_new)
        pick = rng.integers(0, k, size=n_new)
        neighbours = block[neighbour_idx[base, pick]]
        gaps = rng.random(size=(n_new, 1))
        return block[base] + gaps * (neighbours - block[base])
