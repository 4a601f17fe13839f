"""Linear Support Vector Machine trained with mini-batch Pegasos SGD.

The paper uses Weka's SVM on TF-IDF vectors and on N-Gram-Graph
similarity features.  :class:`LinearSVC` implements a linear soft-margin
SVM via the mini-batch Pegasos primal sub-gradient method
(Shalev-Shwartz et al., 2007; mini-batch iterations per the 2011
journal version), which handles sparse high-dimensional text matrices
efficiently: each step computes all batch margins with one
matrix-vector product and applies one aggregated update, so the hot
loop is a handful of numpy/scipy kernels instead of a per-sample
Python loop.  On CSR input no batch builds a scipy object: each epoch
gathers its permuted rows once, and every batch runs scipy's own CSR
kernels on raw arrays, with the same sums as indexing ``X[batch]`` per
batch (pinned bit-equal in ``tests/perf``).
``batch_size=1`` reproduces the classic per-sample Pegasos schedule
exactly; the per-sample Python-loop implementation is kept as
``tests.reference.reference_pegasos_fit``, the equivalence
oracle pinned by ``tests/perf``.

SVMs are non-probabilistic; the paper maps their output to {0, 1} for
ranking.  For AUC computation we expose the raw margin through
``decision_function`` and a sigmoid-squashed pseudo-probability through
``predict_proba`` (a fixed-slope Platt approximation — adequate for
ranking by margin, which is what AUC measures).

Class imbalance support: ``class_weight="balanced"`` scales each
example's loss inversely to its class frequency, matching the paper's
observation that SVM performs well even without resampling.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp

# Private, but the only way to run scipy's own CSR loops on raw arrays:
# building a ``csr_array`` per Pegasos batch costs more than its product.
from scipy.sparse import _sparsetools

from repro.exceptions import NotFittedError, ValidationError
from repro.ml.base import BaseClassifier, check_X, check_X_y

__all__ = ["LinearSVC", "pegasos_weights"]


def pegasos_weights(
    X: Any,
    signs: np.ndarray,
    sample_weight: np.ndarray,
    lam: float,
    n_epochs: int,
    seed: int,
    batch_size: int,
    init_weights: np.ndarray | None = None,
    t0: int = 0,
) -> np.ndarray:
    """Mini-batch Pegasos on ±1 ``signs``; returns the augmented weights.

    The returned vector has ``n_features + 1`` entries — the bias is
    folded in as a constant feature, so it is regularized with ``w``
    and Pegasos's large early steps cannot make it drift unboundedly.

    Per batch ``B_t`` (global step counter ``t``, ``eta = 1/(lam*t)``):
    margins of the whole batch are computed against the batch-start
    weights with one matvec, then ``w <- (1 - eta*lam) * w`` and the
    averaged sub-gradient of the margin violators is added with one
    ``Xb.T @ coefs`` product.  Dense input indexes ``X[batch]``; other
    input is converted to CSR and never densified: each epoch gathers
    the permuted rows once and each batch runs scipy's CSR kernels on a
    range of their raw arrays, summed in scipy's order, so the weights
    are bit-identical to indexing ``X[batch]``.  With ``batch_size=1``
    this is exactly the classic per-sample Pegasos update sequence.

    Args:
        X: ``(n_samples, n_features)`` dense ndarray or scipy sparse
            matrix.
        signs: ±1.0 per sample.
        sample_weight: per-sample loss weight.
        lam: regularization strength λ.
        n_epochs: full passes over the training set.
        seed: RNG seed controlling the example order.
        batch_size: samples per sub-gradient step.
        init_weights: optional augmented ``n_features + 1`` start
            weights (a previous run's return value).  The streaming
            layer warm-starts each tick's refresh from the prior
            tick's weights so a handful of epochs suffices; the
            defaults (zeros, ``t0=0``) reproduce the cold schedule
            bit-for-bit.
        t0: global step counter to resume from.  Continuing with the
            prior run's final ``t`` keeps the ``1/(lam*t)`` step sizes
            small, so the warm start refines rather than overwrites.

    Raises:
        ValidationError: ``init_weights`` of the wrong shape or a
            negative ``t0``.
    """
    n_samples, n_features = X.shape
    rng = np.random.default_rng(seed)
    if init_weights is None:
        w = np.zeros(n_features + 1, dtype=np.float64)
    else:
        w = np.asarray(init_weights, dtype=np.float64).copy()
        if w.shape != (n_features + 1,):
            raise ValidationError(
                f"init_weights must have shape ({n_features + 1},), "
                f"got {w.shape}"
            )
    if t0 < 0:
        raise ValidationError(f"t0 must be >= 0, got {t0}")
    coef_full = sample_weight * signs
    if sp.issparse(X):
        return _pegasos_csr(
            X.tocsr(), signs, coef_full, w, lam, n_epochs, rng, batch_size, t0
        )
    t = t0
    for _ in range(n_epochs):
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, batch_size):
            batch = order[start : start + batch_size]
            t += 1
            eta = 1.0 / (lam * t)
            Xb = X[batch]
            margins = signs[batch] * (Xb @ w[:-1] + w[-1])
            w *= 1.0 - eta * lam
            violators = margins < 1.0
            if not np.any(violators):
                continue
            coefs = (eta / batch.shape[0]) * coef_full[batch[violators]]
            w[:-1] += Xb[violators].T @ coefs
            w[-1] += coefs.sum()
    return w


def _pegasos_csr(
    X: sp.csr_matrix,
    signs: np.ndarray,
    coef_full: np.ndarray,
    w: np.ndarray,
    lam: float,
    n_epochs: int,
    rng: np.random.Generator,
    batch_size: int,
    t0: int,
) -> np.ndarray:
    """The CSR branch of :func:`pegasos_weights`, on raw CSR arrays.

    No batch builds a scipy object: the loop calls the C kernels that
    ``X[order]``, ``Xb @ w`` and ``Xb.T @ coefs`` run (``csr_row_index``,
    ``csr_matvec``, ``csc_matvec``) directly on raw arrays.  Each epoch
    gathers the permuted rows once into buffers allocated per fit, and
    each batch passes its absolute ``offsets[start:stop + 1]`` with the
    whole gathered ``cols``/``vals``.  Margins and update each sum into a
    fresh zero vector, as scipy's products do, and the update is then
    added to the weights, so every sum runs in the order that
    ``X[batch]`` and ``X[batch][violators]`` did; non-violators enter
    the update with a zero coefficient, which leaves every sum
    unchanged.  (``np.add.reduceat`` would sum pairwise, and a margin
    at exactly 1.0 could then flip.)
    """
    n_samples, n_features = X.shape
    index_dtype = np.promote_types(X.indptr.dtype, X.indices.dtype)
    indptr = X.indptr.astype(index_dtype, copy=False)
    indices = X.indices.astype(index_dtype, copy=False)
    # scipy's products upcast the data to float64 on every call.
    data = X.data.astype(np.float64, copy=False)
    lengths = np.diff(indptr)
    nnz = int(indptr[-1])
    offsets = np.zeros(n_samples + 1, dtype=index_dtype)
    cols = np.empty(nnz, dtype=index_dtype)
    vals = np.empty(nnz, dtype=np.float64)
    weights = w[:-1]
    t = t0
    for _ in range(n_epochs):
        order = rng.permutation(n_samples).astype(index_dtype, copy=False)
        np.cumsum(lengths[order], out=offsets[1:])
        _sparsetools.csr_row_index(
            n_samples, order, indptr, indices, data, cols, vals
        )
        epoch_signs = signs[order]
        epoch_coefs = coef_full[order]
        for start in range(0, n_samples, batch_size):
            stop = min(start + batch_size, n_samples)
            batch_offsets = offsets[start : stop + 1]
            t += 1
            eta = 1.0 / (lam * t)
            margins = np.zeros(stop - start)
            _sparsetools.csr_matvec(
                stop - start, n_features, batch_offsets, cols, vals,
                weights, margins,
            )
            margins = epoch_signs[start:stop] * (margins + w[-1])
            w *= 1.0 - eta * lam
            violators = margins < 1.0
            if not np.any(violators):
                continue
            coefs = (eta / (stop - start)) * epoch_coefs[start:stop]
            coefs[~violators] = 0.0
            update = np.zeros(n_features)
            _sparsetools.csc_matvec(
                n_features, stop - start, batch_offsets, cols, vals,
                coefs, update,
            )
            weights += update
            w[-1] += coefs[violators].sum()
    return w


class LinearSVC(BaseClassifier):
    """Binary linear SVM (hinge loss, L2 regularization) via Pegasos.

    Args:
        lam: regularization strength λ (weight of ||w||²/2).
        n_epochs: full passes over the training set.
        class_weight: ``None`` or ``"balanced"``.
        seed: RNG seed controlling example order.
        batch_size: samples per Pegasos sub-gradient step; 1 recovers
            the classic per-sample schedule, larger batches trade a
            slightly coarser step sequence for vectorized margin and
            update computation.
    """

    def __init__(
        self,
        lam: float = 1e-4,
        n_epochs: int = 30,
        class_weight: str | None = "balanced",
        seed: int = 0,
        batch_size: int = 32,
    ) -> None:
        super().__init__()
        if lam <= 0.0:
            raise ValidationError(f"lam must be > 0, got {lam}")
        if n_epochs < 1:
            raise ValidationError(f"n_epochs must be >= 1, got {n_epochs}")
        if class_weight not in (None, "balanced"):
            raise ValidationError(f"unsupported class_weight: {class_weight!r}")
        if batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
        self._lam = lam
        self._n_epochs = n_epochs
        self._class_weight = class_weight
        self._seed = seed
        self._batch_size = batch_size
        self._w: np.ndarray | None = None
        self._b: float = 0.0
        self._t: int = 0

    def _prepare(self, X: Any, y: Any) -> tuple[Any, np.ndarray, np.ndarray]:
        """Validate ``(X, y)`` and derive signs + balanced weights."""
        X, y = check_X_y(X, y, allow_sparse=True)
        encoded = self._store_classes(y)
        if len(self._fitted_classes()) != 2:
            raise ValidationError("LinearSVC is binary; got more than 2 classes")
        # Map to {-1, +1}; +1 is the larger label (legitimate).
        signs = np.where(encoded == 1, 1.0, -1.0)
        n_samples = X.shape[0]
        if self._class_weight == "balanced":
            n_pos = float(np.sum(signs > 0))
            n_neg = float(n_samples - n_pos)
            w_pos = n_samples / (2.0 * max(n_pos, 1.0))
            w_neg = n_samples / (2.0 * max(n_neg, 1.0))
        else:
            w_pos = w_neg = 1.0
        sample_weight = np.where(signs > 0, w_pos, w_neg)
        return X, signs, sample_weight

    def _steps_per_pass(self, n_samples: int) -> int:
        return -(-n_samples // self._batch_size)

    def fit(self, X: Any, y: Any) -> "LinearSVC":
        X, signs, sample_weight = self._prepare(X, y)
        w = pegasos_weights(
            X,
            signs,
            sample_weight,
            lam=self._lam,
            n_epochs=self._n_epochs,
            seed=self._seed,
            batch_size=self._batch_size,
        )
        self._w = w[:-1]
        self._b = float(w[-1])
        self._t = self._n_epochs * self._steps_per_pass(X.shape[0])
        return self

    def warm_fit(
        self, X: Any, y: Any, *, n_epochs: int = 3, seed: int | None = None
    ) -> "LinearSVC":
        """Refine the fitted hyperplane with a few extra Pegasos passes.

        The streaming layer calls this once per tick: the current
        weights seed :func:`pegasos_weights` (``init_weights``) and the
        global step counter continues where training left off, so the
        ``1/(lam*t)`` learning rates stay small and the update nudges
        the margin toward the changed examples instead of restarting
        the schedule.  ``seed`` varies the shuffle order between ticks
        (defaults to the constructor seed).

        Raises:
            NotFittedError: no prior :meth:`fit`.
            ValidationError: feature-count mismatch with the fit.
        """
        if self._w is None:
            raise NotFittedError("warm_fit requires a prior fit")
        if n_epochs < 1:
            raise ValidationError(f"n_epochs must be >= 1, got {n_epochs}")
        X, signs, sample_weight = self._prepare(X, y)
        if X.shape[1] != self._w.shape[0]:
            raise ValidationError(
                f"feature-count mismatch: fitted on {self._w.shape[0]}, "
                f"got {X.shape[1]}"
            )
        w = pegasos_weights(
            X,
            signs,
            sample_weight,
            lam=self._lam,
            n_epochs=n_epochs,
            seed=self._seed if seed is None else seed,
            batch_size=self._batch_size,
            init_weights=np.concatenate([self._w, [self._b]]),
            t0=self._t,
        )
        self._w = w[:-1]
        self._b = float(w[-1])
        self._t += n_epochs * self._steps_per_pass(X.shape[0])
        return self

    def decision_function(self, X: Any) -> np.ndarray:
        """Signed margin; positive = legitimate side of the hyperplane."""
        if self._w is None:
            raise NotFittedError("LinearSVC has not been fitted")
        X = check_X(X, allow_sparse=True)
        if X.shape[1] != self._w.shape[0]:
            raise ValidationError(
                f"feature-count mismatch: fitted on {self._w.shape[0]}, "
                f"got {X.shape[1]}"
            )
        # CSR @ dense vector yields a dense ndarray directly.
        scores = np.asarray(X @ self._w).ravel()
        return scores + self._b

    def predict_proba(self, X: Any) -> np.ndarray:
        """Sigmoid of the margin (fixed-slope Platt approximation)."""
        margin = self.decision_function(X)
        pos = 1.0 / (1.0 + np.exp(-np.clip(margin, -50.0, 50.0)))
        return np.column_stack([1.0 - pos, pos])

    def decision_scores(self, X: Any) -> np.ndarray:
        """Raw margin — the most faithful ranking signal for an SVM."""
        return self.decision_function(X)
