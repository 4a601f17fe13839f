"""C4.5-style decision tree (Weka's J48 equivalent).

Implements the core of Quinlan's C4.5 for continuous attributes, which
is what both TF-IDF weights and graph-similarity features are:

* binary splits ``feature <= threshold`` chosen by **gain ratio**
  (information gain / split information), with the C4.5 rule that a
  split must first beat the average gain of all candidate splits;
* recursive growth until purity, ``min_samples_split``, or
  ``max_depth``;
* pessimistic error pruning (C4.5's upper-bound error estimate with
  confidence factor CF = 0.25, Weka's default);
* leaves predict the training class distribution, so
  ``predict_proba`` is available for ranking and AUC.

The split search is fully vectorized: one stable argsort of the whole
candidate-feature block, cumulative class-count arrays, and a single
masked argmax evaluate every (feature, threshold) pair without a
Python candidate loop.  The per-feature/per-candidate loop
implementation survives as ``tests.reference.ReferenceC45Tree``,
the equivalence oracle pinned by ``tests/perf`` (identical trees,
bit-equal predictions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy import stats

from repro.exceptions import NotFittedError, ValidationError
from repro.ml.base import BaseClassifier, check_X_y, ensure_dense

__all__ = ["C45Tree"]

_EPS = 1e-12


@dataclass
class _Node:
    """One tree node; a leaf when ``feature`` is None."""

    counts: np.ndarray  # class counts of training samples at this node
    feature: int | None = None
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def n_samples(self) -> float:
        return float(self.counts.sum())

    def error_count(self) -> float:
        """Misclassifications if this node predicted its majority class."""
        return float(self.counts.sum() - self.counts.max())


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log2(p)))


def _pessimistic_errors(n: float, e: float, cf: float = 0.25) -> float:
    """C4.5's upper confidence bound on the error count of a leaf.

    Uses the normal approximation to the binomial upper limit that
    Quinlan's release (and Weka) apply with confidence factor ``cf``.
    """
    if n <= 0:
        return 0.0
    z = float(stats.norm.ppf(1.0 - cf))
    f = e / n
    numerator = (
        f
        + z * z / (2.0 * n)
        + z * np.sqrt(f / n - f * f / n + z * z / (4.0 * n * n))
    )
    return n * numerator / (1.0 + z * z / n)


class C45Tree(BaseClassifier):
    """C4.5 decision tree for continuous features.

    Args:
        max_depth: depth cap (None = unlimited).
        min_samples_split: do not split nodes smaller than this.
        min_samples_leaf: each child must keep at least this many rows.
        confidence_factor: CF for pessimistic pruning (Weka default 0.25);
            ``None`` disables pruning.
        max_candidate_features: if set, evaluate splits only on the
            ``k`` highest-variance features at each node — an optional
            speed knob for very wide TF-IDF matrices (None = all).
        max_features: if set, subsample at most this many of the
            candidate features uniformly at random at each node
            (random-forest style); applied after the
            ``max_candidate_features`` variance filter.
        seed: seeds the per-``fit`` RNG that draws the ``max_features``
            subsets, so clone/refit is deterministic.  With
            ``max_features=None`` the tree is deterministic regardless
            of the seed.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        confidence_factor: float | None = 0.25,
        max_candidate_features: int | None = None,
        max_features: int | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if max_depth is not None and max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1 or None, got {max_depth}")
        if min_samples_split < 2:
            raise ValidationError(
                f"min_samples_split must be >= 2, got {min_samples_split}"
            )
        if min_samples_leaf < 1:
            raise ValidationError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        if max_features is not None and max_features < 1:
            raise ValidationError(
                f"max_features must be >= 1 or None, got {max_features}"
            )
        self._max_depth = max_depth
        self._min_samples_split = min_samples_split
        self._min_samples_leaf = min_samples_leaf
        self._confidence_factor = confidence_factor
        self._max_candidate_features = max_candidate_features
        self._max_features = max_features
        self._seed = seed
        self._root: _Node | None = None
        self._n_features = 0

    # -- fitting -------------------------------------------------------------

    def fit(self, X: Any, y: Any) -> "C45Tree":
        X = ensure_dense(X)
        X, y = check_X_y(X, y, allow_sparse=False)
        encoded = self._store_classes(y)
        n_classes = len(self._fitted_classes())
        self._n_features = X.shape[1]
        rng = np.random.default_rng(self._seed)
        self._root = self._grow(X, encoded, n_classes, depth=0, rng=rng)
        if self._confidence_factor is not None:
            self._prune(self._root)
        return self

    def _grow(
        self,
        X: np.ndarray,
        y: np.ndarray,
        n_classes: int,
        depth: int,
        rng: np.random.Generator,
    ) -> _Node:
        counts = np.bincount(y, minlength=n_classes).astype(np.float64)
        node = _Node(counts=counts)
        if (
            counts.max() == counts.sum()  # pure
            or counts.sum() < self._min_samples_split
            or (self._max_depth is not None and depth >= self._max_depth)
        ):
            return node
        split = self._best_split(X, y, n_classes, rng)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], n_classes, depth + 1, rng)
        node.right = self._grow(X[~mask], y[~mask], n_classes, depth + 1, rng)
        return node

    def _candidate_features(
        self, X: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        n_features = X.shape[1]
        features = np.arange(n_features)
        if (
            self._max_candidate_features is not None
            and n_features > self._max_candidate_features
        ):
            variances = X.var(axis=0)
            top = np.argpartition(-variances, self._max_candidate_features)[
                : self._max_candidate_features
            ]
            features = np.sort(top)
        if self._max_features is not None and features.shape[0] > self._max_features:
            chosen = rng.choice(
                features.shape[0], size=self._max_features, replace=False
            )
            features = np.sort(features[chosen])
        return features

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        n_classes: int,
        rng: np.random.Generator,
    ) -> tuple[int, float] | None:
        """Best (feature, threshold) by C4.5 gain ratio, or None.

        Every candidate feature is handled in one vectorized pass: a
        stable column-wise argsort, per-class cumulative counts, and a
        masked argmax over the full ``(n_candidates, n_features)``
        gain-ratio matrix.  Candidate cut ``i`` puts the first ``i+1``
        sorted rows on the left; ties across features resolve to the
        lowest feature index (first maximum), matching the sequential
        reference kernel.
        """
        n_samples = X.shape[0]
        parent_counts = np.bincount(y, minlength=n_classes).astype(np.float64)
        parent_entropy = _entropy(parent_counts)
        min_leaf = self._min_samples_leaf

        features = self._candidate_features(X, rng)
        cols = X[:, features]
        order = np.argsort(cols, axis=0, kind="stable")
        sorted_vals = np.take_along_axis(cols, order, axis=0)
        sorted_y = y[order]  # (n_samples, n_features)

        boundary = np.diff(sorted_vals, axis=0) > _EPS  # (n_samples - 1, F)
        n_left = np.arange(1, n_samples, dtype=np.float64)
        leaf_ok = (n_left >= min_leaf) & (n_samples - n_left >= min_leaf)
        valid = boundary & leaf_ok[:, None]
        if not valid.any():
            return None

        # Cumulative class counts along each sorted column; row i holds
        # the class histogram of the first i+1 rows.
        onehot = (
            sorted_y[:, :, None] == np.arange(n_classes)[None, None, :]
        ).astype(np.float64)
        cum = np.cumsum(onehot, axis=0)
        left_counts = cum[:-1]  # (n_samples - 1, F, n_classes)
        right_counts = parent_counts[None, None, :] - left_counts
        n_right = n_samples - n_left
        h_left = _entropy_rows(left_counts)
        h_right = _entropy_rows(right_counts)
        weighted = (n_left[:, None] * h_left + n_right[:, None] * h_right) / n_samples
        gain = parent_entropy - weighted  # (n_samples - 1, F)
        p_left = n_left / n_samples
        p_right = n_right / n_samples
        split_info = -(p_left * np.log2(p_left) + p_right * np.log2(p_right))
        ratio = np.where(
            split_info[:, None] > _EPS, gain / split_info[:, None], 0.0
        )

        masked_ratio = np.where(valid, ratio, -np.inf)
        f_range = np.arange(features.shape[0])
        k = np.argmax(masked_ratio, axis=0)  # best candidate per feature
        gain_k = gain[k, f_range]
        good = valid.any(axis=0) & (gain_k > _EPS)
        if not good.any():
            return None
        # C4.5 restriction: only consider splits with at least average gain.
        avg_gain = float(np.sum(gain_k[good])) / int(np.count_nonzero(good))
        eligible = good & (gain_k >= avg_gain - _EPS)
        cand_ratio = np.where(eligible, masked_ratio[k, f_range], -np.inf)
        best_f = int(np.argmax(cand_ratio))
        kk = int(k[best_f])
        # C4.5 midpoint threshold between the boundary values.
        thr = 0.5 * (sorted_vals[kk, best_f] + sorted_vals[kk + 1, best_f])
        return int(features[best_f]), float(thr)

    # -- pruning ---------------------------------------------------------------

    def _prune(self, node: _Node) -> float:
        """Post-order pessimistic pruning; returns estimated errors."""
        cf = self._confidence_factor
        assert cf is not None
        if node.is_leaf:
            return _pessimistic_errors(node.n_samples(), node.error_count(), cf)
        assert node.left is not None and node.right is not None
        subtree_errors = self._prune(node.left) + self._prune(node.right)
        leaf_errors = _pessimistic_errors(node.n_samples(), node.error_count(), cf)
        if leaf_errors <= subtree_errors + 0.1:
            node.feature = None
            node.left = None
            node.right = None
            return leaf_errors
        return subtree_errors

    # -- prediction --------------------------------------------------------------

    def predict_proba(self, X: Any) -> np.ndarray:
        if self._root is None:
            raise NotFittedError("C45Tree has not been fitted")
        X = ensure_dense(X)
        if X.shape[1] != self._n_features:
            raise ValidationError(
                f"feature-count mismatch: fitted on {self._n_features}, "
                f"got {X.shape[1]}"
            )
        n_classes = len(self._fitted_classes())
        out = np.empty((X.shape[0], n_classes), dtype=np.float64)
        self._fill_proba(self._root, X, np.arange(X.shape[0]), out, n_classes)
        return out

    def _fill_proba(
        self,
        node: _Node,
        X: np.ndarray,
        idx: np.ndarray,
        out: np.ndarray,
        n_classes: int,
    ) -> None:
        """Route the rows in ``idx`` down the tree, block-wise."""
        if node.is_leaf:
            # Laplace-smoothed leaf distribution (as J48 does).
            out[idx] = (node.counts + 1.0) / (node.counts.sum() + n_classes)
            return
        assert node.left is not None and node.right is not None
        mask = X[idx, node.feature] <= node.threshold
        self._fill_proba(node.left, X, idx[mask], out, n_classes)
        self._fill_proba(node.right, X, idx[~mask], out, n_classes)

    # -- introspection --------------------------------------------------------------

    def to_text(self, feature_names: list[str] | None = None) -> str:
        """Render the fitted tree as indented rules (J48's print style).

        Args:
            feature_names: optional display names per feature index;
                defaults to ``f0, f1, ...``.

        Returns:
            One line per decision/leaf, e.g.::

                f2 <= 0.35
                |   class 0 (12.0)
                f2 > 0.35
                |   class 1 (8.0)
        """
        if self._root is None:
            raise NotFittedError("C45Tree has not been fitted")
        classes = self._fitted_classes()

        def name(idx: int) -> str:
            if feature_names is not None:
                return feature_names[idx]
            return f"f{idx}"

        lines: list[str] = []

        def walk(node: _Node, depth: int) -> None:
            prefix = "|   " * depth
            if node.is_leaf:
                majority = classes[int(np.argmax(node.counts))]
                lines.append(
                    f"{prefix}class {majority} ({node.counts.sum():.1f})"
                )
                return
            assert node.left is not None and node.right is not None
            lines.append(f"{prefix}{name(node.feature)} <= {node.threshold:.6g}")
            walk(node.left, depth + 1)
            lines.append(f"{prefix}{name(node.feature)} > {node.threshold:.6g}")
            walk(node.right, depth + 1)

        walk(self._root, 0)
        return "\n".join(lines)


def _entropy_rows(counts: np.ndarray) -> np.ndarray:
    """Entropy along the last (class) axis of a count array."""
    totals = counts.sum(axis=-1, keepdims=True)
    safe_totals = np.where(totals > 0, totals, 1.0)
    p = counts / safe_totals
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return -np.sum(p * logp, axis=-1)
