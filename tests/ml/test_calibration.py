"""Tests for Platt scaling and the calibrated classifier wrapper."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError
from repro.ml.base import clone
from repro.ml.calibration import CalibratedClassifier, PlattScaler
from repro.ml.svm import LinearSVC


def scored_labels(n=300, seed=0):
    """Scores drawn so that P(y=1|s) = sigma(2 s)."""
    rng = np.random.default_rng(seed)
    scores = rng.normal(0, 1.5, n)
    proba = 1.0 / (1.0 + np.exp(-2.0 * scores))
    labels = (rng.random(n) < proba).astype(int)
    return scores, labels


class TestPlattScaler:
    def test_monotone_increasing_in_score(self):
        scores, labels = scored_labels()
        scaler = PlattScaler().fit(scores, labels)
        grid = scaler.transform(np.array([-3.0, -1.0, 0.0, 1.0, 3.0]))
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_recovers_generating_sigmoid(self):
        scores, labels = scored_labels(n=4000, seed=1)
        scaler = PlattScaler().fit(scores, labels)
        predicted = scaler.transform(np.array([0.0]))
        assert predicted[0] == pytest.approx(0.5, abs=0.06)
        predicted = scaler.transform(np.array([1.0]))
        true_value = 1.0 / (1.0 + np.exp(-2.0))
        assert predicted[0] == pytest.approx(true_value, abs=0.06)

    def test_probabilities_in_unit_interval(self):
        scores, labels = scored_labels()
        scaler = PlattScaler().fit(scores, labels)
        out = scaler.transform(np.linspace(-100, 100, 50))
        assert np.all((out >= 0) & (out <= 1))

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            PlattScaler().transform([0.0])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            PlattScaler().fit([0.1, 0.2], [1, 1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PlattScaler().fit([0.1, 0.2], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PlattScaler().fit([], [])


class TestCalibratedClassifier:
    def test_calibrated_svm_probabilities(self):
        rng = np.random.default_rng(0)
        X = np.vstack(
            [rng.normal(-1, 1, (100, 3)), rng.normal(1, 1, (100, 3))]
        )
        y = np.array([0] * 100 + [1] * 100)
        calibrated = CalibratedClassifier(LinearSVC(n_epochs=15)).fit(X, y)
        proba = calibrated.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)
        # Calibration: average probability ~ class rate.
        assert proba[:, 1].mean() == pytest.approx(0.5, abs=0.1)

    def test_predictions_respect_original_classes(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(-1, 1, (50, 2)), rng.normal(1, 1, (50, 2))])
        y = np.array([5] * 50 + [9] * 50)  # non-0/1 labels
        calibrated = CalibratedClassifier(LinearSVC(n_epochs=15)).fit(X, y)
        assert set(calibrated.predict(X)) <= {5, 9}

    def test_auc_preserved_by_calibration(self):
        """Platt scaling is monotone, so ranking quality is unchanged."""
        from repro.ml.metrics import auc_roc
        from repro.ml.model_selection import train_test_split

        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(-1, 1, (80, 2)), rng.normal(1, 1, (80, 2))])
        y = np.array([0] * 80 + [1] * 80)
        # The SVM the calibrated classifier fits on its own 3:1 split.
        fit_idx, _ = train_test_split(y, test_fraction=0.25, seed=0)
        svm = LinearSVC(n_epochs=15).fit(X[fit_idx], y[fit_idx])
        calibrated = CalibratedClassifier(LinearSVC(n_epochs=15)).fit(X, y)
        raw_auc = auc_roc(y, svm.decision_scores(X))
        cal_auc = auc_roc(y, calibrated.decision_scores(X))
        assert cal_auc == pytest.approx(raw_auc, abs=1e-9)

    def test_clone_is_an_unfitted_prototype(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(-1, 1, (40, 2)), rng.normal(1, 1, (40, 2))])
        y = np.array([0] * 40 + [1] * 40)
        prototype = CalibratedClassifier(LinearSVC(n_epochs=15))
        fitted = clone(prototype).fit(X, y)
        assert fitted.predict_proba(X).shape == (80, 2)
        with pytest.raises(NotFittedError):
            prototype.predict_proba(X)
        with pytest.raises(NotFittedError):
            clone(fitted).predict(X)
