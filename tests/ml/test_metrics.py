"""Tests for the evaluation measures of Section 6.2."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ml.metrics import (
    accuracy,
    auc_roc,
    classification_report,
    confusion_counts,
    mean_confidence_interval,
    pairwise_orderedness,
    precision,
    recall,
    roc_curve,
)


Y_TRUE = [1, 1, 1, 0, 0, 0, 0, 0]
Y_PRED = [1, 1, 0, 0, 0, 0, 1, 0]


class TestConfusionAndBasics:
    def test_confusion_counts(self):
        tp, fp, tn, fn = confusion_counts(Y_TRUE, Y_PRED, positive_label=1)
        assert (tp, fp, tn, fn) == (2, 1, 4, 1)

    def test_accuracy(self):
        assert accuracy(Y_TRUE, Y_PRED) == pytest.approx(6 / 8)

    def test_precision(self):
        assert precision(Y_TRUE, Y_PRED, 1) == pytest.approx(2 / 3)

    def test_recall(self):
        assert recall(Y_TRUE, Y_PRED, 1) == pytest.approx(2 / 3)

    def test_negative_class_measures(self):
        assert precision(Y_TRUE, Y_PRED, 0) == pytest.approx(4 / 5)
        assert recall(Y_TRUE, Y_PRED, 0) == pytest.approx(4 / 5)

    def test_degenerate_precision_zero(self):
        assert precision([0, 0], [0, 0], 1) == 0.0

    def test_degenerate_recall_zero(self):
        assert recall([0, 0], [0, 1], 1) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy([1, 0], [1])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestROC:
    def test_perfect_separation_auc_one(self):
        y = [0, 0, 1, 1]
        scores = [0.1, 0.2, 0.8, 0.9]
        assert auc_roc(y, scores) == pytest.approx(1.0)

    def test_inverted_scores_auc_zero(self):
        y = [0, 0, 1, 1]
        scores = [0.9, 0.8, 0.2, 0.1]
        assert auc_roc(y, scores) == pytest.approx(0.0)

    def test_random_scores_half(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=4000)
        scores = rng.random(4000)
        assert auc_roc(y, scores) == pytest.approx(0.5, abs=0.03)

    def test_ties_get_half_credit(self):
        y = [0, 1]
        scores = [0.5, 0.5]
        assert auc_roc(y, scores) == pytest.approx(0.5)

    def test_curve_endpoints(self):
        fpr, tpr, thresholds = roc_curve([0, 1, 1, 0], [0.1, 0.9, 0.8, 0.3])
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert thresholds[0] > thresholds[1]

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            auc_roc([1, 1], [0.1, 0.2])

    def test_auc_known_value(self):
        # One inversion among 2x2 pairs -> AUC = 3/4.
        y = [0, 1, 0, 1]
        scores = [0.2, 0.3, 0.4, 0.9]
        assert auc_roc(y, scores) == pytest.approx(0.75)


class TestConfidenceInterval:
    def test_single_value(self):
        mean, half = mean_confidence_interval([0.9])
        assert mean == 0.9
        assert half == 0.0

    def test_constant_values(self):
        mean, half = mean_confidence_interval([0.5, 0.5, 0.5])
        assert mean == 0.5
        assert half == pytest.approx(0.0)

    def test_symmetric_interval_contains_mean_spread(self):
        mean, half = mean_confidence_interval([0.8, 0.9, 1.0])
        assert mean == pytest.approx(0.9)
        assert half > 0

    def test_higher_confidence_wider(self):
        _, half95 = mean_confidence_interval([0.8, 0.9, 1.0], confidence=0.95)
        _, half99 = mean_confidence_interval([0.8, 0.9, 1.0], confidence=0.99)
        assert half99 > half95

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])


class TestPairwiseOrderedness:
    def test_perfect_ranking(self):
        ranks = [0.9, 0.8, 0.2, 0.1]
        labels = [1, 1, 0, 0]
        assert pairwise_orderedness(ranks, labels) == pytest.approx(1.0)

    def test_fully_inverted(self):
        ranks = [0.1, 0.2, 0.8, 0.9]
        labels = [1, 1, 0, 0]
        assert pairwise_orderedness(ranks, labels) == pytest.approx(0.0)

    def test_tie_counts_as_violation(self):
        """The paper: I=1 when an illegitimate gets an equal or higher
        score than a legitimate."""
        ranks = [0.5, 0.5]
        labels = [1, 0]
        assert pairwise_orderedness(ranks, labels) == pytest.approx(0.0)

    def test_single_violation_fraction(self):
        # 1 legit vs 2 illegit; one illegit outranks the legit.
        ranks = [0.5, 0.9, 0.1]
        labels = [1, 0, 0]
        assert pairwise_orderedness(ranks, labels) == pytest.approx(0.5)

    def test_one_class_raises(self):
        with pytest.raises(ValueError):
            pairwise_orderedness([0.1, 0.2], [1, 1])

    def test_matches_naive_quadratic(self):
        rng = np.random.default_rng(1)
        ranks = rng.random(40)
        labels = rng.integers(0, 2, 40)
        if labels.sum() in (0, 40):
            labels[0] = 1 - labels[0]
        expected_violations = sum(
            1
            for i in range(40)
            for j in range(40)
            if labels[i] == 1 and labels[j] == 0 and ranks[j] >= ranks[i]
        )
        n_pairs = int(labels.sum() * (40 - labels.sum()))
        expected = (n_pairs - expected_violations) / n_pairs
        assert pairwise_orderedness(ranks, labels) == pytest.approx(expected)


class TestClassificationReport:
    def test_all_fields(self):
        scores = [0.9, 0.8, 0.4, 0.3, 0.2, 0.1, 0.6, 0.05]
        report = classification_report(Y_TRUE, Y_PRED, scores)
        assert report.accuracy == pytest.approx(6 / 8)
        assert report.legitimate_precision == pytest.approx(2 / 3)
        assert report.legitimate_recall == pytest.approx(2 / 3)
        assert report.illegitimate_precision == pytest.approx(4 / 5)
        assert report.illegitimate_recall == pytest.approx(4 / 5)
        assert 0.0 <= report.auc_roc <= 1.0

    def test_as_dict_keys(self):
        scores = np.linspace(0, 1, 8)
        report = classification_report(Y_TRUE, Y_PRED, scores)
        assert set(report.as_dict()) == {
            "accuracy",
            "legitimate_precision",
            "legitimate_recall",
            "illegitimate_precision",
            "illegitimate_recall",
            "auc_roc",
        }


@given(
    labels=st.lists(st.integers(0, 1), min_size=4, max_size=60).filter(
        lambda ls: 0 < sum(ls) < len(ls)
    ),
    seed=st.integers(0, 1000),
)
def test_auc_always_in_unit_interval(labels, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random(len(labels))
    value = auc_roc(labels, scores)
    assert 0.0 <= value <= 1.0


@given(
    labels=st.lists(st.integers(0, 1), min_size=4, max_size=60).filter(
        lambda ls: 0 < sum(ls) < len(ls)
    ),
    seed=st.integers(0, 1000),
)
def test_pairord_in_unit_interval(labels, seed):
    rng = np.random.default_rng(seed)
    ranks = rng.random(len(labels))
    value = pairwise_orderedness(ranks, labels)
    assert 0.0 <= value <= 1.0


class TestPrecisionRecallCurve:
    def test_perfect_ranking(self):
        from repro.ml.metrics import precision_recall_curve

        y = [1, 1, 0, 0]
        scores = [0.9, 0.8, 0.2, 0.1]
        prec, rec, thresholds = precision_recall_curve(y, scores)
        assert prec[0] == 1.0 and rec[0] == 0.0
        assert rec[-1] == pytest.approx(1.0)

    def test_recall_monotone(self):
        from repro.ml.metrics import precision_recall_curve

        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 50)
        y[0] = 1
        scores = rng.random(50)
        _, rec, _ = precision_recall_curve(y, scores)
        assert np.all(np.diff(rec) >= -1e-12)

    def test_no_positives_raises(self):
        from repro.ml.metrics import precision_recall_curve

        with pytest.raises(ValueError):
            precision_recall_curve([0, 0], [0.5, 0.1])


class TestThresholdForPrecision:
    def test_finds_perfect_threshold(self):
        from repro.ml.metrics import threshold_for_precision

        y = [1, 1, 0, 0]
        scores = [0.9, 0.8, 0.2, 0.1]
        threshold = threshold_for_precision(y, scores, min_precision=1.0)
        assert threshold is not None
        predictions = (np.asarray(scores) >= threshold).astype(int)
        assert precision(y, predictions, 1) == 1.0
        assert recall(y, predictions, 1) == 1.0

    def test_infeasible_returns_none(self):
        from repro.ml.metrics import threshold_for_precision

        # The top-scored item is negative: precision 1.0 is unreachable.
        y = [0, 1]
        scores = [0.9, 0.1]
        assert threshold_for_precision(y, scores, min_precision=1.0) is None

    def test_trades_recall_for_precision(self):
        from repro.ml.metrics import threshold_for_precision

        y = [1, 0, 1, 0, 1]
        scores = [0.9, 0.8, 0.7, 0.6, 0.5]
        strict = threshold_for_precision(y, scores, min_precision=1.0)
        loose = threshold_for_precision(y, scores, min_precision=0.6)
        assert strict is not None and loose is not None
        assert strict >= loose

    def test_validation(self):
        from repro.ml.metrics import threshold_for_precision

        with pytest.raises(ValueError):
            threshold_for_precision([1, 0], [0.5, 0.1], min_precision=0.0)
