"""Tests for stratified cross-validation utilities."""

import numpy as np
import pytest

from repro.ml.model_selection import StratifiedKFold, train_test_split


class TestStratifiedKFold:
    def test_partitions_everything(self):
        y = np.array([0] * 30 + [1] * 6)
        seen = []
        for train, test in StratifiedKFold(3, seed=0).split(y):
            seen.extend(test.tolist())
            assert set(train).isdisjoint(set(test))
        assert sorted(seen) == list(range(36))

    def test_stratification_preserved(self):
        y = np.array([0] * 30 + [1] * 6)
        for _, test in StratifiedKFold(3, seed=0).split(y):
            assert (y[test] == 1).sum() == 2
            assert (y[test] == 0).sum() == 10

    def test_n_splits_count(self):
        y = np.array([0, 1] * 10)
        folds = list(StratifiedKFold(5, seed=0).split(y))
        assert len(folds) == 5

    def test_class_smaller_than_folds_raises(self):
        y = np.array([0] * 10 + [1] * 2)
        with pytest.raises(ValueError):
            list(StratifiedKFold(3).split(y))

    def test_deterministic_given_seed(self):
        y = np.array([0] * 12 + [1] * 6)
        a = [t.tolist() for _, t in StratifiedKFold(3, seed=4).split(y)]
        b = [t.tolist() for _, t in StratifiedKFold(3, seed=4).split(y)]
        assert a == b

    def test_shuffle_changes_assignment(self):
        y = np.array([0] * 12 + [1] * 6)
        a = [t.tolist() for _, t in StratifiedKFold(3, seed=1).split(y)]
        b = [t.tolist() for _, t in StratifiedKFold(3, seed=2).split(y)]
        assert a != b

    def test_invalid_n_splits(self):
        with pytest.raises(ValueError):
            StratifiedKFold(1)


class TestTrainTestSplit:
    def test_disjoint_and_complete(self):
        y = np.array([0] * 20 + [1] * 5)
        train, test = train_test_split(y, test_fraction=0.2, seed=0)
        assert set(train).isdisjoint(set(test))
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(25))

    def test_both_classes_in_both_sides(self):
        y = np.array([0] * 20 + [1] * 5)
        train, test = train_test_split(y, test_fraction=0.3, seed=0)
        assert {0, 1} <= set(y[train].tolist())
        assert {0, 1} <= set(y[test].tolist())

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            train_test_split([0, 1], test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split([0, 1], test_fraction=1.0)
