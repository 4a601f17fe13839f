"""Tests for label-noise injection."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ml.noise import inject_label_noise


class TestInjectLabelNoise:
    def test_zero_rate_is_identity(self):
        y = [1, 0, 1, 0, 0]
        assert np.array_equal(inject_label_noise(y, 0.0), y)

    def test_original_untouched(self):
        y = np.array([1, 0, 1, 0])
        inject_label_noise(y, 1.0)
        assert np.array_equal(y, [1, 0, 1, 0])

    def test_full_rate_flips_everything(self):
        y = np.array([1, 0, 1, 0])
        noisy = inject_label_noise(y, 1.0, direction="both")
        assert np.array_equal(noisy, 1 - y)

    def test_flip_count(self):
        y = np.zeros(100, dtype=int)
        noisy = inject_label_noise(y, 0.2, direction="both", seed=1)
        assert int(np.sum(noisy != y)) == 20

    def test_direction_legit_to_illegit(self):
        y = np.array([1] * 10 + [0] * 10)
        noisy = inject_label_noise(y, 0.5, direction="legit_to_illegit", seed=0)
        # Only 1 -> 0 flips: the illegitimate half is untouched.
        assert np.array_equal(noisy[10:], y[10:])
        assert int(np.sum(noisy[:10] == 0)) == 5

    def test_direction_illegit_to_legit(self):
        y = np.array([1] * 10 + [0] * 10)
        noisy = inject_label_noise(y, 0.3, direction="illegit_to_legit", seed=0)
        assert np.array_equal(noisy[:10], y[:10])
        assert int(np.sum(noisy[10:] == 1)) == 3

    def test_deterministic(self):
        y = np.random.default_rng(0).integers(0, 2, 50)
        a = inject_label_noise(y, 0.3, seed=4)
        b = inject_label_noise(y, 0.3, seed=4)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            inject_label_noise([1, 0], 1.5)
        with pytest.raises(ValueError):
            inject_label_noise([1, 0], 0.5, direction="sideways")


@given(
    rate=st.floats(0.0, 1.0),
    n=st.integers(4, 60),
    seed=st.integers(0, 50),
)
def test_noise_never_changes_length_or_alphabet(rate, n, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    noisy = inject_label_noise(y, rate, seed=seed)
    assert noisy.shape == y.shape
    assert set(np.unique(noisy)) <= {0, 1}
