"""Tests for the content-addressed feature cache."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.perf.cache import (
    CODE_VERSION,
    FeatureCache,
    content_fingerprint,
    params_fingerprint,
)


class TestFingerprints:
    def test_content_fingerprint_is_stable(self):
        assert content_fingerprint(["a", "b"]) == content_fingerprint(["a", "b"])

    def test_content_fingerprint_order_sensitive(self):
        assert content_fingerprint(["a", "b"]) != content_fingerprint(["b", "a"])

    def test_length_prefix_prevents_concat_collisions(self):
        assert content_fingerprint(["ab", "c"]) != content_fingerprint(["a", "bc"])

    def test_accepts_bytes(self):
        assert content_fingerprint([b"xy"]) == content_fingerprint(["xy"])

    def test_params_fingerprint_order_insensitive(self):
        assert params_fingerprint({"a": 1, "b": 2}) == params_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_params_fingerprint_rejects_non_json(self):
        with pytest.raises(ValidationError):
            params_fingerprint({"fn": object()})


class TestFeatureCache:
    def test_round_trip(self, tmp_path):
        cache = FeatureCache(tmp_path)
        key = cache.key("ngg", content_fingerprint(["doc"]), {"n": 4})
        value = {"weights": np.arange(5.0)}
        cache.store(key, value)
        loaded = cache.load(key)
        np.testing.assert_array_equal(loaded["weights"], value["weights"])
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_miss_on_absent_key(self, tmp_path):
        cache = FeatureCache(tmp_path)
        assert cache.load("0" * 64) is None
        assert cache.stats.misses == 1

    def test_key_changes_with_params(self, tmp_path):
        cache = FeatureCache(tmp_path)
        content = content_fingerprint(["doc"])
        assert cache.key("ngg", content, {"n": 4}) != cache.key(
            "ngg", content, {"n": 5}
        )

    def test_key_changes_with_kind_and_content(self, tmp_path):
        cache = FeatureCache(tmp_path)
        content = content_fingerprint(["doc"])
        other = content_fingerprint(["doc2"])
        assert cache.key("ngg", content, {}) != cache.key("summary", content, {})
        assert cache.key("ngg", content, {}) != cache.key("ngg", other, {})

    def test_code_version_invalidates(self, tmp_path):
        cache = FeatureCache(tmp_path)
        content = content_fingerprint(["doc"])
        current = cache.key("ngg", content, {})
        bumped = cache.key("ngg", content, {}, code_version=CODE_VERSION + ".next")
        assert current != bumped

    def test_corrupt_entry_is_evicted_and_recomputed(self, tmp_path):
        cache = FeatureCache(tmp_path)
        key = cache.key("ngg", content_fingerprint(["doc"]), {})
        cache.store(key, [1, 2, 3])
        path = cache._path(key)
        path.write_bytes(b"not a model file")
        calls = []

        def compute():
            calls.append(1)
            return [4, 5, 6]

        assert cache.get_or_compute(key, compute) == [4, 5, 6]
        assert calls == [1]
        assert cache.stats.evictions == 1
        # The rewritten entry is clean.
        assert cache.load(key) == [4, 5, 6]

    def test_get_or_compute_hits_skip_compute(self, tmp_path):
        cache = FeatureCache(tmp_path)
        key = cache.key("ngg", content_fingerprint(["doc"]), {})
        calls = []

        def compute():
            calls.append(1)
            return "value"

        assert cache.get_or_compute(key, compute) == "value"
        assert cache.get_or_compute(key, compute) == "value"
        assert calls == [1]

    def test_cached_equals_fresh_across_instances(self, tmp_path):
        writer = FeatureCache(tmp_path)
        key = writer.key("sim", content_fingerprint(["x"]), {"k": 1})
        fresh = np.linspace(0.0, 1.0, 7)
        writer.store(key, fresh)
        reader = FeatureCache(tmp_path)
        np.testing.assert_array_equal(reader.load(key), fresh)
