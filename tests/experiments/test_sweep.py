"""Tests for the sweep scheduler (``repro.experiments.sweep``).

The load-bearing property is compute-sharing equivalence: fitting each
(subset, fold)'s feature matrices once and sharing them across the
roster must produce tables identical to the library's per-entry
cross-validation (one ``TfidfTextPipeline`` per entry, each refitting
its own vectorizer), at any worker count, with or without the disk
cache.
"""

import random

import numpy as np
import pytest

from repro.core.evaluation import cross_validate_pipeline
from repro.core.text_pipeline import TfidfTextPipeline
from repro.exceptions import ValidationError
from repro.experiments.sweep import SweepEntry, run_tfidf_sweep
from repro.ml.naive_bayes import MultinomialNB
from repro.ml.sampling import SMOTE
from repro.ml.svm import LinearSVC
from repro.perf.cache import FeatureCache
from repro.text.summarization import SummaryDocument

VOCAB = [f"w{i}" for i in range(30)]


def make_corpus(seed=0, n_docs=36):
    rng = random.Random(seed)
    labels = np.array([i % 2 for i in range(n_docs)])
    tokens = [
        [rng.choice(VOCAB) for _ in range(rng.randint(20, 50))]
        + (["pharma", "cheap"] * 3 if label else ["licensed", "verified"] * 3)
        for i, label in enumerate(labels)
    ]
    return labels, {100: tokens, 20: [doc[:20] for doc in tokens]}


ROSTER = (
    SweepEntry("NBM", "NO", MultinomialNB()),
    SweepEntry("SVM", "NO", LinearSVC(seed=0)),
    SweepEntry("NBM-SMOTE", "SMOTE", MultinomialNB(), SMOTE(seed=0)),
)


def per_entry_cv(roster, labels, by_subset, n_folds=3, cv_seed=0):
    """The library reference: one pipeline CV per (entry, subset)."""
    out = {}
    for subset, tokens in by_subset.items():
        docs = [
            SummaryDocument(f"site{i}.com", tuple(doc), len(doc))
            for i, doc in enumerate(tokens)
        ]
        for entry in roster:
            out[(entry.name, subset)] = cross_validate_pipeline(
                lambda: TfidfTextPipeline(entry.classifier, entry.sampler),
                docs,
                labels,
                n_folds,
                cv_seed,
            )
    return out


class TestRunTfidfSweep:
    def test_result_grid_shape(self):
        labels, by_subset = make_corpus()
        out = run_tfidf_sweep(ROSTER, labels, by_subset, n_folds=3)
        assert set(out) == {
            (entry.name, subset) for entry in ROSTER for subset in by_subset
        }
        for report in out.values():
            assert len(report.fold_reports) == 3
            assert 0.0 <= report.measure("auc_roc").mean <= 1.0

    def test_shared_equals_library_per_entry_cv(self):
        labels, by_subset = make_corpus()
        shared = run_tfidf_sweep(ROSTER, labels, by_subset)
        assert shared == per_entry_cv(ROSTER, labels, by_subset)

    def test_parallel_equals_serial(self):
        labels, by_subset = make_corpus(seed=1)
        serial = run_tfidf_sweep(ROSTER, labels, by_subset, jobs=1)
        fanned = run_tfidf_sweep(ROSTER, labels, by_subset, jobs=2)
        assert serial == fanned

    def test_empty_roster_raises(self):
        labels, by_subset = make_corpus()
        with pytest.raises(ValidationError):
            run_tfidf_sweep((), labels, by_subset)

    def test_duplicate_names_raise(self):
        labels, by_subset = make_corpus()
        roster = (ROSTER[0], SweepEntry("NBM", "SUB", MultinomialNB()))
        with pytest.raises(ValidationError):
            run_tfidf_sweep(roster, labels, by_subset)

    def test_cache_requires_fingerprint(self, tmp_path):
        labels, by_subset = make_corpus()
        cache = FeatureCache(tmp_path)
        with pytest.raises(ValidationError):
            run_tfidf_sweep(ROSTER, labels, by_subset, cache=cache)

    def test_cache_round_trip(self, tmp_path):
        labels, by_subset = make_corpus(seed=2)
        cache = FeatureCache(tmp_path)
        fresh = run_tfidf_sweep(
            ROSTER, labels, by_subset, cache=cache, cache_fingerprint="fp-1"
        )
        cached = run_tfidf_sweep(
            ROSTER, labels, by_subset, cache=cache, cache_fingerprint="fp-1"
        )
        assert fresh == cached


class TestSweepEntry:
    def test_describe_is_json_able(self):
        import json

        entry = SweepEntry("J48", "SMOTE", MultinomialNB(), SMOTE(seed=0))
        blob = json.dumps(entry.describe(), sort_keys=True)
        assert "J48" in blob and "SMOTE" in blob

    def test_describe_distinguishes_params(self):
        a = SweepEntry("SVM", "NO", LinearSVC(seed=0))
        b = SweepEntry("SVM", "NO", LinearSVC(seed=1))
        assert a.describe() != b.describe()

    def test_prototype_not_mutated_by_sweep(self):
        labels, by_subset = make_corpus()
        entry = SweepEntry("NBM", "NO", MultinomialNB())
        params_before = entry.classifier.get_params()
        run_tfidf_sweep((entry,), labels, by_subset, n_folds=2)
        assert entry.classifier.get_params() == params_before

