"""Tests for supervised term selection (information gain)."""

import pytest

from repro.text.feature_selection import (
    filter_documents,
    information_gain_scores,
    select_terms,
)

# A perfectly class-indicative term ("viagra"), a perfectly
# anti-indicative term ("seal"), and a neutral one ("pills").
DOCS = [
    ["seal", "pills", "care"],
    ["seal", "pills", "health"],
    ["seal", "care", "health"],
    ["viagra", "pills", "cheap"],
    ["viagra", "cheap", "bonus"],
    ["viagra", "pills", "bonus"],
]
Y = [1, 1, 1, 0, 0, 0]


class TestInformationGain:
    def test_indicative_terms_score_highest(self):
        scores = information_gain_scores(DOCS, Y)
        assert scores["viagra"] == pytest.approx(1.0)  # full bit
        assert scores["seal"] == pytest.approx(1.0)
        assert scores["pills"] < 0.2

    def test_absent_everywhere_not_listed(self):
        scores = information_gain_scores(DOCS, Y)
        assert "zzz" not in scores

    def test_scores_nonnegative(self):
        scores = information_gain_scores(DOCS, Y)
        assert all(v >= 0.0 for v in scores.values())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            information_gain_scores(DOCS, Y[:-1])

    def test_empty_corpus(self):
        assert information_gain_scores([], []) == {}


class TestSelectTerms:
    def test_top_k_selected(self):
        keep = select_terms(DOCS, Y, k=2)
        assert keep == {"seal", "viagra"}

    def test_k_larger_than_vocab(self):
        keep = select_terms(DOCS, Y, k=100)
        assert "pills" in keep

    def test_validation(self):
        with pytest.raises(ValueError):
            select_terms(DOCS, Y, k=0)

    def test_filter_documents_projects(self):
        keep = select_terms(DOCS, Y, k=2)
        filtered = filter_documents(DOCS, keep)
        assert filtered[0] == ["seal"]
        assert filtered[3] == ["viagra"]

    def test_selection_improves_over_random_at_tiny_budget(self):
        """Informed selection with k=1 keeps a class-perfect term."""
        keep = select_terms(DOCS, Y, k=1)
        term = next(iter(keep))
        assert term in {"seal", "viagra"}
