"""Tests for the cumulative ranking model (Problem 2)."""

import math

import pytest

from repro.core.ranking import analyze_outliers, rank_pharmacies


class TestRankPharmacies:
    def test_rank_is_sum_of_components(self):
        result = rank_pharmacies(
            domains=["a.com", "b.com"],
            text_ranks=[0.9, 0.1],
            network_ranks=[0.05, 0.01],
        )
        by_domain = {e.domain: e for e in result.entries}
        assert by_domain["a.com"].rank_score == pytest.approx(0.95)
        assert by_domain["b.com"].rank_score == pytest.approx(0.11)

    def test_decreasing_order(self):
        result = rank_pharmacies(
            domains=["low.com", "high.com", "mid.com"],
            text_ranks=[0.1, 0.9, 0.5],
            network_ranks=[0.0, 0.0, 0.0],
        )
        assert result.domains == ("high.com", "mid.com", "low.com")

    def test_tie_broken_by_domain(self):
        result = rank_pharmacies(
            domains=["z.com", "a.com"],
            text_ranks=[0.5, 0.5],
            network_ranks=[0.0, 0.0],
        )
        assert result.domains == ("a.com", "z.com")

    def test_pairord_with_labels(self):
        result = rank_pharmacies(
            domains=["a.com", "b.com", "c.com"],
            text_ranks=[0.9, 0.5, 0.1],
            network_ranks=[0.0, 0.0, 0.0],
            oracle_labels=[1, 0, 0],
        )
        assert result.pairord == pytest.approx(1.0)

    def test_pairord_nan_without_labels(self):
        result = rank_pharmacies(
            domains=["a.com", "b.com"],
            text_ranks=[0.9, 0.1],
            network_ranks=[0.0, 0.0],
        )
        assert math.isnan(result.pairord)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            rank_pharmacies(["a.com"], [0.5, 0.6], [0.0])

    def test_oracle_labels_carried_on_entries(self):
        result = rank_pharmacies(
            domains=["a.com", "b.com"],
            text_ranks=[0.9, 0.1],
            network_ranks=[0.0, 0.0],
            oracle_labels=[1, 0],
        )
        assert result.entries[0].oracle_label == 1
        assert result.entries[1].oracle_label == 0


class TestAnalyzeOutliers:
    def make_result(self):
        # One illegitimate ranked high (0.8), one legitimate ranked low.
        return rank_pharmacies(
            domains=["goodtop.com", "sneaky.net", "mid.net", "weakgood.com"],
            text_ranks=[0.9, 0.8, 0.3, 0.2],
            network_ranks=[0.0, 0.0, 0.0, 0.0],
            oracle_labels=[1, 0, 0, 1],
        )

    def test_illegitimate_outliers_are_highest_ranked_bad(self):
        report = analyze_outliers(self.make_result(), top_k=1)
        assert report.illegitimate_outliers[0].domain == "sneaky.net"

    def test_legitimate_outliers_are_lowest_ranked_good(self):
        report = analyze_outliers(self.make_result(), top_k=1)
        assert report.legitimate_outliers[0].domain == "weakgood.com"

    def test_top_k_respected(self):
        report = analyze_outliers(self.make_result(), top_k=5)
        assert len(report.illegitimate_outliers) == 2
        assert len(report.legitimate_outliers) == 2

    def test_requires_labels(self):
        result = rank_pharmacies(
            domains=["a.com"], text_ranks=[0.5], network_ranks=[0.0]
        )
        with pytest.raises(ValueError):
            analyze_outliers(result)


class TestRankingOnTinyCorpus:
    def test_generator_outliers_surface_in_analysis(self, tiny_corpus, tiny_documents):
        """Illegitimate sites flagged is_outlier by the generator should
        rank above typical illegitimate sites (they imitate legit text)."""
        import numpy as np

        from repro.core.text_pipeline import TfidfTextPipeline
        from repro.ml.naive_bayes import MultinomialNB

        y = tiny_corpus.labels
        pipeline = TfidfTextPipeline(MultinomialNB()).fit(tiny_documents, y)
        text_ranks = pipeline.score(tiny_documents).rank
        result = rank_pharmacies(
            domains=list(tiny_corpus.domains),
            text_ranks=text_ranks,
            network_ranks=np.zeros(len(y)),
            oracle_labels=y,
        )
        illegit_scores = {
            e.domain: e.rank_score for e in result.entries if e.oracle_label == 0
        }
        outlier_domains = [
            r.domain for r in tiny_corpus.records if r.is_outlier and r.label == 0
        ]
        typical = [
            d for d in illegit_scores if d not in outlier_domains
        ]
        if outlier_domains:
            mean_outlier = np.mean([illegit_scores[d] for d in outlier_domains])
            mean_typical = np.mean([illegit_scores[d] for d in typical])
            assert mean_outlier >= mean_typical
