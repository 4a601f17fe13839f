"""Tests for the end-to-end PharmacyVerifier."""

import numpy as np
import pytest

import repro.core.verifier
from repro.core.text_pipeline import TfidfTextPipeline
from repro.core.verifier import MIN_CONFIDENCE, PharmacyVerifier
from repro.data.corpus import ILLEGITIMATE, LEGITIMATE
from repro.exceptions import NotFittedError, ValidationError
from repro.ml.svm import LinearSVC
from repro.web.crawler import CrawlStats
from repro.web.page import WebPage
from repro.web.site import Website


@pytest.fixture(scope="module")
def fitted_verifier(tiny_corpus):
    # Train on even rows; odd rows are "unseen".
    train = tiny_corpus.subset(np.arange(0, len(tiny_corpus), 2))
    return PharmacyVerifier(seed=0).fit(train), tiny_corpus


class TestPharmacyVerifier:
    def test_unfitted_raises(self, tiny_corpus):
        with pytest.raises(NotFittedError):
            PharmacyVerifier().verify_site(tiny_corpus.sites[0])

    def test_is_fitted_flag(self, fitted_verifier):
        verifier, _ = fitted_verifier
        assert verifier.is_fitted

    def test_report_fields(self, fitted_verifier):
        verifier, corpus = fitted_verifier
        report = verifier.verify_site(corpus.sites[1])
        assert report.domain == corpus.sites[1].domain
        assert report.predicted_label in (0, 1)
        assert 0.0 <= report.legitimacy_probability <= 1.0
        assert report.rank_score == pytest.approx(
            report.text_rank + report.network_rank
        )

    def test_unseen_accuracy(self, fitted_verifier):
        verifier, corpus = fitted_verifier
        test_idx = np.arange(1, len(corpus), 2)
        sites = [corpus.sites[i] for i in test_idx]
        reports = verifier.verify_sites(sites)
        predictions = np.array([r.predicted_label for r in reports])
        assert (predictions == corpus.labels[test_idx]).mean() > 0.9

    def test_is_legitimate_property(self, fitted_verifier):
        verifier, corpus = fitted_verifier
        report = verifier.verify_site(corpus.sites[0])
        assert report.is_legitimate == (report.predicted_label == 1)

    def test_rank_sites(self, fitted_verifier):
        verifier, corpus = fitted_verifier
        test_idx = np.arange(1, len(corpus), 2)
        sites = [corpus.sites[i] for i in test_idx]
        result = verifier.rank_sites(sites, corpus.labels[test_idx])
        assert result.pairord > 0.9
        scores = [e.rank_score for e in result.entries]
        assert scores == sorted(scores, reverse=True)

    def test_verify_url_crawls_then_verifies(
        self, fitted_verifier, tiny_snapshot_pair
    ):
        verifier, corpus = fitted_verifier
        snap1, _ = tiny_snapshot_pair
        domain = corpus.domains[1]
        report = verifier.verify_url(snap1.host, f"https://www.{domain}/")
        assert report.domain == domain

    def test_network_rank_nonnegative(self, fitted_verifier):
        verifier, corpus = fitted_verifier
        for report in verifier.verify_sites(list(corpus.sites[:5])):
            assert report.network_rank >= 0.0


def partial_stats(domain):
    return CrawlStats(
        domain=domain,
        pages_fetched=1,
        pages_skipped=0,
        fetch_failures=0,
        permanent_failures=3,
        failed_urls=(f"https://www.{domain}/gone",),
    )


class TestGracefulDegradation:
    def test_partial_crawl_marks_degraded(self, fitted_verifier):
        verifier, corpus = fitted_verifier
        site = corpus.sites[1]
        report = verifier.verify_site(site, crawl_stats=partial_stats(site.domain))
        assert report.degraded
        assert report.degradation_reasons == ("partial_crawl",)
        assert report.confidence == pytest.approx(0.7)

    def test_textless_site_gets_network_only_verdict(self, fitted_verifier):
        verifier, _ = fitted_verifier
        empty = Website(domain="ghost-pharmacy.com", pages=())
        report = verifier.verify_site(empty)
        assert report.degraded
        assert "no_text" in report.degradation_reasons
        assert report.legitimacy_probability == pytest.approx(0.5)
        assert report.text_rank == 0.0
        assert report.confidence >= MIN_CONFIDENCE

    def test_textless_and_expired_sites_share_the_network_only_cut(
        self, fitted_verifier
    ):
        verifier, corpus = fitted_verifier
        seed_domain = next(
            corpus.domains[i]
            for i in range(0, len(corpus), 2)
            if corpus.labels[i] == LEGITIMATE
        )
        untrusted = Website(domain="ghost-pharmacy.com", pages=())
        trusted = Website(
            domain="linked-ghost.com",
            pages=(
                WebPage(
                    url="https://www.linked-ghost.com/",
                    text="",
                    links=(f"https://www.{seed_domain}/",),
                ),
            ),
        )
        for site, expected in ((untrusted, ILLEGITIMATE), (trusted, LEGITIMATE)):
            textless = verifier.verify_site(site)
            (expired,) = verifier.verify_sites([site], deadline=0.0)
            assert "no_text" in textless.degradation_reasons
            assert "deadline_exceeded" in expired.degradation_reasons
            assert textless.network_rank == expired.network_rank
            assert (textless.network_rank > 0.0) == (expected == LEGITIMATE)
            assert textless.predicted_label == expired.predicted_label == expected

    def test_batch_with_degraded_members_never_raises(self, fitted_verifier):
        verifier, corpus = fitted_verifier
        sites = [
            corpus.sites[0],
            Website(domain="ghost-pharmacy.com", pages=()),
            corpus.sites[1],
        ]
        stats = [None, None, partial_stats(corpus.sites[1].domain)]
        reports = verifier.verify_sites(sites, crawl_stats=stats)
        assert len(reports) == 3
        assert not reports[0].degraded
        assert reports[1].degraded and reports[2].degraded

    def test_confidence_floors_at_minimum(self, fitted_verifier):
        verifier, _ = fitted_verifier
        empty = Website(domain="ghost-pharmacy.com", pages=())
        report = verifier.verify_site(
            empty, crawl_stats=partial_stats("ghost-pharmacy.com")
        )
        # partial_crawl + no_text + no_network_signal stack up, but the
        # report keeps a usable confidence.
        assert len(report.degradation_reasons) == 3
        assert report.confidence == pytest.approx(MIN_CONFIDENCE)

    def test_misaligned_stats_rejected(self, fitted_verifier):
        verifier, corpus = fitted_verifier
        with pytest.raises(ValidationError):
            verifier.verify_sites(list(corpus.sites[:2]), crawl_stats=[None])


class TestThresholdTuning:
    def test_tuned_threshold_enforces_precision(self, tiny_corpus):
        from repro.ml.metrics import precision

        train = tiny_corpus.subset(np.arange(0, len(tiny_corpus), 2))
        holdout_idx = np.arange(1, len(tiny_corpus), 2)
        holdout_sites = [tiny_corpus.sites[i] for i in holdout_idx]
        holdout_labels = tiny_corpus.labels[holdout_idx]

        verifier = PharmacyVerifier(seed=0).fit(train)
        threshold = verifier.tune_threshold(
            holdout_sites, holdout_labels, min_precision=1.0
        )
        assert threshold is not None
        assert verifier.decision_threshold == threshold
        reports = verifier.verify_sites(holdout_sites)
        predictions = np.array([r.predicted_label for r in reports])
        # On the tuning set itself the floor must hold exactly.
        assert precision(holdout_labels, predictions, 1) == 1.0

    def test_tuning_scores_equal_summary_scores(self, tiny_corpus, monkeypatch):
        """Held-out sites score from their tokens exactly as their summaries do."""
        import repro.ml.metrics

        train = tiny_corpus.subset(np.arange(0, len(tiny_corpus), 2))
        holdout_idx = np.arange(1, len(tiny_corpus), 2)
        holdout_sites = [tiny_corpus.sites[i] for i in holdout_idx]
        # 300 terms: some held-out sites are subsampled, some are not.
        verifier = PharmacyVerifier(max_terms=300, seed=0).fit(train)
        seen = []
        choose = repro.ml.metrics.threshold_for_precision
        monkeypatch.setattr(
            repro.ml.metrics,
            "threshold_for_precision",
            lambda y, proba, floor: seen.append(proba) or choose(y, proba, floor),
        )
        verifier.tune_threshold(holdout_sites, tiny_corpus.labels[holdout_idx])
        summaries = [verifier._summarizer.summarize_site(s) for s in holdout_sites]
        np.testing.assert_array_equal(seen[0], verifier._pipeline.score(summaries).proba)

    def test_tuning_raises_on_text_pipeline_failure(self, fitted_verifier, monkeypatch):
        verifier, corpus = fitted_verifier

        def fail(self, token_lists):
            raise ValidationError("text pipeline broke")

        monkeypatch.setattr(TfidfTextPipeline, "score_tokens", fail)
        sites = list(corpus.sites[:4])
        with pytest.raises(ValidationError):
            verifier.tune_threshold(sites, corpus.labels[:4])
        assert verifier.decision_threshold is None
        # Verification degrades instead of raising.
        assert all(
            "no_text" in r.degradation_reasons for r in verifier.verify_sites(sites)
        )

    def test_tune_before_fit_raises(self, tiny_corpus):
        with pytest.raises(NotFittedError):
            PharmacyVerifier().tune_threshold(
                list(tiny_corpus.sites[:4]), tiny_corpus.labels[:4]
            )

    def test_untuned_verifier_has_no_threshold(self, fitted_verifier):
        verifier, _ = fitted_verifier
        assert verifier.decision_threshold is None

    def test_refit_clears_tuned_threshold(self, tiny_corpus):
        """A threshold tuned for one model never cuts another's scores."""
        even = tiny_corpus.subset(np.arange(0, len(tiny_corpus), 2))
        odd_idx = np.arange(1, len(tiny_corpus), 2)
        odd = tiny_corpus.subset(odd_idx)
        verifier = PharmacyVerifier(seed=0).fit(even)
        verifier.tune_threshold(
            [tiny_corpus.sites[i] for i in odd_idx],
            tiny_corpus.labels[odd_idx],
            min_precision=1.0,
        )
        assert verifier.decision_threshold is not None
        verifier.fit(odd)
        assert verifier.decision_threshold is None
        fresh = PharmacyVerifier(seed=0).fit(odd)
        sites = list(tiny_corpus.sites)
        assert verifier.verify_sites(sites) == fresh.verify_sites(sites)


class TestCalibratedVerifier:
    def test_fits_verifies_and_round_trips(self, tiny_corpus, tmp_path):
        from repro.io import load_model, save_model
        from repro.ml.calibration import CalibratedClassifier

        train = tiny_corpus.subset(np.arange(0, len(tiny_corpus), 2))
        verifier = PharmacyVerifier(
            classifier=CalibratedClassifier(LinearSVC()), seed=0
        ).fit(train)
        sites = list(tiny_corpus.sites)
        reports = verifier.verify_sites(sites)
        # Calibrated probabilities are the text rank, not hard 0/1 labels.
        assert not {r.text_rank for r in reports} <= {0.0, 1.0}
        assert all(
            r.text_rank == r.legitimacy_probability for r in reports if not r.degraded
        )
        labels = np.array([r.predicted_label for r in reports])
        assert (labels == tiny_corpus.labels).mean() > 0.9
        save_model(verifier, tmp_path / "calibrated.pkl")
        assert load_model(tmp_path / "calibrated.pkl").verify_sites(sites) == reports


class TestBlockWalk:
    """Scoring in blocks equals scoring each site alone."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # The tiny corpus then crosses several block boundaries.
        monkeypatch.setattr(repro.core.verifier, "_BLOCK_SITES", 3)

    @staticmethod
    def assert_blockwise_equals_per_site(verifier, sites):
        assert len(sites) > 3
        assert verifier.verify_sites(sites) == [
            verifier.verify_site(site) for site in sites
        ]

    def test_default_verifier(self, fitted_verifier):
        verifier, corpus = fitted_verifier
        self.assert_blockwise_equals_per_site(verifier, list(corpus.sites))

    def test_linear_svc_verifier(self, tiny_corpus):
        train = tiny_corpus.subset(np.arange(0, len(tiny_corpus), 2))
        verifier = PharmacyVerifier(classifier=LinearSVC(), seed=0).fit(train)
        reports = verifier.verify_sites(list(tiny_corpus.sites))
        # Non-probabilistic classifiers contribute a hard 0/1 text rank.
        assert {r.text_rank for r in reports} <= {0.0, 1.0}
        self.assert_blockwise_equals_per_site(verifier, list(tiny_corpus.sites))

    def test_tuned_threshold_verifier(self, tiny_corpus):
        train = tiny_corpus.subset(np.arange(0, len(tiny_corpus), 2))
        holdout_idx = np.arange(1, len(tiny_corpus), 2)
        verifier = PharmacyVerifier(seed=0).fit(train)
        verifier.tune_threshold(
            [tiny_corpus.sites[i] for i in holdout_idx],
            tiny_corpus.labels[holdout_idx],
            min_precision=1.0,
        )
        assert verifier.decision_threshold is not None
        self.assert_blockwise_equals_per_site(verifier, list(tiny_corpus.sites))

    def test_textless_and_linkless_sites(self, fitted_verifier):
        verifier, corpus = fitted_verifier
        blank = Website(
            domain="blank-rx.com",
            pages=(WebPage(url="https://www.blank-rx.com/", text=" \n\t "),),
        )
        linkless = Website(
            domain="island-rx.com",
            pages=(
                WebPage(
                    url="https://www.island-rx.com/",
                    text="cheap pills discount pharmacy online",
                ),
            ),
        )
        ghost = Website(domain="ghost-pharmacy.com", pages=())
        sites = [
            corpus.sites[0],
            blank,
            corpus.sites[1],
            linkless,
            ghost,
            corpus.sites[2],
            corpus.sites[3],
        ]
        reports = verifier.verify_sites(sites)
        assert "no_text" in reports[1].degradation_reasons
        assert "no_text" in reports[4].degradation_reasons
        assert "no_text" not in reports[3].degradation_reasons
        assert "no_network_signal" in reports[3].degradation_reasons
        self.assert_blockwise_equals_per_site(verifier, sites)
