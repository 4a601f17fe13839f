"""End-to-end streaming equivalence: warm state vs the cold oracle.

One tiny corpus is streamed through every planned tick once (module
scope), then each maintained structure is pinned against a from-scratch
recompute of the final snapshot: document frequencies and the refit
vocabulary bit-equal, TrustRank within 1e-9 of a tight power-iteration
run, and — after ``full_retrain`` — the SVM weights bit-equal with zero
verdict staleness.  Separate streams pin the maintained feature matrix
row by row and check that no tick builds an N-gram graph.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.data.deltas import StreamCorpus, plan_deltas
from repro.network.construction import build_pharmacy_graph
from repro.network.trustrank import trustrank
from repro.perf.cache import FeatureCache
from repro.stream.crawl import DeltaCrawlStore
from repro.stream.drift import DriftDetector
from repro.stream.pipeline import StreamingVerifier
from repro.text.ngram_graph import NGramGraph
from repro.text.summarization import Summarizer

from tests.stream.conftest import STREAM_CFG, STREAM_GEN


def _quiet_detector() -> DriftDetector:
    """Thresholds no tiny stream can cross — retrains stay explicit."""
    return DriftDetector(max_feature_shift=100.0, max_flip_rate=1.0)


@pytest.fixture(scope="module")
def streamed():
    corpus = StreamCorpus.generate(STREAM_GEN)
    deltas = plan_deltas(STREAM_GEN, STREAM_CFG)
    verifier = StreamingVerifier(corpus, detector=_quiet_detector())
    verifier.bootstrap()
    reports = [verifier.apply_tick(delta) for delta in deltas]
    full = verifier.full_recompute()
    return SimpleNamespace(
        corpus=corpus, verifier=verifier, reports=reports, full=full
    )


def _has_births_deaths_and_drifts(deltas) -> bool:
    return all(
        any(getattr(delta, kind) for delta in deltas)
        for kind in ("added", "removed", "drifted")
    )


class TestTickReports:
    def test_epochs_are_sequential(self, streamed):
        assert [r.epoch for r in streamed.reports] == list(
            range(1, STREAM_CFG.n_ticks + 1)
        )
        assert streamed.verifier.epoch == STREAM_CFG.n_ticks

    def test_site_counts_track_the_corpus(self, streamed):
        assert streamed.reports[-1].n_sites == len(streamed.corpus.domains())
        for report in streamed.reports:
            assert report.n_changed >= 0
            assert report.rank_sweeps >= 0
            assert report.seconds >= 0.0

    def test_quiet_detector_never_retrains(self, streamed):
        assert not any(r.retrained for r in streamed.reports)

    def test_verdicts_cover_exactly_the_live_domains(self, streamed):
        assert set(streamed.verifier.verdicts) == set(
            streamed.corpus.domains()
        )


class TestEquivalences:
    def test_document_frequencies_bit_equal_fresh_fit(self, streamed):
        refit = streamed.verifier.document_frequencies.fit_vectorizer(
            min_df=1
        )
        assert refit.vocabulary.terms() == streamed.full.vocabulary_terms
        assert np.array_equal(refit.idf, streamed.full.idf)

    def test_trustrank_within_1e9_of_tight_oracle(self, streamed):
        store = DeltaCrawlStore(streamed.corpus)
        store.bootstrap()
        graph = build_pharmacy_graph(store.sites())
        expected = trustrank(
            graph,
            streamed.verifier._trusted_domains(),
            damping=0.85,
            max_iterations=1000,
            tolerance=1e-12,
        )
        actual = streamed.verifier.rank_state.scores()
        assert set(actual) == set(expected)
        for node, score in expected.items():
            assert abs(actual[node] - score) < 1e-9, node

    def test_staleness_is_a_bounded_rate(self, streamed):
        staleness = streamed.verifier.staleness_against(streamed.full)
        assert 0.0 <= staleness <= 1.0


class TestRetrain:
    # Runs last in the module: full_retrain mutates the shared verifier
    # into the cold-fit state the equivalence tests above must not see.
    def test_full_retrain_restores_exact_oracle_agreement(self, streamed):
        streamed.verifier.full_retrain()
        assert streamed.verifier.staleness_against(streamed.full) == 0.0
        assert np.array_equal(
            streamed.verifier.classifier._w, streamed.full.svm_weights
        )
        assert streamed.verifier.classifier._b == streamed.full.svm_bias
        assert (
            streamed.verifier.vectorizer.vocabulary.terms()
            == streamed.full.vocabulary_terms
        )


class TestFeatureCache:
    def test_epoch_keyed_cache_replays_identically(self, tmp_path):
        deltas = plan_deltas(STREAM_GEN, STREAM_CFG)[:3]
        cache = FeatureCache(tmp_path / "cache")

        def run():
            corpus = StreamCorpus.generate(STREAM_GEN)
            verifier = StreamingVerifier(
                corpus, detector=_quiet_detector(), cache=cache
            )
            verifier.bootstrap()
            for delta in deltas:
                verifier.apply_tick(delta)
            return verifier.verdicts

        first = run()
        assert cache.stats.stores > 0
        hits_before = cache.stats.hits
        second = run()
        # The replayed ticks hit the epoch-keyed entries and reproduce
        # the exact same verdicts.
        assert cache.stats.hits > hits_before
        assert second == first


class TestFeatureRows:
    def test_each_live_row_equals_a_fresh_transform(self, stream_deltas):
        # Retrain every other tick, so the checks cover incremental
        # ticks, retrain ticks and the ticks right after a retrain.
        corpus = StreamCorpus.generate(STREAM_GEN)
        verifier = StreamingVerifier(
            corpus, detector=DriftDetector(max_ticks_between_retrains=2)
        )
        verifier.bootstrap()
        summarizer = Summarizer()
        retrained = []
        for delta in stream_deltas:
            report = verifier.apply_tick(delta)
            retrained.append(report.retrained)
            domains = corpus.domains()
            assert verifier._matrix.shape[0] == len(domains)
            assert set(verifier._row_of) == set(domains)
            store = DeltaCrawlStore(corpus)
            store.bootstrap()
            for domain in domains:
                tokens = summarizer.summarize_site(store.site(domain)).tokens
                expected = verifier.vectorizer.transform([tokens])
                row = verifier._matrix[verifier._row_of[domain]]
                assert (row != expected).nnz == 0, (delta.epoch, domain)
        assert any(retrained) and not all(retrained)
        assert _has_births_deaths_and_drifts(stream_deltas)


class TestNoNGramGraphs:
    def test_stream_builds_no_ngram_graph(self, monkeypatch, stream_deltas):
        def refuse(*args, **kwargs):
            raise AssertionError("the stream built an N-gram graph")

        monkeypatch.setattr(NGramGraph, "from_text", refuse)
        corpus = StreamCorpus.generate(STREAM_GEN)
        verifier = StreamingVerifier(corpus, detector=_quiet_detector())
        verifier.bootstrap()
        for delta in stream_deltas:
            verifier.apply_tick(delta)
        assert _has_births_deaths_and_drifts(stream_deltas)
        verifier.full_recompute()
