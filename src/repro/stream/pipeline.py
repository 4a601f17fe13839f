"""The incremental verification pipeline: one tick at a time.

:class:`StreamingVerifier` wires the stream layers together.
``bootstrap`` runs the cold path once — crawl everything, fit the
vocabulary, train the SVM for its full epoch budget, solve TrustRank
from scratch.  ``apply_tick`` then advances the whole stack by one
:class:`~repro.data.deltas.SnapshotDelta` with per-stage cost
proportional to the *change*, not the corpus:

=====================  ==============================================
stage                  per-tick cost
=====================  ==============================================
crawl                  changed domains only (checkpointed resume)
summaries / TF sets    changed domains only
document frequencies   exact add/subtract (bit-equal to a refit)
TF-IDF features        transform changed docs; one stack + row gather
SVM                    ``warm_epochs`` warm-started Pegasos passes
TrustRank              residual push from edited edges (1e-9)
=====================  ==============================================

The frozen-vocabulary warm model accumulates error as the stream
drifts; a :class:`~repro.stream.drift.DriftDetector` watches feature
shift and verdict-flip rate and, when a bound trips, ``full_retrain``
refits vocabulary + SVM cold from the maintained exact state —
bit-identical to what :meth:`full_recompute` (the from-scratch oracle
used by ``benchmarks/stream``) produces, so verdict staleness returns
to exactly zero at every retrain tick.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.data.deltas import SnapshotDelta, StreamCorpus
from repro.exceptions import NotFittedError, ValidationError
from repro.ml.svm import LinearSVC
from repro.network.construction import build_pharmacy_graph
from repro.network.trustrank import trustrank
from repro.perf.cache import FeatureCache, content_fingerprint
from repro.stream.crawl import DeltaCrawlStore
from repro.stream.drift import DriftDetector, DriftReport
from repro.stream.features import IncrementalDocumentFrequencies
from repro.stream.rank import DeltaRankState
from repro.text.summarization import Summarizer
from repro.text.term_vector import TfidfVectorizer

__all__ = ["StreamingVerifier", "TickReport", "FullPipelineState"]

#: Trusted-seed label (mirrors ``repro.data.corpus.LEGITIMATE`` without
#: importing the core layer into the stream).
_LEGITIMATE = 1


@dataclass(frozen=True, slots=True)
class TickReport:
    """What one ``apply_tick`` did and measured.

    Attributes:
        epoch: the applied delta's epoch.
        n_sites: live sites after the tick.
        n_changed: re-crawled domains (births + drifts + rewires).
        n_removed: taken-down domains.
        n_flips: verdict flips among unchanged persisting sites.
        retrained: whether the drift detector triggered a full retrain.
        drift: the detector's measurements for this tick.
        seconds: wall-clock cost of the tick.
        rank_sweeps: residual-push sweeps TrustRank needed.
    """

    epoch: int
    n_sites: int
    n_changed: int
    n_removed: int
    n_flips: int
    retrained: bool
    drift: DriftReport | None
    seconds: float
    rank_sweeps: int


@dataclass(frozen=True)
class FullPipelineState:
    """A from-scratch pipeline run over one corpus state (the oracle)."""

    domains: tuple[str, ...]
    verdicts: dict[str, int]
    vocabulary_terms: tuple[str, ...]
    idf: np.ndarray
    features: sp.csr_matrix
    svm_weights: np.ndarray
    svm_bias: float
    trust_scores: dict[str, float]


class StreamingVerifier:
    """Incrementally maintained pharmacy verification over a stream.

    Args:
        corpus: the evolving corpus (epoch 0 = base snapshot).
        min_df: vectorizer document-frequency floor.
        damping: TrustRank damping factor.
        lam / n_epochs / batch_size / seed: the SVM configuration used
            by cold fits (``bootstrap`` and full retrains).
        warm_epochs: Pegasos passes per warm tick update.
        detector: drift detector; ``None`` installs the defaults.
        cache: optional :class:`~repro.perf.cache.FeatureCache`; the
            per-tick delta feature matrices are memoized under keys
            carrying the snapshot epoch, so a resumed or replayed tick
            can never be served another epoch's features.
        checkpoint_dir: crawl checkpoint directory (``None`` disables).
        max_pages: per-site crawl page cap.
    """

    def __init__(
        self,
        corpus: StreamCorpus,
        min_df: int = 1,
        damping: float = 0.85,
        lam: float = 1e-4,
        n_epochs: int = 30,
        batch_size: int = 32,
        seed: int = 0,
        warm_epochs: int = 3,
        detector: DriftDetector | None = None,
        cache: FeatureCache | None = None,
        checkpoint_dir: str | Path | None = None,
        max_pages: int | None = None,
    ) -> None:
        if warm_epochs < 1:
            raise ValidationError(f"warm_epochs must be >= 1, got {warm_epochs}")
        self._corpus = corpus
        self._min_df = min_df
        self._damping = damping
        self._lam = lam
        self._n_epochs = n_epochs
        self._batch_size = batch_size
        self._seed = seed
        self._warm_epochs = warm_epochs
        self._detector = detector if detector is not None else DriftDetector()
        self._cache = cache
        self._crawl = DeltaCrawlStore(
            corpus, checkpoint_dir=checkpoint_dir, max_pages=max_pages
        )
        self._summarizer = Summarizer()
        self._df = IncrementalDocumentFrequencies()
        self._rank = DeltaRankState(damping=damping)
        self._vectorizer: TfidfVectorizer | None = None
        self._svm: LinearSVC | None = None
        self._matrix: sp.csr_matrix | None = None  # live TF-IDF rows
        self._row_of: dict[str, int] = {}
        self._tokens: dict[str, tuple[str, ...]] = {}
        self._verdicts: dict[str, int] = {}
        self._epoch = 0
        self._fitted_epoch = 0

    # -- introspection ------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Epoch of the last applied tick."""
        return self._epoch

    @property
    def verdicts(self) -> dict[str, int]:
        """Current domain -> verdict (1 legitimate, 0 illegitimate)."""
        return dict(self._verdicts)

    @property
    def rank_state(self) -> DeltaRankState:
        """The maintained TrustRank state."""
        return self._rank

    @property
    def document_frequencies(self) -> IncrementalDocumentFrequencies:
        """The maintained exact document-frequency state."""
        return self._df

    @property
    def vectorizer(self) -> TfidfVectorizer:
        """The vectorizer of the last cold fit."""
        if self._vectorizer is None:
            raise NotFittedError("StreamingVerifier has not been bootstrapped")
        return self._vectorizer

    @property
    def classifier(self) -> LinearSVC:
        """The (warm-updated) SVM."""
        if self._svm is None:
            raise NotFittedError("StreamingVerifier has not been bootstrapped")
        return self._svm

    # -- cold start ---------------------------------------------------------

    def bootstrap(self) -> None:
        """Run the full cold pipeline on the corpus's current state."""
        self._crawl.bootstrap()
        domains = self._corpus.domains()
        for domain in domains:
            self._ingest_site(domain)
        self._epoch = self._corpus.epoch
        self._cold_fit()
        for domain in domains:
            site = self._crawl.site(domain)
            self._rank.set_row(
                domain,
                {target: 1.0 for target in site.outbound_endpoints()},
            )
        self._rank.set_trust_seeds(self._trusted_domains())
        self._rank.push()

    def _ingest_site(self, domain: str) -> None:
        """(Re)build one site's text state from its crawled pages."""
        site = self._crawl.site(domain)
        doc = self._summarizer.summarize_site(site)
        self._tokens[domain] = doc.tokens
        if domain in self._df:
            self._df.replace(domain, doc.tokens)
        else:
            self._df.add(domain, doc.tokens)

    def _drop_site(self, domain: str) -> None:
        self._df.remove(domain)
        self._tokens.pop(domain, None)
        self._verdicts.pop(domain, None)
        self._rank.remove_source(domain)

    def _trusted_domains(self) -> list[str]:
        labels = self._corpus.labels()
        return [d for d, label in labels.items() if label == _LEGITIMATE]

    def _labels_array(self, domains: tuple[str, ...]) -> np.ndarray:
        labels = self._corpus.labels()
        return np.fromiter((labels[d] for d in domains), dtype=np.int64)

    def _cold_fit(self) -> None:
        """Refit vocabulary + feature rows + SVM from the exact state."""
        domains = self._corpus.domains()
        vectorizer = self._df.fit_vectorizer(min_df=self._min_df)
        matrix = vectorizer.transform([self._tokens[d] for d in domains])
        self._vectorizer = vectorizer
        self._matrix = matrix
        self._row_of = {d: i for i, d in enumerate(domains)}
        y = self._labels_array(domains)
        svm = LinearSVC(
            lam=self._lam,
            n_epochs=self._n_epochs,
            seed=self._seed,
            batch_size=self._batch_size,
        )
        svm.fit(matrix, y)
        self._svm = svm
        self._fitted_epoch = self._epoch
        predicted = svm.predict(matrix)
        self._verdicts = {d: int(predicted[i]) for i, d in enumerate(domains)}
        self._detector.set_baseline(np.asarray(matrix.mean(axis=0)).ravel())

    # -- per-tick update ----------------------------------------------------

    def apply_tick(self, delta: SnapshotDelta) -> TickReport:
        """Advance every maintained stage past one snapshot delta."""
        if self._svm is None:
            raise NotFittedError("bootstrap() before apply_tick()")
        started = time.perf_counter()
        applied = self._corpus.apply(delta)
        self._epoch = delta.epoch
        self._crawl.apply(applied)
        for domain in applied.removed:
            self._drop_site(domain)
        for domain in applied.changed:
            self._ingest_site(domain)
            site = self._crawl.site(domain)
            self._rank.set_row(
                domain,
                {target: 1.0 for target in site.outbound_endpoints()},
            )
        domains = self._corpus.domains()
        n_flips = 0
        retrained = False
        report: DriftReport | None = None
        rank_sweeps = 0
        if applied.n_changes:
            # Append the changed rows, then gather the live rows in
            # corpus order; dropped and superseded rows fall out here.
            stacked = self._matrix
            if applied.changed:
                base = stacked.shape[0]
                delta_matrix = self._transform_delta(applied.changed)
                stacked = sp.vstack([stacked, delta_matrix], format="csr")
                for i, domain in enumerate(applied.changed):
                    self._row_of[domain] = base + i
            matrix = stacked[[self._row_of[d] for d in domains]]
            self._matrix = matrix
            self._row_of = {d: i for i, d in enumerate(domains)}
            y = self._labels_array(domains)
            self._svm.warm_fit(
                matrix,
                y,
                n_epochs=self._warm_epochs,
                seed=self._seed + delta.epoch,
            )
            rank_sweeps = self._rank.push()
            predicted = self._svm.predict(matrix)
            changed_set = set(applied.changed)
            new_verdicts = {}
            n_unchanged = 0
            for i, domain in enumerate(domains):
                verdict = int(predicted[i])
                new_verdicts[domain] = verdict
                old = self._verdicts.get(domain)
                if old is not None and domain not in changed_set:
                    n_unchanged += 1
                    if verdict != old:
                        n_flips += 1
            self._verdicts = new_verdicts
            report = self._detector.observe(
                delta.epoch,
                np.asarray(matrix.mean(axis=0)).ravel(),
                n_flips,
                n_unchanged,
            )
            if report.should_retrain:
                self.full_retrain()
                retrained = True
        return TickReport(
            epoch=delta.epoch,
            n_sites=len(domains),
            n_changed=len(applied.changed),
            n_removed=len(applied.removed),
            n_flips=n_flips,
            retrained=retrained,
            drift=report,
            seconds=time.perf_counter() - started,
            rank_sweeps=rank_sweeps,
        )

    def _transform_delta(self, changed: tuple[str, ...]) -> sp.csr_matrix:
        """TF-IDF rows of the changed documents, memoized per epoch.

        The cache key carries the snapshot epoch and the vocabulary's
        fit epoch: the same document content transformed under a later
        retrain's vocabulary is a different matrix, and a replayed
        tick must never be served a neighbouring epoch's rows.
        """
        vectorizer = self.vectorizer
        token_lists = [self._tokens[d] for d in changed]
        if self._cache is None:
            return vectorizer.transform(token_lists)

        def extract() -> sp.csr_matrix:
            # Valid only for the epoch the delta was cut at: the row
            # order follows this epoch's changed-domain list.
            assert self._epoch >= self._fitted_epoch
            return vectorizer.transform(token_lists)

        key = self._cache.key(
            "stream-delta-tfidf",
            content_fingerprint(
                part
                for domain, tokens in zip(changed, token_lists)
                for part in (domain, " ".join(tokens))
            ),
            {
                "epoch": self._epoch,
                "fitted_epoch": self._fitted_epoch,
                "min_df": self._min_df,
            },
        )
        return self._cache.get_or_compute(key, extract)

    # -- full retrain / oracle ---------------------------------------------

    def full_retrain(self) -> None:
        """Cold-refit vocabulary + SVM from the maintained exact state.

        The maintained document frequencies are bit-equal to a fresh
        count, so the refit vocabulary, features, SVM weights, and
        verdicts all match :meth:`full_recompute` exactly — verdict
        staleness is zero immediately after a retrain.
        """
        self._cold_fit()

    def full_recompute(self) -> FullPipelineState:
        """Run the whole pipeline cold on the current corpus state.

        Shares nothing with the maintained state — a fresh crawl, a
        fresh vocabulary fit, a cold SVM, and full-power-iteration
        TrustRank.  ``benchmarks/stream`` times this against
        :meth:`apply_tick` and checks the incremental state against it.
        No N-gram graphs are built: no verdict reads them.
        """
        store = DeltaCrawlStore(self._corpus)
        store.bootstrap()
        domains = self._corpus.domains()
        summarizer = Summarizer()
        docs = [summarizer.summarize_site(store.site(d)) for d in domains]
        vectorizer = TfidfVectorizer(min_df=self._min_df)
        matrix = vectorizer.fit(
            [doc.tokens for doc in docs]
        ).transform([doc.tokens for doc in docs])
        y = self._labels_array(domains)
        svm = LinearSVC(
            lam=self._lam,
            n_epochs=self._n_epochs,
            seed=self._seed,
            batch_size=self._batch_size,
        )
        svm.fit(matrix, y)
        predicted = svm.predict(matrix)
        graph = build_pharmacy_graph([store.site(d) for d in domains])
        trust = trustrank(
            graph, self._trusted_domains(), damping=self._damping
        )
        return FullPipelineState(
            domains=domains,
            verdicts={d: int(predicted[i]) for i, d in enumerate(domains)},
            vocabulary_terms=vectorizer.vocabulary.terms(),
            idf=vectorizer.idf.copy(),
            features=matrix,
            svm_weights=svm._w.copy(),
            svm_bias=svm._b,
            trust_scores=trust,
        )

    def staleness_against(self, full: FullPipelineState) -> float:
        """Verdict-disagreement rate versus a from-scratch run."""
        if not full.domains:
            return 0.0
        disagreements = 0
        for domain in full.domains:
            if self._verdicts.get(domain) != full.verdicts[domain]:
                disagreements += 1
        return disagreements / len(full.domains)
