"""The end-to-end pharmacy verification system.

:class:`PharmacyVerifier` is the library's one-stop API: train it on a
labelled corpus, then hand it crawled websites (or URLs on a host) and
receive a :class:`VerificationReport` with the classification, the
membership probability, the trust scores, and the cumulative rank —
everything a human reviewer triaging pharmacies would consume.

Internally it composes the pieces exactly as the paper does: summary
documents → TF-IDF text classifier (verification feeds each site's
tokens to the same transform, with the same rows as its summary), the
network stage
(:class:`~repro.network.features.NetworkStage`: TrustRank seeded from
the training set's legitimate pharmacies, read through each site's
outbound endpoints) for networkRank, and the Section-5 cumulative
ranking.

Verification degrades gracefully instead of failing: a site whose
crawl was partial (see :attr:`~repro.web.crawler.CrawlStats.is_partial`)
or whose content supports only one evidence channel (no usable text, no
network signal) still gets a report — scored from whatever evidence
exists, flagged ``degraded`` with an explicit ``confidence`` and the
reasons spelled out — so a misbehaving web thins confidence, never the
report stream.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.evaluation import PipelineScores
from repro.core.ranking import RankingResult, rank_pharmacies
from repro.core.text_pipeline import TfidfTextPipeline
from repro.data.corpus import ILLEGITIMATE, LEGITIMATE, PharmacyCorpus
from repro.exceptions import NotFittedError, ReproError, ValidationError
from repro.ml.base import BaseClassifier
from repro.ml.naive_bayes import MultinomialNB
from repro.network.features import NetworkStage
from repro.text.summarization import Summarizer
from repro.text.tokenization import tokenize
from repro.web.crawler import Crawler, CrawlStats
from repro.web.host import WebHost
from repro.web.resilience.clock import Clock, VirtualClock
from repro.web.resilience.retry import RetryPolicy
from repro.web.site import SiteEvidence, Website

logger = logging.getLogger(__name__)

__all__ = ["PharmacyVerifier", "VerificationReport"]


#: Confidence penalties per degradation reason; reports bottom out at
#: :data:`MIN_CONFIDENCE` rather than zero (a report always says
#: *something*).
_CONFIDENCE_PENALTIES = {
    "partial_crawl": 0.3,
    "no_text": 0.4,
    "no_network_signal": 0.2,
    "deadline_exceeded": 0.5,
}

MIN_CONFIDENCE = 0.1

#: Sites materialised and scored together by :meth:`PharmacyVerifier.verify_sites`
#: when no deadline is set.  Each block is read from the input sequence
#: once, so a lazy sharded view is walked in shard-major order and each
#: shard parsed once per pass; only one block of evidence and token
#: lists is alive at a time.
_BLOCK_SITES = 1024


def _confidence(reasons: Sequence[str]) -> float:
    """Full confidence less each reason's penalty, floored."""
    confidence = 1.0
    for reason in reasons:
        confidence -= _CONFIDENCE_PENALTIES.get(reason, 0.0)
    return max(MIN_CONFIDENCE, confidence)


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Verdict for one pharmacy website.

    Attributes:
        domain: the pharmacy's registrable domain.
        predicted_label: 1 legitimate, 0 illegitimate.
        legitimacy_probability: text-classifier membership probability
            of the legitimate class (0.5 when text evidence was
            unavailable and the verdict is network-only).
        text_rank: textRank term of the cumulative ranking model.
        network_rank: networkRank term (TrustRank-derived).
        rank_score: text_rank + network_rank (Section 5).
        degraded: the verdict rests on partial or single-channel
            evidence; treat it as triage input, not a final call.
        confidence: 1.0 for a full-evidence verdict, lowered per
            degradation reason (never below :data:`MIN_CONFIDENCE`).
        degradation_reasons: why the verdict is degraded — a subset of
            ``{"partial_crawl", "no_text", "no_network_signal",
            "deadline_exceeded"}``.
    """

    domain: str
    predicted_label: int
    legitimacy_probability: float
    text_rank: float
    network_rank: float
    rank_score: float
    degraded: bool = False
    confidence: float = 1.0
    degradation_reasons: tuple[str, ...] = ()

    @property
    def is_legitimate(self) -> bool:
        return self.predicted_label == LEGITIMATE


class PharmacyVerifier:
    """Train-once, verify-many pharmacy verification system.

    Args:
        classifier: text classifier prototype (default NBM — the
            paper's most robust AUC performer).
        max_terms: summary subsample size (None = all terms).
        seed: RNG seed for summarization subsampling.
    """

    def __init__(
        self,
        classifier: BaseClassifier | None = None,
        max_terms: int | None = 1000,
        seed: int = 0,
    ) -> None:
        self._summarizer = Summarizer(max_terms=max_terms, seed=seed)
        self._pipeline = TfidfTextPipeline(classifier or MultinomialNB())
        self._network: NetworkStage | None = None
        self._decision_threshold: float | None = None

    @property
    def is_fitted(self) -> bool:
        return self._network is not None

    @property
    def decision_threshold(self) -> float | None:
        """Probability threshold set by :meth:`tune_threshold` (if any)."""
        return self._decision_threshold

    def tune_threshold(
        self,
        sites: Sequence[Website],
        labels: Sequence[int],
        min_precision: float = 0.95,
    ) -> float | None:
        """Pick the decision threshold for a legitimate-precision floor.

        The operational knob of a verification deployment: only mark a
        pharmacy legitimate when the expected precision of that call
        stays above ``min_precision``, maximizing recall under that
        constraint.  Evaluate on held-out sites, not the training set.

        Args:
            sites: held-out websites.
            labels: their oracle labels.
            min_precision: the precision floor for the legitimate call.

        Returns:
            The chosen threshold, or ``None`` when no threshold meets
            the floor (the verifier then falls back to argmax).
        """
        from repro.ml.metrics import threshold_for_precision

        if self._network is None:
            raise NotFittedError("PharmacyVerifier has not been fitted")
        self._decision_threshold = threshold_for_precision(
            labels, self._text_scores(sites).proba, min_precision
        )
        return self._decision_threshold

    def fit(self, corpus: PharmacyCorpus) -> "PharmacyVerifier":
        """Train on a labelled corpus (the oracle-known set P0).

        Refitting clears a threshold set by :meth:`tune_threshold`: it
        was chosen for the old model's probabilities.
        """
        self._decision_threshold = None
        documents = [self._summarizer.summarize_site(s) for s in corpus.sites]
        self._pipeline.fit(documents, corpus.labels)
        trusted = [
            domain
            for domain, label in zip(corpus.domains, corpus.labels)
            if label == LEGITIMATE
        ]
        self._network = NetworkStage().fit(corpus.sites, trusted)
        logger.info(
            "verifier fitted on %d pharmacies (%d legitimate seeds)",
            len(corpus),
            len(trusted),
        )
        return self

    # -- verification -------------------------------------------------------

    def verify_site(
        self, site: Website, crawl_stats: CrawlStats | None = None
    ) -> VerificationReport:
        """Verify one crawled website (degraded when evidence is thin)."""
        return self.verify_sites([site], crawl_stats=[crawl_stats])[0]

    def verify_sites(
        self,
        sites: Sequence[SiteEvidence],
        crawl_stats: Sequence[CrawlStats | None] | None = None,
        *,
        deadline: float | None = None,
        clock: Clock | None = None,
        deadline_chunk: int = 8,
    ) -> list[VerificationReport]:
        """Verify a batch of crawled websites.

        Every site gets a report.  Sites with usable text go through
        the text pipeline; sites without (empty or zero-page crawls)
        fall back to network-only scoring with ``degraded=True`` — this
        method does not raise on thin or partial content.

        Each site is read only through
        :class:`~repro.web.site.SiteEvidence` (domain, merged text,
        whether it has text, outbound endpoints), so ``sites`` may hold
        :class:`Website` objects or shard rows alike.

        The batch is walked once, in consecutive blocks of
        :data:`_BLOCK_SITES` sites: each block is read from ``sites``
        once, tokenized, and sent through one TF-IDF transform.  No
        summary document is built and, unless a site's token count
        exceeds ``max_terms``, no stop word is filtered.  The rows still
        equal those of the sites' summaries bit for bit: the vocabulary
        was fitted on stop-filtered summaries, so a token the filter
        drops is never a column, and a raw count at or below
        ``max_terms`` draws no subsample (see :meth:`_text_scores`).

        A sequence that offers ``rows(start, stop)``, as
        :meth:`ShardedCorpus.sites_view()
        <repro.data.sharding.ShardedCorpus.sites_view>` does, is read
        through it: each block is the shards' validated rows, sliced
        per shard, so a pass parses each shard once and builds no
        :class:`Website`, page or record object.

        With a ``deadline``, the blocks shrink to ``deadline_chunk``
        sites and the clock is checked between them: blocks whose turn
        comes after the deadline skip the text pipeline and get cheap
        network-only reports flagged ``deadline_exceeded`` — the serving
        layer's guarantee that an overloaded verifier returns partial
        degraded results instead of hanging past its budget.  Per-site
        results are independent, so every block size scores exactly
        alike for every site the budget covers.

        Args:
            sites: crawled websites, or any site evidence.
            crawl_stats: optional per-site crawl statistics, aligned
                with ``sites``; partial crawls (see
                :attr:`~repro.web.crawler.CrawlStats.is_partial`) mark
                their reports degraded.
            deadline: absolute ``clock.monotonic()`` reading after
                which remaining sites degrade (``None`` = no budget).
            clock: time source for the deadline (default: a fresh
                :class:`~repro.web.resilience.VirtualClock`, under
                which a deadline in the future never expires —
                production servers inject a real clock).
            deadline_chunk: sites scored between deadline checks.
        """
        if self._network is None:
            raise NotFittedError("PharmacyVerifier has not been fitted")
        if crawl_stats is not None and len(crawl_stats) != len(sites):
            raise ValidationError(
                f"crawl_stats and sites disagree: {len(crawl_stats)} vs {len(sites)}"
            )
        if deadline_chunk < 1:
            raise ValidationError(
                f"deadline_chunk must be >= 1, got {deadline_chunk}"
            )
        step = _BLOCK_SITES if deadline is None else deadline_chunk
        timer: Clock = clock if clock is not None else VirtualClock()
        read_rows = getattr(sites, "rows", None)
        reports: list[VerificationReport] = []
        for start in range(0, len(sites), step):
            block = (
                read_rows(start, start + step)
                if read_rows is not None
                else list(sites[start : start + step])
            )
            block_stats = (
                crawl_stats[start : start + step]
                if crawl_stats is not None
                else None
            )
            # Time is injected: deterministic VirtualClock unless the
            # caller opts into real time (the serving layer does).
            if (
                deadline is not None
                and timer.monotonic() >= deadline
            ):
                reports.extend(self._expired_reports(block, block_stats))
            else:
                reports.extend(self._verify_batch(block, block_stats))
        return reports

    def _verify_batch(
        self,
        sites: Sequence[SiteEvidence],
        crawl_stats: Sequence[CrawlStats | None] | None,
    ) -> list[VerificationReport]:
        """Score one block with no deadline bookkeeping."""
        endpoints = [site.outbound_endpoints() for site in sites]
        network_ranks = self._network.network_rank(
            [site.domain for site in sites], endpoints
        ).tolist()
        reasons: list[list[str]] = []
        scorable: list[int] = []
        for i, site in enumerate(sites):
            site_reasons = []
            stats = crawl_stats[i] if crawl_stats is not None else None
            if stats is not None and stats.is_partial:
                site_reasons.append("partial_crawl")
            if site.has_text():
                scorable.append(i)
            else:
                site_reasons.append("no_text")
            # Without endpoints, networkRank is the site's own trust.
            if not endpoints[i] and network_ranks[i] <= 0.0:
                site_reasons.append("no_network_signal")
            reasons.append(site_reasons)

        probas, labels, text_ranks = self._score_text(
            [sites[i] for i in scorable]
        )
        if probas is None:
            # Text pipeline failed wholesale: degrade every site that
            # depended on it to network-only scoring.
            for i in scorable:
                reasons[i].append("no_text")
            text_verdicts = {}
        else:
            # Python floats and ints: the values a report stores.
            text_verdicts = dict(
                zip(
                    scorable,
                    zip(probas.tolist(), labels.tolist(), text_ranks.tolist()),
                )
            )

        reports = []
        for i, site in enumerate(sites):
            network_rank = network_ranks[i]
            if i in text_verdicts:
                proba, label, text_rank = text_verdicts[i]
            else:
                # Network-only verdict, as for a site past its deadline.
                proba = 0.5
                text_rank = 0.0
                label = self._network_only_label(network_rank)
            if reasons[i]:
                site_reasons = tuple(dict.fromkeys(reasons[i]))
                confidence = _confidence(site_reasons)
            else:
                site_reasons, confidence = (), 1.0
            reports.append(
                VerificationReport(
                    domain=site.domain,
                    predicted_label=label,
                    legitimacy_probability=proba,
                    text_rank=text_rank,
                    network_rank=network_rank,
                    rank_score=text_rank + network_rank,
                    degraded=bool(site_reasons),
                    confidence=confidence,
                    degradation_reasons=site_reasons,
                )
            )
        return reports

    def _expired_reports(
        self,
        sites: Sequence[SiteEvidence],
        crawl_stats: Sequence[CrawlStats | None] | None,
    ) -> list[VerificationReport]:
        """Cheap network-only reports for sites past their deadline.

        No text pipeline, no summarization — just the trust-score
        lookups (dict reads), so emitting these consumes effectively
        none of an exhausted budget.  Reports carry the
        ``deadline_exceeded`` reason on top of any ``partial_crawl``
        flag their stats earned.
        """
        network_ranks = self._network.network_rank(
            [site.domain for site in sites],
            [site.outbound_endpoints() for site in sites],
        )
        reports = []
        for i, site in enumerate(sites):
            site_reasons = ["deadline_exceeded"]
            stats = crawl_stats[i] if crawl_stats is not None else None
            if stats is not None and stats.is_partial:
                site_reasons.append("partial_crawl")
            network_rank = float(network_ranks[i])
            reports.append(
                VerificationReport(
                    domain=site.domain,
                    predicted_label=self._network_only_label(network_rank),
                    legitimacy_probability=0.5,
                    text_rank=0.0,
                    network_rank=network_rank,
                    rank_score=network_rank,
                    degraded=True,
                    confidence=_confidence(site_reasons),
                    degradation_reasons=tuple(site_reasons),
                )
            )
        return reports

    def _network_only_label(self, network_rank: float) -> int:
        """The verdict of a site scored without text evidence.

        Textless sites and sites past their deadline share this cut
        (with a neutral 0.5 probability): any trust at all tips the
        label to legitimate.
        """
        return LEGITIMATE if network_rank > 0.0 else ILLEGITIMATE

    def _text_scores(self, sites: Sequence[SiteEvidence]) -> PipelineScores:
        """Score ``sites``' text straight from their tokens.

        Each site's TF-IDF input is
        :meth:`Summarizer.scoring_tokens
        <repro.text.summarization.Summarizer.scoring_tokens>` of
        ``tokenize(site.merged_text())``: the raw token list whenever no
        subsample would be drawn, the summary's own tokens otherwise.
        The vocabulary was fitted on stop-filtered summaries, so a
        token the filter drops is never a column, and each row equals
        the row of the site's :meth:`~Summarizer.summarize_site` summary
        bit for bit: same ``indptr``, ``indices`` and ``data``.  Raises
        what the pipeline raises.
        """
        scoring_tokens = self._summarizer.scoring_tokens
        return self._pipeline.score_tokens(
            [scoring_tokens(site.domain, tokenize(site.merged_text())) for site in sites]
        )

    def _score_text(self, sites: Sequence[SiteEvidence]):
        """Run the text pipeline; ``(None, None, None)`` on failure.

        Scores through :meth:`_text_scores`, so no summary document is
        built and, at or below ``max_terms``, no stop word filtered.
        """
        if not sites:
            return np.empty(0), np.empty(0, dtype=int), np.empty(0)
        try:
            scored = self._text_scores(sites)
            labels = scored.labels
            if self._decision_threshold is not None:
                labels = (scored.proba >= self._decision_threshold).astype(int)
            return scored.proba, labels, scored.rank
        except ReproError:
            logger.warning(
                "text pipeline failed on %d site(s); degrading to "
                "network-only verdicts",
                len(sites),
                exc_info=True,
            )
            return None, None, None

    def verify_url(
        self,
        host: WebHost,
        url: str,
        max_pages: int = 200,
        retry_policy: RetryPolicy | None = None,
        deadline: float | None = None,
        fetch_budget: int | None = None,
    ) -> VerificationReport:
        """Crawl a site from ``url`` on ``host`` and verify it.

        Resilience knobs are forwarded to the
        :class:`~repro.web.crawler.Crawler`; the crawl's stats feed the
        report, so an interrupted or partially failed crawl yields a
        ``degraded`` verdict instead of an exception (the seed itself
        being unreachable still raises
        :class:`~repro.exceptions.CrawlError`).
        """
        crawler = Crawler(
            host,
            max_pages=max_pages,
            retry_policy=retry_policy,
            deadline=deadline,
            fetch_budget=fetch_budget,
        )
        site = crawler.crawl_site(url)
        return self.verify_site(site, crawl_stats=crawler.last_stats)

    def rank_sites(self, sites: Sequence[SiteEvidence],
                   oracle_labels: Sequence[int] | None = None) -> RankingResult:
        """Rank a batch of sites by decreasing legitimacy (Problem 2)."""
        return rank_reports(self.verify_sites(sites), oracle_labels)

def rank_reports(
    reports: Sequence[VerificationReport],
    oracle_labels: Sequence[int] | None = None,
) -> RankingResult:
    """Rank verified sites by decreasing legitimacy (Problem 2).

    :meth:`PharmacyVerifier.rank_sites` is this over
    :meth:`~PharmacyVerifier.verify_sites`; calling it on reports lets a
    caller read ``oracle_labels`` after the verification pass.
    """
    return rank_pharmacies(
        domains=[r.domain for r in reports],
        text_ranks=[r.text_rank for r in reports],
        network_ranks=[r.network_rank for r in reports],
        oracle_labels=oracle_labels,
    )
