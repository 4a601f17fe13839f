"""The verification service: transport-independent application logic.

:class:`VerificationService` is what the HTTP edge (and any future
transport) calls into.  It owns everything between "a domain name
arrived" and "a verdict payload left":

* **domain resolution** — a pre-crawled site index (the corpus the
  server was launched with) with optional crawl-on-miss against a
  :class:`~repro.web.host.WebHost` (the live web, or a fault-injected
  synthetic one in the harness);
* **deadline propagation** — the request budget caps the crawl
  (:class:`~repro.web.crawler.Crawler` ``deadline``/``fetch_budget``)
  and is threaded into
  :meth:`~repro.core.verifier.PharmacyVerifier.verify_sites`, so an
  overloaded server emits partial, ``deadline_exceeded``-degraded
  verdicts instead of hanging;
* **per-backend circuit breaking** — unexpected backend exceptions
  (a poisoned model, a corrupt cache) trip the breaker for that route
  only, converting repeat failures into fast
  :class:`~repro.exceptions.ServiceUnavailableError` (503) while the
  other routes keep serving;
* **verdict caching** — an optional
  :class:`~repro.perf.FeatureCache` memoizes clean full-confidence
  verdicts keyed by (domain, model fingerprint) — a content digest of
  the loaded verifier, so a retrained model never serves its
  predecessor's verdicts — the warm-cache fast path the load harness
  measures;
* **review-queue feeding** — every degraded verdict is recorded
  least-confident-first, mirroring
  :func:`~repro.core.review_queue.degraded_domains`, and served by the
  ``/v1/review-queue`` route.

Everything degrades, nothing raises past the documented trio: callers
see a payload, :class:`~repro.exceptions.ValidationError` (bad
request), :class:`~repro.exceptions.MissingKeyError` (unknown domain,
no crawl host), or :class:`~repro.exceptions.ServiceUnavailableError`.
"""

from __future__ import annotations

import io
import logging
import pickle
import re
import threading
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence, runtime_checkable

from repro.core.verifier import PharmacyVerifier, VerificationReport
from repro.exceptions import (
    CrawlError,
    MissingKeyError,
    ReproError,
    ServiceUnavailableError,
    ValidationError,
)
from repro.perf import FeatureCache, content_fingerprint
from repro.sanitizers import sanitizes
from repro.serve.admission import Deadline
from repro.serve.metrics import MetricsRegistry
from repro.web.crawler import Crawler, CrawlStats
from repro.web.host import WebHost
from repro.web.resilience.breaker import CircuitBreaker
from repro.web.resilience.clock import Clock, VirtualClock
from repro.web.resilience.retry import RetryPolicy
from repro.web.site import Website

logger = logging.getLogger(__name__)

__all__ = ["ServiceConfig", "SiteIndex", "VerificationService"]

#: Backend route names the per-backend circuit breaker distinguishes.
_VERIFY_BACKEND = "verify"
_REVIEW_BACKEND = "review"


@runtime_checkable
class SiteIndex(Protocol):
    """A domain-keyed site lookup the service can resolve against.

    Structural, not nominal, so the serving layer never imports a
    concrete corpus implementation: a plain ``dict[str, Website]``
    satisfies it, and so does :class:`repro.data.sharding.
    ShardedCorpus`, whose ``get`` opens only the one shard the
    domain's hash maps to — a million-site corpus serves lookups in
    O(shard) memory.
    """

    def get(self, domain: str) -> Website | None:
        """The site of ``domain``, or ``None`` when unknown."""

    def __len__(self) -> int:
        """Number of servable domains."""


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Operating knobs of one :class:`VerificationService`.

    Attributes:
        crawl_max_pages: page cap per on-demand crawl.
        crawl_fetch_budget: fetch-attempt cap per on-demand crawl.
        deadline_chunk: sites per deadline check inside batch
            verification (forwarded to ``verify_sites``).
        breaker_failure_threshold: consecutive backend failures that
            open that backend's circuit.
        breaker_reset_after: seconds an open circuit waits before a
            half-open probe.
        review_capacity: most-degraded verdicts retained for the
            review-queue route (least confident win eviction).
    """

    crawl_max_pages: int = 25
    crawl_fetch_budget: int | None = 200
    deadline_chunk: int = 8
    breaker_failure_threshold: int = 5
    breaker_reset_after: float = 30.0
    review_capacity: int = 10_000

    def __post_init__(self) -> None:
        if self.crawl_max_pages < 1:
            raise ValidationError(
                f"crawl_max_pages must be >= 1, got {self.crawl_max_pages}"
            )
        if self.deadline_chunk < 1:
            raise ValidationError(
                f"deadline_chunk must be >= 1, got {self.deadline_chunk}"
            )
        if self.review_capacity < 1:
            raise ValidationError(
                f"review_capacity must be >= 1, got {self.review_capacity}"
            )


#: Strict bare-domain shape: dot-separated LDH labels, no leading or
#: trailing hyphen, at least two labels.  Deliberately narrower than
#: the DNS grammar — anything the synthetic web generator cannot emit
#: is a bad request, not a crawl target.
_DOMAIN_RE = re.compile(
    r"^(?:[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?\.)+"
    r"[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?$"
)


@sanitizes("path", "ssrf")
def _validate_domain(domain: object) -> str:
    """Normalize and validate one request domain.

    Declared a sanitizer for the ``path``/``ssrf`` sink categories:
    the returned value matches :data:`_DOMAIN_RE`, so it cannot carry
    path separators or traversal tricks into checkpoint paths (T001),
    and every on-demand crawl is pinned to exactly this validated
    registrable domain — naming the domain to verify is the service's
    API, and the crawler's same-site guard re-checks every link it
    follows from there (T004).

    Raises:
        ValidationError: not a string, or not a bare registrable
            domain.
    """
    if not isinstance(domain, str):
        raise ValidationError(f"domain must be a string, got {type(domain).__name__}")
    cleaned = domain.strip().lower()
    if not cleaned or len(cleaned) > 253 or not _DOMAIN_RE.match(cleaned):
        raise ValidationError(
            f"domain {domain!r} must be a bare registrable domain"
        )
    return cleaned


class _CanonicalPickler(pickle.Pickler):
    """Pickles sets in sorted order, so equal models give equal bytes.

    Set iteration order follows string hashing, which is salted per
    process; without this a restart with the same model artifact would
    fingerprint differently and miss every cached verdict.  The output
    is only ever hashed, never loaded.
    """

    def persistent_id(self, obj: object) -> object:
        if isinstance(obj, (set, frozenset)):
            return (type(obj).__name__, sorted(obj, key=repr))
        return None


def _model_fingerprint(verifier: PharmacyVerifier) -> str:
    """Content fingerprint of everything a verdict depends on."""
    buffer = io.BytesIO()
    _CanonicalPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(verifier)
    return content_fingerprint([buffer.getvalue()])


class VerificationService:
    """Verify domains on demand behind admission, deadlines, breakers.

    Args:
        verifier: a fitted :class:`~repro.core.verifier.PharmacyVerifier`.
        sites: pre-crawled websites — either a sequence (indexed into a
            dict up front) or an already domain-keyed :class:`SiteIndex`
            such as a sharded corpus, which is resolved against lazily
            (each lookup opens one shard, never the whole corpus).
        host: optional web host for crawl-on-miss; without it unknown
            domains raise :class:`~repro.exceptions.MissingKeyError`.
        clock: time source for deadlines and breaker cooldowns
            (default: a deterministic
            :class:`~repro.web.resilience.clock.VirtualClock`; a real
            server injects
            :class:`~repro.web.resilience.clock.SystemClock`).
        cache: optional verdict cache (warm-path fast serving).
        retry_policy: retry policy for on-demand crawls.
        metrics: sink for service-level counters (verdicts, cache
            hits, degradations); optional.
        config: operating knobs (default :class:`ServiceConfig`).
    """

    def __init__(
        self,
        verifier: PharmacyVerifier,
        sites: Sequence[Website] | SiteIndex = (),
        host: WebHost | None = None,
        clock: Clock | None = None,
        cache: FeatureCache | None = None,
        retry_policy: RetryPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        config: ServiceConfig | None = None,
    ) -> None:
        if not verifier.is_fitted:
            raise ValidationError("VerificationService needs a fitted verifier")
        self._verifier = verifier
        self._model_fingerprint = _model_fingerprint(verifier)
        self._clock: Clock = clock if clock is not None else VirtualClock()
        self._cache = cache
        self._retry_policy = retry_policy
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._config = config if config is not None else ServiceConfig()
        if isinstance(sites, SiteIndex):
            # Already domain-keyed (a dict or e.g. a sharded corpus):
            # resolve against it lazily instead of materializing sites.
            self._index: SiteIndex = sites
            domains = (
                sites.domains() if hasattr(sites, "domains") else sites
            )
            self._known_domains = tuple(sorted(domains))
        else:
            index = {site.domain: site for site in sites}
            self._index = index
            self._known_domains = tuple(sorted(index))
        self._host = host
        self._breaker = CircuitBreaker(
            failure_threshold=self._config.breaker_failure_threshold,
            reset_after=self._config.breaker_reset_after,
            clock=self._clock,
        )
        self._review_lock = threading.Lock()
        self._review: dict[str, dict[str, object]] = {}

    @property
    def clock(self) -> Clock:
        """The injected time source (shared with the HTTP edge)."""
        return self._clock

    @property
    def metrics(self) -> MetricsRegistry:
        """The service-level metrics sink."""
        return self._metrics

    @property
    def known_domains(self) -> tuple[str, ...]:
        """Domains servable without a crawl, sorted."""
        return self._known_domains

    def backend_states(self) -> dict[str, str]:
        """Circuit state per backend route."""
        return {
            name: self._breaker.state(name)
            for name in (_VERIFY_BACKEND, _REVIEW_BACKEND)
        }

    # -- request entry points -----------------------------------------------

    def verify_domain(
        self, domain: str, budget: float | None = None
    ) -> dict[str, object]:
        """Verify one domain within ``budget`` seconds.

        Returns:
            The verdict payload (see :meth:`verify_batch`).
        """
        return self.verify_batch([domain], budget=budget)[0]

    def verify_batch(
        self, domains: Sequence[str], budget: float | None = None
    ) -> list[dict[str, object]]:
        """Verify a batch of domains under one shared deadline.

        The budget is consumed left to right: crawls stop once it is
        spent, and :meth:`~repro.core.verifier.PharmacyVerifier.verify_sites`
        degrades whatever scoring the remaining budget cannot cover —
        the response is always complete (one payload per requested
        domain), parts of it merely honest about being rushed.

        Args:
            domains: registrable domains to verify.
            budget: seconds of clock budget for the whole batch
                (``None`` = no deadline).

        Returns:
            One JSON-ready payload per domain, same order.

        Raises:
            ValidationError: empty batch or malformed domain.
            MissingKeyError: unknown domain with no crawl host.
            ServiceUnavailableError: the verify backend is unavailable.
        """
        if not domains:
            raise ValidationError("batch must name at least one domain")
        cleaned = [_validate_domain(d) for d in domains]
        deadline = (
            Deadline.after(budget, self._clock) if budget is not None else None
        )
        self._check_backend(_VERIFY_BACKEND)

        payloads: dict[int, dict[str, object]] = {}
        to_verify: list[tuple[int, Website, CrawlStats | None, list[str]]] = []
        for position, domain in enumerate(cleaned):
            cached = self._cache_load(domain)
            if cached is not None:
                self._metrics.increment("service_cache_hits_total")
                payloads[position] = cached
                continue
            site, stats, extra_reasons = self._resolve(domain, deadline)
            to_verify.append((position, site, stats, extra_reasons))

        if to_verify:
            reports = self._call_verifier(
                [site for _, site, _, _ in to_verify],
                [stats for _, _, stats, _ in to_verify],
                deadline,
            )
            for (position, _, _, extra_reasons), report in zip(to_verify, reports):
                payload = self._payload(report, extra_reasons)
                payloads[position] = payload
                self._record(payload)
        return [payloads[i] for i in range(len(cleaned))]

    def review_queue(self, limit: int | None = None) -> dict[str, object]:
        """The degraded-verdict review queue, least confident first.

        Mirrors :func:`~repro.core.review_queue.degraded_domains`
        ordering — (confidence, domain) ascending — so the domains a
        human should look at first lead the list.

        Args:
            limit: truncate to the first ``limit`` entries.

        Raises:
            ServiceUnavailableError: the review backend is unavailable.
        """
        self._check_backend(_REVIEW_BACKEND)
        try:
            with self._review_lock:
                # the review dict mutates per verdict, so no caching
                entries = sorted(
                    self._review.values(),
                    key=lambda e: (e["confidence"], e["domain"]),
                )
        except Exception as exc:  # repro-lint: disable=R008
            # Serving boundary: any backend bug must become a 503 with
            # an open circuit, never an unhandled exception mid-route.
            self._breaker.record_failure(_REVIEW_BACKEND)
            logger.exception("review backend failed")
            raise ServiceUnavailableError(
                _REVIEW_BACKEND, str(exc), retry_after=self._config.breaker_reset_after
            ) from exc
        self._breaker.record_success(_REVIEW_BACKEND)
        if limit is not None:
            if limit < 1:
                raise ValidationError(f"limit must be >= 1, got {limit}")
            entries = entries[:limit]
        return {
            "priority_domains": [e["domain"] for e in entries],
            "entries": entries,
            "total_degraded": len(self._review),
        }

    def health(self) -> dict[str, object]:
        """Liveness/readiness payload for ``GET /healthz``."""
        backends = self.backend_states()
        healthy = all(state != "open" for state in backends.values())
        return {
            "status": "ok" if healthy else "degraded",
            "backends": backends,
            "known_domains": len(self._index),
            "crawl_on_miss": self._host is not None,
            "model_fingerprint": self._model_fingerprint,
            "cache": self._cache.stats.as_dict() if self._cache else None,
        }

    # -- internals ----------------------------------------------------------

    def _check_backend(self, backend: str) -> None:
        if not self._breaker.allow(backend):
            raise ServiceUnavailableError(
                backend,
                "circuit open",
                retry_after=self._config.breaker_reset_after,
            )

    def _resolve(
        self, domain: str, deadline: Deadline | None
    ) -> tuple[Website, CrawlStats | None, list[str]]:
        """Find or crawl ``domain``; degrade instead of raising.

        Returns ``(site, crawl_stats, extra_reasons)`` where a dead or
        unbudgeted crawl yields an empty site plus a service-level
        degradation reason — the verifier then produces a network-only
        verdict for it.
        """
        site = self._index.get(domain)
        if site is not None:
            return site, None, []
        if self._host is None:
            raise MissingKeyError(
                f"unknown domain {domain!r} (no crawl host configured)"
            )
        if deadline is not None and deadline.expired():
            return Website(domain=domain, pages=()), None, ["not_crawled"]
        crawler = Crawler(
            self._host,
            max_pages=self._config.crawl_max_pages,
            retry_policy=self._retry_policy,
            clock=self._clock,
            deadline=deadline.remaining() if deadline is not None else None,
            fetch_budget=self._config.crawl_fetch_budget,
        )
        try:
            crawled = crawler.crawl_site(f"https://www.{domain}/")
        except CrawlError:
            logger.info("seed unreachable for %s; degrading", domain, exc_info=True)
            self._metrics.increment("service_seed_unreachable_total")
            return Website(domain=domain, pages=()), None, ["seed_unreachable"]
        return crawled, crawler.last_stats, []

    def _call_verifier(
        self,
        sites: Sequence[Website],
        stats: Sequence[CrawlStats | None],
        deadline: Deadline | None,
    ) -> list[VerificationReport]:
        """Run the verifier behind the verify-backend breaker."""
        try:
            reports = self._verifier.verify_sites(
                sites,
                crawl_stats=stats,
                deadline=deadline.at if deadline is not None else None,
                clock=self._clock,
                deadline_chunk=self._config.deadline_chunk,
            )
        except ReproError:
            # Request-shaped failures (validation) are the caller's to
            # hear about and do not indict the backend.
            raise
        except Exception as exc:  # repro-lint: disable=R008
            # Serving boundary: a poisoned model or cache path must
            # degrade to 503s on this route, not crash the server.
            self._breaker.record_failure(_VERIFY_BACKEND)
            logger.exception("verify backend failed on %d site(s)", len(sites))
            raise ServiceUnavailableError(
                _VERIFY_BACKEND, str(exc), retry_after=self._config.breaker_reset_after
            ) from exc
        self._breaker.record_success(_VERIFY_BACKEND)
        return reports

    def _payload(
        self, report: VerificationReport, extra_reasons: Sequence[str]
    ) -> dict[str, object]:
        """A JSON-ready verdict payload from one report."""
        reasons = list(report.degradation_reasons) + [
            r for r in extra_reasons if r not in report.degradation_reasons
        ]
        degraded = report.degraded or bool(reasons)
        payload: dict[str, object] = {
            "domain": report.domain,
            "verdict": "legitimate" if report.is_legitimate else "illegitimate",
            "predicted_label": report.predicted_label,
            "legitimacy_probability": report.legitimacy_probability,
            "text_rank": report.text_rank,
            "network_rank": report.network_rank,
            "rank_score": report.rank_score,
            "degraded": degraded,
            "confidence": report.confidence,
            "degradation_reasons": reasons,
            "cached": False,
        }
        self._metrics.increment("service_verdicts_total")
        if degraded:
            self._metrics.increment("service_degraded_verdicts_total")
        return payload

    def _record(self, payload: dict[str, object]) -> None:
        """File degraded verdicts for review; cache clean ones."""
        domain = str(payload["domain"])
        if payload["degraded"]:
            entry = {
                "domain": domain,
                "confidence": payload["confidence"],
                "degradation_reasons": payload["degradation_reasons"],
                "rank_score": payload["rank_score"],
            }
            with self._review_lock:
                self._review[domain] = entry
                if len(self._review) > self._config.review_capacity:
                    # Evict the most confident entry: it needs human
                    # eyes least urgently.
                    victim = max(
                        self._review.values(),
                        key=lambda e: (e["confidence"], e["domain"]),
                    )
                    del self._review[str(victim["domain"])]
            return
        self._cache_store(domain, payload)

    def _cache_key(self, domain: str) -> str:
        assert self._cache is not None
        return self._cache.key(
            kind="serve_verdict",
            content=content_fingerprint([domain]),
            params={"model_fingerprint": self._model_fingerprint},
        )

    def _cache_load(self, domain: str) -> dict[str, object] | None:
        if self._cache is None:
            return None
        cached = self._cache.load(self._cache_key(domain))
        if not isinstance(cached, dict):
            return None
        cached = dict(cached)
        cached["cached"] = True
        return cached

    def _cache_store(self, domain: str, payload: Mapping[str, object]) -> None:
        if self._cache is None:
            return
        self._cache.store(self._cache_key(domain), dict(payload))
