"""Breadth-first website crawler (crawler4j substitute), resilient.

The paper crawled each pharmacy domain "without depth limit, but for a
maximum of 200 pages" (Section 6.1).  :class:`Crawler` reproduces those
semantics over a :class:`~repro.web.host.WebHost`:

* the frontier is a FIFO queue seeded with the site root (BFS, hence
  effectively unbounded depth until the page cap);
* only links that *stay on the seed's registrable domain after URL
  normalization* are enqueued — a link whose normalized form hops to a
  different registrable domain is rejected, so a hostile page cannot
  redirect the crawl off-site (SSRF);
* per-page link fan-out is capped (adversarial pages can carry
  thousands of links; the cap bounds frontier growth);
* external links are recorded on the page objects and later harvested
  by :meth:`~repro.web.site.Website.outbound_endpoints`;
* at most ``max_pages`` pages are fetched per site.

On top of the paper's protocol sits the resilience layer
(:mod:`repro.web.resilience`), all opt-in:

* hosts may **raise** :class:`~repro.exceptions.TransientFetchError` /
  :class:`~repro.exceptions.PermanentFetchError` instead of returning
  ``None``; a :class:`~repro.web.resilience.RetryPolicy` retries the
  transient ones with exponential backoff and seeded jitter, sleeping
  through an injectable :class:`~repro.web.resilience.clock.Sleeper`;
* a per-domain :class:`~repro.web.resilience.CircuitBreaker` fails fast
  once a domain looks dead;
* a per-site ``deadline`` (clock seconds) and ``fetch_budget`` (total
  fetch attempts) bound each :meth:`~Crawler.crawl_site` call; hitting
  either stops the crawl gracefully with partial results;
* with a ``checkpoint_path``, loop state is persisted atomically and an
  interrupted crawl resumes without re-fetching completed pages.

Every failure is accounted for in the extended :class:`CrawlStats`
taxonomy rather than silently thinning the corpus.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exceptions import (
    CheckpointError,
    CrawlError,
    InvalidURLError,
    PermanentFetchError,
    TransientFetchError,
)
from repro.sanitizers import sanitizes
from repro.web.host import WebHost
from repro.web.page import WebPage
from repro.web.resilience.breaker import CircuitBreaker
from repro.web.resilience.checkpoint import (
    CrawlCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.web.resilience.clock import Clock, Sleeper, VirtualClock
from repro.web.resilience.retry import RetryPolicy
from repro.web.site import Website
from repro.web.url import endpoint, normalize_url, parse_url

logger = logging.getLogger(__name__)

__all__ = ["Crawler", "CrawlStats"]

#: The paper's per-site page cap.
DEFAULT_MAX_PAGES = 200

#: Links considered per fetched page; the rest are dropped.  Bounds
#: frontier growth on adversarial pages with huge link farms.
DEFAULT_MAX_LINKS_PER_PAGE = 100

#: Checkpoint write cadence, in fetched pages.
DEFAULT_CHECKPOINT_EVERY = 10

#: Sentinel: the fetch could not even be attempted (budget exhausted).
_INTERRUPTED = object()


@dataclass(frozen=True, slots=True)
class CrawlStats:
    """Bookkeeping for one site crawl, including the error taxonomy.

    Attributes:
        domain: registrable domain crawled.
        pages_fetched: pages successfully fetched this call.
        pages_skipped: frontier entries dropped by the page cap.
        fetch_failures: URLs the host returned ``None`` for (404-style
            not-found; terminal, never retried).
        links_rejected: links dropped by the same-site guard or the
            per-page fan-out cap.
        retries: retry attempts performed after transient failures.
        transient_recovered: URLs that failed transiently but were
            fetched on a later attempt.
        permanent_failures: URLs given up on — permanent fetch errors
            plus transient ones whose retry budget ran out.
        circuit_rejections: fetches refused because the domain's
            circuit breaker was open.
        deadline_hit: the per-site crawl deadline expired.
        budget_exhausted: the per-site fetch budget ran out.
        resumed: this crawl restored state from a checkpoint.
        failed_urls: URLs that were abandoned (permanent failures and
            circuit rejections), in encounter order.
    """

    domain: str
    pages_fetched: int
    pages_skipped: int
    fetch_failures: int
    links_rejected: int = 0
    retries: int = 0
    transient_recovered: int = 0
    permanent_failures: int = 0
    circuit_rejections: int = 0
    deadline_hit: bool = False
    budget_exhausted: bool = False
    resumed: bool = False
    failed_urls: tuple[str, ...] = ()

    @property
    def is_partial(self) -> bool:
        """Whether the site's content was only partially acquired.

        Not-found links (``fetch_failures``) are everyday web rot and
        do not count; give-ups, open circuits, and exhausted budgets or
        deadlines do.
        """
        return bool(
            self.permanent_failures
            or self.circuit_rejections
            or self.deadline_hit
            or self.budget_exhausted
        )

    def error_taxonomy(self) -> dict[str, int]:
        """The failure counters as one mapping (for reports/logs)."""
        return {
            "not_found": self.fetch_failures,
            "permanent": self.permanent_failures,
            "retries": self.retries,
            "transient_recovered": self.transient_recovered,
            "circuit_rejections": self.circuit_rejections,
            "deadline_hit": int(self.deadline_hit),
            "budget_exhausted": int(self.budget_exhausted),
        }


@dataclass(slots=True)
class _CrawlState:
    """Mutable loop state for one :meth:`Crawler.crawl_site` call."""

    domain: str
    pages: list[WebPage] = field(default_factory=list)
    visited: set[str] = field(default_factory=set)
    frontier: deque[str] = field(default_factory=deque)
    failed_urls: list[str] = field(default_factory=list)
    fetch_failures: int = 0
    pages_skipped: int = 0
    links_rejected: int = 0
    retries: int = 0
    transient_recovered: int = 0
    permanent_failures: int = 0
    circuit_rejections: int = 0
    fetches_used: int = 0
    deadline_hit: bool = False
    budget_exhausted: bool = False
    resumed: bool = False

    _COUNTER_KEYS = (
        "fetch_failures",
        "pages_skipped",
        "links_rejected",
        "retries",
        "transient_recovered",
        "permanent_failures",
        "circuit_rejections",
    )

    def counters(self) -> dict[str, int]:
        return {key: getattr(self, key) for key in self._COUNTER_KEYS}

    def restore_counters(self, counters: dict[str, int]) -> None:
        for key in self._COUNTER_KEYS:
            setattr(self, key, int(counters.get(key, 0)))


class Crawler:
    """BFS crawler with a per-site page cap and optional resilience.

    Args:
        host: where to fetch pages from.  The host may signal failures
            by returning ``None`` (terminal not-found) or by raising
            :class:`~repro.exceptions.TransientFetchError` /
            :class:`~repro.exceptions.PermanentFetchError`.
        max_pages: per-site page cap (paper: 200).
        max_links_per_page: per-page link fan-out cap.
        retry_policy: when given, transient failures are retried with
            backoff; without it any fetch error is terminal for its URL
            (the crawl itself still survives).
        breaker: per-domain circuit breaker shared across crawls.
        clock: time source for deadlines and breaker cooldowns
            (default: a fresh deterministic
            :class:`~repro.web.resilience.VirtualClock`).
        sleeper: how backoff waits are performed (default: the clock,
            so virtual time advances instead of blocking).
        deadline: max clock seconds per :meth:`crawl_site` call.
        fetch_budget: max fetch attempts (including retries) per
            :meth:`crawl_site` call.
        checkpoint_path: when given, crawl state is persisted here and
            interrupted crawls resume from it.
        checkpoint_every: pages between periodic checkpoint writes.
    """

    def __init__(
        self,
        host: WebHost,
        max_pages: int = DEFAULT_MAX_PAGES,
        max_links_per_page: int = DEFAULT_MAX_LINKS_PER_PAGE,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        clock: Clock | None = None,
        sleeper: Sleeper | None = None,
        deadline: float | None = None,
        fetch_budget: int | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        if max_pages < 1:
            raise CrawlError(f"max_pages must be >= 1, got {max_pages}")
        if max_links_per_page < 1:
            raise CrawlError(
                f"max_links_per_page must be >= 1, got {max_links_per_page}"
            )
        if deadline is not None and deadline <= 0:
            raise CrawlError(f"deadline must be > 0, got {deadline}")
        if fetch_budget is not None and fetch_budget < 1:
            raise CrawlError(f"fetch_budget must be >= 1, got {fetch_budget}")
        if checkpoint_every < 1:
            raise CrawlError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self._host = host
        self._max_pages = max_pages
        self._max_links_per_page = max_links_per_page
        self._retry_policy = retry_policy
        self._breaker = breaker
        self._clock: Clock = clock if clock is not None else VirtualClock()
        if sleeper is not None:
            self._sleeper: Sleeper = sleeper
        elif isinstance(self._clock, Sleeper):
            self._sleeper = self._clock
        else:
            self._sleeper = VirtualClock()
        self._deadline = deadline
        self._fetch_budget = fetch_budget
        self._checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self._checkpoint_every = checkpoint_every
        self._last_stats: CrawlStats | None = None

    @property
    def max_pages(self) -> int:
        return self._max_pages

    @property
    def max_links_per_page(self) -> int:
        """Per-page link fan-out cap."""
        return self._max_links_per_page

    @property
    def last_stats(self) -> CrawlStats | None:
        """Statistics of the most recent :meth:`crawl_site` call."""
        return self._last_stats

    def crawl_site(self, seed_url: str) -> Website:
        """Crawl one site starting from ``seed_url``.

        Args:
            seed_url: URL of the site root (or any page of the site).

        Returns:
            A :class:`Website` with the pages reachable from the seed,
            in BFS order, capped at ``max_pages``.  When a deadline or
            fetch budget interrupts the crawl, the site is partial and
            :attr:`last_stats` says so (``deadline_hit`` /
            ``budget_exhausted``); with a ``checkpoint_path`` the next
            call picks up where this one stopped.

        Raises:
            CrawlError: when the seed URL itself cannot be fetched
                (after retries, when a policy is configured).
            CheckpointError: when an existing checkpoint does not match
                ``seed_url``.
        """
        parse_url(seed_url)
        domain = endpoint(seed_url)
        state = _CrawlState(domain=domain)
        rng = self._retry_policy.rng() if self._retry_policy is not None else None
        started = self._clock.monotonic()

        checkpoint = self._load_checkpoint(seed_url, domain)
        if checkpoint is not None:
            state.pages = list(checkpoint.pages)
            state.visited = set(checkpoint.visited)
            # Frontier URLs come from a file on disk: re-validate every
            # one through the same-site guard so a tampered checkpoint
            # cannot point the crawl off-domain.
            state.frontier = deque(
                safe
                for url in checkpoint.frontier
                if (safe := self._same_site(url, domain)) is not None
            )
            state.failed_urls = list(checkpoint.failed_urls)
            state.restore_counters(checkpoint.counters)
            state.resumed = True
        else:
            state.frontier = deque([seed_url])
            state.visited = {normalize_url(seed_url)}

        since_checkpoint = 0
        while state.frontier:
            if len(state.pages) >= self._max_pages:
                state.pages_skipped += len(state.frontier)
                state.frontier.clear()
                break
            # Time is injected: deterministic VirtualClock by default,
            # SystemClock only when the caller opts into real time.
            if (
                self._deadline is not None
                and self._clock.monotonic() - started >= self._deadline
            ):
                state.deadline_hit = True
                break
            url = state.frontier.popleft()
            page = self._fetch_resilient(url, state, rng)
            if page is _INTERRUPTED:
                state.frontier.appendleft(url)
                break
            if page is None:
                if not state.pages and not state.resumed:
                    raise CrawlError(f"seed URL not fetchable: {seed_url!r}")
                continue
            state.pages.append(page)
            self._enqueue_links(page, state)
            since_checkpoint += 1
            if (
                self._checkpoint_path is not None
                and since_checkpoint >= self._checkpoint_every
            ):
                self._save_checkpoint(seed_url, state)
                since_checkpoint = 0

        interrupted = state.deadline_hit or state.budget_exhausted
        self._finalize_checkpoint(seed_url, state, interrupted)

        logger.debug(
            "crawled %s: %d pages (%s), taxonomy %s",
            domain,
            len(state.pages),
            "partial" if interrupted else "complete",
            self._stats_from(state).error_taxonomy(),
        )
        self._last_stats = self._stats_from(state)
        return Website(domain=domain, pages=tuple(state.pages))

    # -- resilient fetching -------------------------------------------------

    def _fetch_resilient(
        self, url: str, state: _CrawlState, rng: np.random.Generator | None
    ):
        """Fetch ``url`` honoring breaker, budget, and retry policy.

        Returns the page, ``None`` when the URL is given up on, or
        :data:`_INTERRUPTED` when the fetch budget ran out before the
        fetch could happen (the URL was *not* attempted).
        """
        max_attempts = (
            self._retry_policy.max_attempts if self._retry_policy is not None else 1
        )
        attempt = 0
        while True:
            if self._breaker is not None and not self._breaker.allow(state.domain):
                state.circuit_rejections += 1
                state.failed_urls.append(url)
                return None
            if (
                self._fetch_budget is not None
                and state.fetches_used >= self._fetch_budget
            ):
                state.budget_exhausted = True
                return _INTERRUPTED
            state.fetches_used += 1
            attempt += 1
            try:
                page = self._host.fetch(url)
            except PermanentFetchError as exc:
                logger.debug("permanent fetch failure for %s: %s", url, exc.reason)
                self._record_failure(state)
                state.permanent_failures += 1
                state.failed_urls.append(url)
                return None
            except TransientFetchError as exc:
                self._record_failure(state)
                if attempt < max_attempts and rng is not None:
                    state.retries += 1
                    self._sleeper.sleep(self._retry_policy.backoff(attempt, rng))
                    continue
                logger.debug(
                    "gave up on %s after %d attempt(s): %s", url, attempt, exc.reason
                )
                state.permanent_failures += 1
                state.failed_urls.append(url)
                return None
            if page is None:
                # Not-found is terminal and does not implicate the host.
                state.fetch_failures += 1
                return None
            if attempt > 1:
                state.transient_recovered += 1
            if self._breaker is not None:
                self._breaker.record_success(state.domain)
            return page

    def _record_failure(self, state: _CrawlState) -> None:
        if self._breaker is not None:
            self._breaker.record_failure(state.domain)

    def _enqueue_links(self, page: WebPage, state: _CrawlState) -> None:
        considered = 0
        for link in page.internal_links():
            if considered >= self._max_links_per_page:
                state.links_rejected += 1
                continue
            considered += 1
            safe_url = self._same_site(link, state.domain)
            if safe_url is None:
                state.links_rejected += 1
                continue
            key = normalize_url(safe_url)
            if key not in state.visited:
                state.visited.add(key)
                state.frontier.append(safe_url)

    # -- checkpointing ------------------------------------------------------

    def _load_checkpoint(self, seed_url: str, domain: str) -> CrawlCheckpoint | None:
        if self._checkpoint_path is None or not self._checkpoint_path.exists():
            return None
        checkpoint = load_checkpoint(self._checkpoint_path)
        if checkpoint.domain != domain or (
            normalize_url(checkpoint.seed_url) != normalize_url(seed_url)
        ):
            raise CheckpointError(
                f"checkpoint at {self._checkpoint_path} is for "
                f"{checkpoint.seed_url!r}, not {seed_url!r}"
            )
        return checkpoint

    def _save_checkpoint(self, seed_url: str, state: _CrawlState) -> None:
        save_checkpoint(
            CrawlCheckpoint(
                seed_url=seed_url,
                domain=state.domain,
                pages=tuple(state.pages),
                visited=frozenset(state.visited),
                frontier=tuple(state.frontier),
                counters=state.counters(),
                failed_urls=tuple(state.failed_urls),
            ),
            self._checkpoint_path,
        )

    def _finalize_checkpoint(
        self, seed_url: str, state: _CrawlState, interrupted: bool
    ) -> None:
        if self._checkpoint_path is None:
            return
        if interrupted:
            self._save_checkpoint(seed_url, state)
        else:
            self._checkpoint_path.unlink(missing_ok=True)

    def _stats_from(self, state: _CrawlState) -> CrawlStats:
        return CrawlStats(
            domain=state.domain,
            pages_fetched=len(state.pages),
            pages_skipped=state.pages_skipped,
            fetch_failures=state.fetch_failures,
            links_rejected=state.links_rejected,
            retries=state.retries,
            transient_recovered=state.transient_recovered,
            permanent_failures=state.permanent_failures,
            circuit_rejections=state.circuit_rejections,
            deadline_hit=state.deadline_hit,
            budget_exhausted=state.budget_exhausted,
            resumed=state.resumed,
            failed_urls=tuple(state.failed_urls),
        )

    @staticmethod
    @sanitizes("ssrf")
    def _same_site(link: str, domain: str) -> str | None:
        """Re-derive the link's registrable domain *after* normalization
        and return the canonical URL only when it still matches
        ``domain``.  Returning the re-serialized parse (rather than the
        raw link text) means the crawl frontier only ever holds URLs
        whose target domain has been verified."""
        try:
            parsed = parse_url(link)
        except InvalidURLError:
            return None
        if parsed.registered_domain != domain:
            return None
        return str(parsed)
