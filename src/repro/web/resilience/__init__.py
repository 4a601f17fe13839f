"""Resilience layer for the acquisition path.

The paper crawled thousands of live pharmacy sites — an environment of
timeouts, transient errors, truncated pages, and hostile link farms.
This package makes that environment *reproducible* and the crawl
*survivable*:

* :mod:`~repro.web.resilience.clock` — injectable ``Clock``/``Sleeper``
  abstractions so retry backoff and crawl deadlines never read the wall
  clock in library code and tests never actually sleep;
* :mod:`~repro.web.resilience.faults` — a seeded, deterministic
  :class:`FaultPlan` executed by :class:`FaultInjectingWebHost` over
  any host: transient/permanent failures, slow responses, truncated or
  garbled bodies, flapping domains;
* :mod:`~repro.web.resilience.retry` — :class:`RetryPolicy` with
  exponential backoff and seeded jitter;
* :mod:`~repro.web.resilience.breaker` — a per-domain
  :class:`CircuitBreaker` that fails fast on persistently dead hosts;
* :mod:`~repro.web.resilience.checkpoint` — atomic crawl
  checkpoint/resume so an interrupted crawl never re-fetches completed
  pages.

The :class:`~repro.web.crawler.Crawler` consumes all of these through
constructor knobs; everything is optional and defaults to the old
fail-soft behavior.
"""

from repro.web.resilience.breaker import CircuitBreaker
from repro.web.resilience.checkpoint import (
    CrawlCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.web.resilience.clock import Clock, Sleeper, SystemClock, VirtualClock
from repro.web.resilience.faults import (
    FaultInjectingWebHost,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.web.resilience.retry import RetryPolicy

__all__ = [
    "CircuitBreaker",
    "Clock",
    "CrawlCheckpoint",
    "FaultInjectingWebHost",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "Sleeper",
    "SystemClock",
    "VirtualClock",
    "load_checkpoint",
    "save_checkpoint",
]
