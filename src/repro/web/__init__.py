"""Web substrate: URLs, pages, sites, hosts, the BFS crawler, and the
resilience layer (fault injection, retries, breakers, checkpoints)."""

from repro.web.crawler import Crawler, CrawlStats
from repro.web.host import InMemoryWebHost, WebHost
from repro.web.page import WebPage
from repro.web.resilience import (
    CircuitBreaker,
    CrawlCheckpoint,
    FaultInjectingWebHost,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    SystemClock,
    VirtualClock,
)
from repro.web.site import Website
from repro.web.url import (
    ParsedURL,
    endpoint,
    normalize_url,
    parse_url,
)

__all__ = [
    "Crawler",
    "CrawlStats",
    "InMemoryWebHost",
    "WebHost",
    "WebPage",
    "Website",
    "ParsedURL",
    "endpoint",
    "normalize_url",
    "parse_url",
    "CircuitBreaker",
    "CrawlCheckpoint",
    "FaultInjectingWebHost",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "SystemClock",
    "VirtualClock",
]
