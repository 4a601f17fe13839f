"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class NotFittedError(ReproError):
    """Raised when ``predict``/``transform`` is called before ``fit``."""


class InvalidURLError(ReproError):
    """Raised when a URL cannot be parsed into a usable structure."""


class CrawlError(ReproError):
    """Raised when a crawl cannot start (e.g. unknown seed domain)."""


class FetchError(ReproError):
    """Base class for single-URL fetch failures raised by web hosts.

    The resilience layer (:mod:`repro.web.resilience`) distinguishes
    retryable from terminal failures through the two subclasses below;
    plain hosts may keep returning ``None`` instead, which the crawler
    treats as a terminal not-found.
    """

    def __init__(self, url: str, reason: str = "") -> None:
        self.url = url
        self.reason = reason
        super().__init__(f"fetch failed for {url!r}" + (f": {reason}" if reason else ""))


class TransientFetchError(FetchError):
    """A fetch failure that may succeed on retry (timeout, 5xx, reset)."""


class PermanentFetchError(FetchError):
    """A fetch failure that retrying cannot fix (DNS dead, 4xx, blocked)."""


class FetchTimeoutError(TransientFetchError):
    """A fetch that exceeded its per-request time allowance."""


class CircuitOpenError(TransientFetchError):
    """Fail-fast rejection: the target's circuit breaker is open."""


class CheckpointError(ReproError):
    """Raised for unreadable or mismatched crawl checkpoints."""


class DataGenerationError(ReproError):
    """Raised when synthetic-web generation parameters are inconsistent."""


class ConfigurationError(ReproError):
    """Raised for invalid experiment or pipeline configuration."""


class GraphError(ReproError):
    """Raised for invalid graph operations (missing nodes, bad weights)."""


class ValidationError(ReproError, ValueError):
    """Raised when caller-supplied values fail validation.

    Subclasses :class:`ValueError` so call sites that predate the
    library-specific hierarchy (``except ValueError``) keep working.
    """


class MissingKeyError(ReproError, KeyError):
    """Raised for lookups of unknown keys (domains, table rows, ids).

    Subclasses :class:`KeyError` so mapping-protocol consumers (``in``
    checks via ``__getitem__``, ``dict.get``-style fallbacks) behave.
    """


class ServiceUnavailableError(ReproError):
    """Raised by the serving layer when a backend cannot take the call.

    Carries what an HTTP edge needs to answer 503 honestly: which
    backend refused (``backend``) and how long the client should wait
    before retrying (``retry_after`` seconds — the breaker cooldown, or
    a load-shedding hint).

    Attributes:
        backend: name of the refusing backend route.
        retry_after: suggested client wait in seconds.
    """

    def __init__(self, backend: str, reason: str, retry_after: float = 1.0) -> None:
        super().__init__(f"backend {backend!r} unavailable: {reason}")
        self.backend = backend
        self.retry_after = retry_after


class ContractViolationError(ReproError, AssertionError):
    """Raised by :mod:`repro.contracts` when a numeric
    contract (probability vector, row-stochastic matrix, score range)
    is violated at runtime under the checked build."""
