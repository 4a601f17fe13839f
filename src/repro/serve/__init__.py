"""Verification-as-a-service: the overload-robust serving layer.

Wraps the trained :class:`~repro.core.verifier.PharmacyVerifier` in a
long-running HTTP service with the full overload toolkit — per-key
tiered auth, sliding-window rate limiting, bulkhead admission control
with immediate load shedding, request deadlines propagated into
verification, per-backend circuit breaking, and graceful drain::

    from repro.serve import build_server

    server = build_server(verifier, sites=corpus.sites, port=8470)
    server.start_background()
    ...
    server.drain()

See ``docs/api.md`` (Serve section) for the endpoint and semantics
reference, and ``benchmarks/test_serve_fault_soak.py`` for the fault
soak and closed-loop load passes that gate this layer in CI.
"""

from repro.serve.admission import AdmissionStats, Bulkhead, Deadline
from repro.serve.app import build_server
from repro.serve.auth import DEFAULT_TIERS, AuthResult, Authenticator, Tier
from repro.serve.http import VerificationHTTPServer, VerificationRequestHandler
from repro.serve.metrics import MetricsRegistry
from repro.serve.ratelimit import RateLimitDecision, SlidingWindowRateLimiter
from repro.serve.service import ServiceConfig, SiteIndex, VerificationService

__all__ = [
    "AdmissionStats",
    "AuthResult",
    "Authenticator",
    "Bulkhead",
    "DEFAULT_TIERS",
    "Deadline",
    "MetricsRegistry",
    "RateLimitDecision",
    "ServiceConfig",
    "SiteIndex",
    "SlidingWindowRateLimiter",
    "Tier",
    "VerificationHTTPServer",
    "VerificationRequestHandler",
    "VerificationService",
    "build_server",
]
