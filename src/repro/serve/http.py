"""The HTTP edge: stdlib threading server, routes, and graceful drain.

Dependency-light by design (``http.server`` + ``socketserver``
threading mix-in, matching the repo's no-framework style), the edge
does exactly the overload choreography and nothing else:

1. **route** — unknown paths 404 before any work;
2. **drain guard** — a draining server answers 503 + ``Connection:
   close`` instead of taking new work;
3. **auth** — ``X-API-Key`` → tier via the
   :class:`~repro.serve.auth.Authenticator`; unknown keys 401;
4. **rate limit** — sliding-window check per principal;
   ``X-RateLimit-*`` headers on every response, 429 + ``Retry-After``
   on denial;
5. **admission** — the :class:`~repro.serve.admission.Bulkhead`
   bounds concurrent verification and its wait queue; saturated
   servers shed with 503 + ``Retry-After`` immediately;
6. **deadline** — the tier budget (capped lower by an optional
   ``X-Request-Budget`` header) becomes the request deadline threaded
   through crawl and verification;
7. **dispatch** — service errors map to honest statuses
   (:class:`~repro.exceptions.ValidationError` 400,
   :class:`~repro.exceptions.MissingKeyError` 404,
   :class:`~repro.exceptions.ServiceUnavailableError` 503); anything
   else is a counted 500 — the fault-soak gate asserts that counter
   stays at zero.

Routes: ``POST /v1/verify``, ``POST /v1/verify/batch``,
``GET /v1/review-queue``, ``GET /healthz``, ``GET /metrics``.

Connections are keep-alive on a ``TCP_NODELAY`` socket; each response
is one socket write. A rejected, unread body closes the connection.

Graceful drain (:meth:`VerificationHTTPServer.drain`): stop accepting,
finish in-flight requests, flush metrics, close the socket.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping

from repro.exceptions import (
    MissingKeyError,
    ServiceUnavailableError,
    ValidationError,
)
from repro.serve.admission import Bulkhead
from repro.serve.auth import Authenticator, AuthResult
from repro.serve.metrics import MetricsRegistry
from repro.serve.ratelimit import SlidingWindowRateLimiter
from repro.serve.service import VerificationService
from repro.web.resilience.clock import SystemClock

logger = logging.getLogger(__name__)

__all__ = ["VerificationHTTPServer", "VerificationRequestHandler"]

#: Largest accepted request body in bytes.
MAX_BODY_BYTES = 1_048_576

#: Seconds a shed request should wait before retrying.
SHED_RETRY_AFTER = 1

#: Poll interval, in seconds, of the :meth:`start_background` serve
#: loop.  :meth:`VerificationHTTPServer.drain`'s ``shutdown()`` waits
#: for the loop's next poll, which at the stdlib default of 0.5 s made
#: every drain take about half a second.
BACKGROUND_POLL_INTERVAL = 0.05


class VerificationHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server wired to one :class:`VerificationService`.

    Args:
        address: ``(host, port)`` to bind (port 0 picks a free port).
        service: the application object requests dispatch into.
        authenticator: key→tier resolver (default: built-in tiers with
            anonymous access).
        limiter: sliding-window rate limiter (default: one on the
            wall clock).
        bulkhead: admission bulkhead (default: 8 concurrent, 16
            queued).
        metrics: metrics sink (default: the service's own registry).
        admission_timeout: seconds a request may wait in the bulkhead
            queue before being shed.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        service: VerificationService,
        authenticator: Authenticator | None = None,
        limiter: SlidingWindowRateLimiter | None = None,
        bulkhead: Bulkhead | None = None,
        metrics: MetricsRegistry | None = None,
        admission_timeout: float = 0.5,
    ) -> None:
        super().__init__(address, VerificationRequestHandler)
        self.service = service
        self.authenticator = (
            authenticator if authenticator is not None else Authenticator()
        )
        self.limiter = (
            limiter
            if limiter is not None
            else SlidingWindowRateLimiter(clock=SystemClock())
        )
        self.bulkhead = bulkhead if bulkhead is not None else Bulkhead()
        self.metrics = metrics if metrics is not None else service.metrics
        self.admission_timeout = admission_timeout
        self.draining = False
        self._serve_thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return int(self.server_address[1])

    def start_background(self) -> threading.Thread:
        """Run :meth:`serve_forever` in a daemon thread and return it."""
        thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": BACKGROUND_POLL_INTERVAL},
            name="repro-serve",
            daemon=True,
        )
        thread.start()
        self._serve_thread = thread
        return thread

    def drain(self, timeout: float = 10.0) -> bool:
        """Gracefully stop: no new work, finish in-flight, close.

        Idempotent.  New requests arriving mid-drain get 503 +
        ``Connection: close``; requests already admitted run to
        completion (up to ``timeout`` seconds).  A final metrics
        snapshot is the caller's move — ``server.metrics.flush(path)``
        after this returns — so the operator-chosen path never mixes
        with request-derived state.

        Returns:
            ``True`` when every in-flight request finished in time.
        """
        self.draining = True
        self.shutdown()  # stop accepting; returns after the serve loop exits
        drained = self.bulkhead.drain(timeout)
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=timeout)
        self.server_close()
        if not drained:
            logger.warning("drain timed out with requests still in flight")
        return drained


class VerificationRequestHandler(BaseHTTPRequestHandler):
    """Route one HTTP request through the overload pipeline."""

    server: VerificationHTTPServer  # narrowed for type checkers
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: Socket inactivity timeout — a wedged client cannot pin a thread.
    timeout = 30.0
    #: Responses are one write each (:meth:`_send`); Nagle would only
    #: hold them for the client's delayed ACK.
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        """Route BaseHTTPRequestHandler chatter to logging, not stderr."""
        logger.debug("%s %s", self.address_string(), format % args)

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        """Dispatch GET routes."""
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler contract)
        """Dispatch POST routes."""
        self._dispatch("POST")

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """Stdlib rejections before routing (bad request line, oversized
        headers, unknown method): a JSON error in one write, then close."""
        self.log_error("code %d, message %s", code, message)
        self._send_error(int(code), message or self.responses[code][0], close=True)

    # -- pipeline -----------------------------------------------------------

    #: The route of the dispatched request until :meth:`_count` counts
    #: it; ``None`` outside :meth:`_dispatch`, so stdlib rejections
    #: stay uncounted.
    _uncounted_route: str | None = None

    def _dispatch(self, method: str) -> None:
        """The request pipeline: route, drain, auth, limit, admit, run."""
        started = self.server.service.clock.monotonic()
        route = self.path.split("?", 1)[0]
        self._uncounted_route = route
        try:
            self._run_pipeline(method, route)
        finally:
            # A no-op unless the pipeline raised before responding.
            self._count(500)
            elapsed = self.server.service.clock.monotonic() - started
            self.server.metrics.observe_latency(route, max(0.0, elapsed))

    def _count(self, status: int) -> None:
        """Count the dispatched request once, under its first status."""
        route, self._uncounted_route = self._uncounted_route, None
        if route is not None:
            self.server.metrics.increment(
                "http_requests_total", route=route, status=str(status)
            )

    def _run_pipeline(self, method: str, route: str) -> int:
        handler = self._ROUTES.get((method, route))
        if handler is None:
            if route in self._KNOWN_ROUTES:
                return self._send_error(405, "method not allowed")
            return self._send_error(404, f"no such route: {route}")
        if route in ("/healthz", "/metrics"):
            # Health and metrics stay reachable while draining or
            # rate-limited — they are how operators see the overload.
            return handler(self, None)

        if self.server.draining:
            return self._send_error(
                503, "draining", headers={"Retry-After": str(SHED_RETRY_AFTER)},
                close=True,
            )
        auth = self.server.authenticator.resolve(
            self.headers.get("X-API-Key"), client_id=self.client_address[0]
        )
        if auth is None:
            return self._send_error(401, "invalid or missing API key")
        decision = self.server.limiter.admit(
            auth.principal, auth.tier.rate_limit, auth.tier.window_seconds
        )
        if not decision.allowed:
            self.server.metrics.increment("http_rate_limited_total")
            return self._send_error(
                429, "rate limit exceeded", headers=decision.headers()
            )
        if not self.server.bulkhead.try_acquire(self.server.admission_timeout):
            self.server.metrics.increment("http_shed_total")
            return self._send_error(
                503,
                "server saturated",
                headers={"Retry-After": str(SHED_RETRY_AFTER), **decision.headers()},
            )
        try:
            return handler(self, auth, extra_headers=decision.headers())
        finally:
            self.server.bulkhead.release()

    # -- routes -------------------------------------------------------------

    def _route_healthz(
        self, auth: AuthResult | None, extra_headers: Mapping[str, str] | None = None
    ) -> int:
        payload = self.server.service.health()
        if self.server.draining:
            payload = {**payload, "status": "draining"}
        return self._send_json(200, payload)

    def _route_metrics(
        self, auth: AuthResult | None, extra_headers: Mapping[str, str] | None = None
    ) -> int:
        if "format=json" in (self.path.split("?", 1) + [""])[1]:
            return self._send_json(200, self.server.metrics.snapshot())
        body = self.server.metrics.render_text().encode("utf-8")
        return self._send(200, body, "text/plain; version=0.0.4")

    def _route_review_queue(
        self, auth: AuthResult | None, extra_headers: Mapping[str, str] | None = None
    ) -> int:
        query = (self.path.split("?", 1) + [""])[1]
        limit: int | None = None
        for part in query.split("&"):
            if part.startswith("limit="):
                try:
                    limit = int(part.removeprefix("limit="))
                except ValueError:
                    return self._send_error(
                        400, "limit must be an integer", headers=extra_headers
                    )
        return self._guarded(
            lambda: self.server.service.review_queue(limit=limit), extra_headers
        )

    def _route_verify(
        self, auth: AuthResult | None, extra_headers: Mapping[str, str] | None = None
    ) -> int:
        assert auth is not None
        body = self._read_json(extra_headers)
        if isinstance(body, int):
            return body
        domain = body.get("domain")
        budget = self._budget(auth, auth.tier.request_budget)
        return self._guarded(
            lambda: self.server.service.verify_domain(domain, budget=budget),
            extra_headers,
        )

    def _route_verify_batch(
        self, auth: AuthResult | None, extra_headers: Mapping[str, str] | None = None
    ) -> int:
        assert auth is not None
        body = self._read_json(extra_headers)
        if isinstance(body, int):
            return body
        domains = body.get("domains")
        if not isinstance(domains, list):
            return self._send_error(
                400, "'domains' must be a list", headers=extra_headers
            )
        if len(domains) > auth.tier.max_batch:
            return self._send_error(
                400,
                f"batch of {len(domains)} exceeds tier "
                f"{auth.tier.name!r} max of {auth.tier.max_batch}",
                headers=extra_headers,
            )
        budget = self._budget(auth, auth.tier.batch_budget)
        return self._guarded(
            lambda: {
                "results": self.server.service.verify_batch(domains, budget=budget),
                "budget_seconds": budget,
            },
            extra_headers,
        )

    #: ``(method, route)`` -> route handler, built once with the class.
    _ROUTES = {
        ("GET", "/healthz"): _route_healthz,
        ("GET", "/metrics"): _route_metrics,
        ("GET", "/v1/review-queue"): _route_review_queue,
        ("POST", "/v1/verify"): _route_verify,
        ("POST", "/v1/verify/batch"): _route_verify_batch,
    }
    _KNOWN_ROUTES = frozenset(route for _, route in _ROUTES)

    # -- helpers ------------------------------------------------------------

    def _budget(self, auth: AuthResult, tier_budget: float) -> float:
        """The request budget: the tier default, capped lower by header."""
        header = self.headers.get("X-Request-Budget")
        if header is None:
            return tier_budget
        try:
            requested = float(header)
        except ValueError:
            return tier_budget
        if requested <= 0:
            return tier_budget
        return min(requested, tier_budget)

    def _guarded(
        self,
        run: Any,
        extra_headers: Mapping[str, str] | None,
    ) -> int:
        """Run a service call, mapping errors to honest statuses."""
        try:
            payload = run()
        except ValidationError as exc:
            return self._send_error(400, str(exc), headers=extra_headers)
        except MissingKeyError as exc:
            message = str(exc).strip("'\"")
            return self._send_error(404, message, headers=extra_headers)
        except ServiceUnavailableError as exc:
            headers = dict(extra_headers or {})
            headers["Retry-After"] = str(max(1, round(exc.retry_after)))
            return self._send_error(503, str(exc), headers=headers)
        except Exception:  # repro-lint: disable=R008
            # Last-resort boundary: a bug must surface as a counted 500
            # response (the soak gate pins this counter to zero), never
            # as a dropped connection.
            logger.exception("unhandled error on %s", self.path)
            self.server.metrics.increment("http_unhandled_errors_total")
            return self._send_error(500, "internal error", headers=extra_headers)
        return self._send_json(200, payload, headers=extra_headers)

    def _read_json(self, extra_headers: Mapping[str, str] | None) -> dict[str, Any] | int:
        """The body as a JSON object, or the status of the 400 sent instead.

        A body rejected by its ``Content-Length`` stays unread and would
        parse as the next request, so that 400 closes the connection.
        """
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            return self._send_error(
                400, "invalid JSON body", headers=extra_headers, close=True
            )
        try:
            raw = self.rfile.read(length)
            parsed = json.loads(raw.decode("utf-8")) if length else {}
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            parsed = None
        if not isinstance(parsed, dict):
            return self._send_error(400, "invalid JSON body", headers=extra_headers)
        return parsed

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Mapping[str, str] | None = None,
        close: bool = False,
    ) -> int:
        """Send status line, headers and body in one socket write.

        Every response leaves here; ``end_headers`` would send the
        header block alone, splitting a response into two sends.
        """
        self.log_request(status)
        lines = [
            f"{self.protocol_version} {status} {self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            *(f"{name}: {value}" for name, value in (headers or {}).items()),
        ]
        if close:
            lines.append("Connection: close")
            self.close_connection = True
        # Counted before the write: a client that has read the response
        # can already see it in ``/metrics``.
        self._count(status)
        self.wfile.write("\r\n".join([*lines, "", ""]).encode("latin-1") + body)
        self.wfile.flush()
        return status

    def _send_json(
        self,
        status: int,
        payload: Mapping[str, object] | dict[str, object],
        headers: Mapping[str, str] | None = None,
        close: bool = False,
    ) -> int:
        body = json.dumps(payload).encode("utf-8")
        return self._send(status, body, "application/json", headers, close)

    def _send_error(
        self,
        status: int,
        message: str,
        headers: Mapping[str, str] | None = None,
        close: bool = False,
    ) -> int:
        return self._send_json(
            status, {"error": message, "status": status}, headers=headers, close=close
        )
