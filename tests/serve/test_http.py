"""Socket-level tests of the HTTP edge: connections, auth, limits,
shedding, drain.

Real sockets on ephemeral ports, virtual time everywhere else: the
rate limiter and service share one ``VirtualClock``, so quota windows
never slide mid-test and latency math is deterministic.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import socket

import pytest

from repro.serve import (
    DEFAULT_TIERS,
    Authenticator,
    Tier,
    build_server,
)
from repro.serve.http import VerificationRequestHandler
from repro.web.resilience.clock import VirtualClock

#: A tier small enough to exhaust in three requests.
TINY_TIER = Tier(
    name="tiny",
    rate_limit=2,
    window_seconds=60.0,
    max_batch=3,
    request_budget=2.0,
    batch_budget=5.0,
)

KEYS = {"test-internal-key": "internal", "test-tiny-key": "tiny"}


def request(
    port,
    method,
    path,
    body=None,
    key="test-internal-key",
    headers=None,
):
    """One HTTP round trip; returns (status, headers dict, json body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        all_headers = dict(headers or {})
        if key is not None:
            all_headers["X-API-Key"] = key
        payload = json.dumps(body) if body is not None else None
        if payload is not None:
            all_headers["Content-Type"] = "application/json"
        conn.request(method, path, body=payload, headers=all_headers)
        response = conn.getresponse()
        raw = response.read()
        parsed = json.loads(raw) if raw and raw.strip().startswith(b"{") else raw
        return response.status, dict(response.getheaders()), parsed
    finally:
        conn.close()


@pytest.fixture()
def server(fitted_verifier, tiny_corpus, tiny_host):
    instance = build_server(
        fitted_verifier,
        sites=tiny_corpus.sites,
        host=tiny_host,
        port=0,
        authenticator=Authenticator(
            keys=KEYS, tiers={**DEFAULT_TIERS, "tiny": TINY_TIER}
        ),
        jobs=4,
        max_queue=4,
        clock=VirtualClock(),
    )
    instance.start_background()
    yield instance
    instance.drain(timeout=10.0)


class _CountingWriter:
    """A socket writer that records every write before passing it on,
    calling ``on_write`` (if given) just before each one."""

    def __init__(self, inner, writes, on_write=None):
        self._inner = inner
        self._writes = writes
        self._on_write = on_write

    def write(self, data):
        self._writes.append(bytes(data))
        if self._on_write is not None:
            self._on_write()
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture()
def recorder(server):
    """The server's handler, recording each accepted socket's
    ``TCP_NODELAY`` option and every write that reaches a socket."""

    class RecordingHandler(VerificationRequestHandler):
        nodelay: list[int] = []
        writes: list[bytes] = []

        def setup(self):
            super().setup()
            self.nodelay.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            self.wfile = _CountingWriter(self.wfile, self.writes)

    server.RequestHandlerClass = RecordingHandler
    return RecordingHandler


@contextlib.contextmanager
def raw_connection(port):
    """A plain client socket and a buffered reader over it."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        with sock.makefile("rb") as reader:
            yield sock, reader


def read_response(reader):
    """One HTTP response off ``reader``: (status, lowercased headers, body)."""
    status = int(reader.readline().split()[1])
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, reader.read(int(headers.get("content-length", "0")))


def read_until_closed(reader):
    """Everything the server sends before it closes the connection."""
    try:
        return reader.read()
    except ConnectionResetError:
        # Closing with the unread body still queued resets the socket.
        return b""


def post_bytes(path, body, length=None):
    """A raw ``POST`` request with an explicit ``Content-Length``."""
    length = len(body) if length is None else length
    return (
        f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"X-API-Key: test-internal-key\r\nContent-Type: application/json\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode("latin-1") + body


class TestRouting:
    def test_healthz(self, server):
        status, _, payload = request(server.port, "GET", "/healthz", key=None)
        assert status == 200
        assert payload["status"] == "ok"

    def test_unknown_route_404(self, server):
        status, _, payload = request(server.port, "GET", "/nope")
        assert status == 404
        assert "no such route" in payload["error"]

    def test_wrong_method_405(self, server):
        status, _, _ = request(server.port, "GET", "/v1/verify")
        assert status == 405

    def test_metrics_text_and_json(self, server):
        request(server.port, "GET", "/healthz", key=None)
        status, headers, body = request(server.port, "GET", "/metrics", key=None)
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"http_requests_total" in body
        status, _, payload = request(
            server.port, "GET", "/metrics?format=json", key=None
        )
        assert status == 200
        assert "counters" in payload and "latency" in payload

    @pytest.mark.parametrize(
        "method, path, body, status",
        [
            ("GET", "/healthz", None, 200),
            ("GET", "/nope", None, 404),
            ("POST", "/v1/verify", {"domain": ""}, 400),
        ],
    )
    def test_request_is_counted_before_its_response_is_written(
        self, server, method, path, body, status
    ):
        # A client that has read a response must find it in /metrics.
        counted_at_write = []

        def read_counter():
            counted_at_write.append(
                server.metrics.counter_value(
                    "http_requests_total", route=path, status=str(status)
                )
            )

        class Handler(VerificationRequestHandler):
            def setup(self):
                super().setup()
                self.wfile = _CountingWriter(self.wfile, [], read_counter)

        server.RequestHandlerClass = Handler
        assert request(server.port, method, path, body=body)[0] == status
        assert counted_at_write == [1.0]

    def test_stdlib_rejection_is_not_counted(self, server):
        with raw_connection(server.port) as (sock, reader):
            sock.sendall(b"GET /a b HTTP/1.1\r\n")
            assert read_response(reader)[0] == 400
            assert read_until_closed(reader) == b""
        assert not [
            entry
            for entry in server.metrics.snapshot()["counters"]
            if entry["name"] == "http_requests_total"
        ]

    def test_route_that_raises_counts_as_500(self, server, monkeypatch):
        def broken_health():
            raise RuntimeError("health probe failed")

        monkeypatch.setattr(server.service, "health", broken_health)
        with pytest.raises((http.client.HTTPException, ConnectionError)):
            request(server.port, "GET", "/healthz", key=None)
        assert server.metrics.counter_value(
            "http_requests_total", route="/healthz", status="500"
        ) == 1.0


class TestConnections:
    """The keep-alive contract, pinned without timing thresholds."""

    def test_accepted_socket_has_tcp_nodelay(self, server, recorder):
        assert request(server.port, "GET", "/healthz", key=None)[0] == 200
        assert len(recorder.nodelay) == 1
        assert recorder.nodelay[0] != 0

    @pytest.mark.parametrize(
        "method, path, domain, status",
        [
            ("POST", "/v1/verify", 0, 200),
            ("GET", "/nope", None, 404),
            ("POST", "/v1/verify", "not a domain!", 400),
            ("GET", "/metrics", None, 200),
        ],
        ids=["verdict-json", "send-error-404", "guarded-400", "metrics-text"],
    )
    def test_each_response_is_one_socket_write(
        self, server, recorder, tiny_corpus, method, path, domain, status
    ):
        if isinstance(domain, int):
            domain = tiny_corpus.sites[domain].domain
        body = None if domain is None else {"domain": domain}
        got, _, payload = request(server.port, method, path, body=body)
        assert got == status
        assert len(recorder.writes) == 1
        (written,) = recorder.writes
        assert written.startswith(f"HTTP/1.1 {status} ".encode())
        raw = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        assert written.endswith(raw)

    def test_malformed_request_line_is_one_write_then_close(self, server, recorder):
        with raw_connection(server.port) as (sock, reader):
            sock.sendall(b"GET /a b HTTP/1.1\r\n")
            status, headers, body = read_response(reader)
            assert status == 400
            assert headers["connection"] == "close"
            assert b"Bad request syntax" in body
            assert read_until_closed(reader) == b""
        assert len(recorder.writes) == 1
        assert recorder.writes[0].startswith(b"HTTP/1.1 400 ")

    def test_expect_100_continue_answered_before_body(self, server, tiny_corpus):
        body = json.dumps({"domain": tiny_corpus.sites[0].domain}).encode()
        head = post_bytes("/v1/verify", b"", length=len(body))
        with raw_connection(server.port) as (sock, reader):
            sock.sendall(head.replace(b"\r\n\r\n", b"\r\nExpect: 100-continue\r\n\r\n"))
            assert read_response(reader) == (100, {}, b"")
            sock.sendall(body)
            status, _, payload = read_response(reader)
        assert status == 200
        assert json.loads(payload)["domain"] == tiny_corpus.sites[0].domain

    def test_fifty_requests_on_one_connection_match_in_process_verdicts(
        self, server, recorder, fitted_verifier, tiny_corpus
    ):
        sites = [tiny_corpus.sites[i % len(tiny_corpus.sites)] for i in range(50)]
        expected = {
            report.domain: "legitimate" if report.is_legitimate else "illegitimate"
            for report in fitted_verifier.verify_sites(sites)
        }
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            for site in sites:
                conn.request(
                    "POST", "/v1/verify",
                    body=json.dumps({"domain": site.domain}),
                    headers={"X-API-Key": "test-internal-key"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status == 200
                assert payload["verdict"] == expected[site.domain]
        finally:
            conn.close()
        assert len(recorder.nodelay) == 1  # one accepted socket for all 50

    def test_rejected_unread_body_closes_connection(self, server, tiny_corpus):
        # The oversized first request's "body" is a second complete
        # request; left unread, it must never be answered.
        smuggled = post_bytes(
            "/v1/verify",
            json.dumps({"domain": tiny_corpus.sites[0].domain}).encode(),
        )
        with raw_connection(server.port) as (sock, reader):
            sock.sendall(post_bytes("/v1/verify", smuggled, length=2_000_000))
            status, headers, _ = read_response(reader)
            assert status == 400
            assert headers["connection"] == "close"
            assert read_until_closed(reader) == b""


class TestAuth:
    def test_unknown_key_401(self, server):
        status, _, payload = request(
            server.port, "POST", "/v1/verify",
            body={"domain": "x.com"}, key="wrong-key",
        )
        assert status == 401
        assert "API key" in payload["error"]

    def test_anonymous_allowed_by_default(self, server, tiny_corpus):
        status, _, payload = request(
            server.port, "POST", "/v1/verify",
            body={"domain": tiny_corpus.sites[0].domain}, key=None,
        )
        assert status == 200
        assert payload["domain"] == tiny_corpus.sites[0].domain


class TestVerifyRoutes:
    def test_verify_roundtrip(self, server, tiny_corpus):
        domain = tiny_corpus.sites[0].domain
        status, headers, payload = request(
            server.port, "POST", "/v1/verify", body={"domain": domain}
        )
        assert status == 200
        assert payload["verdict"] in ("legitimate", "illegitimate")
        assert "X-RateLimit-Limit" in headers
        assert "X-RateLimit-Remaining" in headers

    def test_batch_roundtrip_reports_budget(self, server, tiny_corpus):
        domains = [s.domain for s in tiny_corpus.sites[:4]]
        status, _, payload = request(
            server.port, "POST", "/v1/verify/batch", body={"domains": domains}
        )
        assert status == 200
        assert [r["domain"] for r in payload["results"]] == domains
        assert payload["budget_seconds"] == pytest.approx(
            DEFAULT_TIERS["internal"].batch_budget
        )

    def test_budget_header_caps_but_never_raises_budget(self, server, tiny_corpus):
        domain = tiny_corpus.sites[0].domain
        status, _, payload = request(
            server.port, "POST", "/v1/verify/batch",
            body={"domains": [domain]},
            headers={"X-Request-Budget": "0.5"},
        )
        assert status == 200
        assert payload["budget_seconds"] == pytest.approx(0.5)
        status, _, payload = request(
            server.port, "POST", "/v1/verify/batch",
            body={"domains": [domain]},
            headers={"X-Request-Budget": "9999"},
        )
        assert payload["budget_seconds"] == pytest.approx(
            DEFAULT_TIERS["internal"].batch_budget
        )

    def test_invalid_json_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request(
                "POST", "/v1/verify", body="{not json",
                headers={"X-API-Key": "test-internal-key"},
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_bad_domain_400(self, server):
        status, _, payload = request(
            server.port, "POST", "/v1/verify", body={"domain": "not a domain!"}
        )
        assert status == 400
        assert "registrable domain" in payload["error"]

    def test_batch_over_tier_limit_400(self, server):
        status, _, payload = request(
            server.port, "POST", "/v1/verify/batch",
            body={"domains": ["a.com", "b.com", "c.com", "d.com"]},
            key="test-tiny-key",
        )
        assert status == 400
        assert "max of 3" in payload["error"]

    def test_batch_domains_must_be_list(self, server):
        status, _, _ = request(
            server.port, "POST", "/v1/verify/batch", body={"domains": "a.com"}
        )
        assert status == 400

    def test_unknown_domain_degrades_not_500(self, server):
        status, _, payload = request(
            server.port, "POST", "/v1/verify",
            body={"domain": "unknown-pharmacy.example.com"},
        )
        assert status == 200
        assert payload["degraded"] is True
        assert "seed_unreachable" in payload["degradation_reasons"]


class TestRateLimit:
    def test_429_with_headers_after_quota(self, server, tiny_corpus):
        domain = tiny_corpus.sites[0].domain
        for _ in range(TINY_TIER.rate_limit):
            status, _, _ = request(
                server.port, "POST", "/v1/verify",
                body={"domain": domain}, key="test-tiny-key",
            )
            assert status == 200
        status, headers, payload = request(
            server.port, "POST", "/v1/verify",
            body={"domain": domain}, key="test-tiny-key",
        )
        assert status == 429
        assert headers["X-RateLimit-Remaining"] == "0"
        assert int(headers["Retry-After"]) >= 1
        assert "rate limit" in payload["error"]
        # Health stays reachable for the throttled client.
        assert request(server.port, "GET", "/healthz", key=None)[0] == 200

    def test_429_does_not_consume_other_principals(self, server, tiny_corpus):
        domain = tiny_corpus.sites[0].domain
        for _ in range(TINY_TIER.rate_limit + 1):
            request(
                server.port, "POST", "/v1/verify",
                body={"domain": domain}, key="test-tiny-key",
            )
        status, _, _ = request(
            server.port, "POST", "/v1/verify", body={"domain": domain}
        )
        assert status == 200


class TestOverload:
    def test_saturated_bulkhead_sheds_503(self, server, tiny_corpus):
        # Fill the bulkhead from outside so the next request sheds
        # without racing a real slow backend.
        claimed = 0
        while server.bulkhead.try_acquire():
            claimed += 1
        server.admission_timeout = 0.0
        try:
            status, headers, payload = request(
                server.port, "POST", "/v1/verify",
                body={"domain": tiny_corpus.sites[0].domain},
            )
        finally:
            for _ in range(claimed):
                server.bulkhead.release()
        assert status == 503
        assert headers["Retry-After"] == "1"
        assert "saturated" in payload["error"]
        assert server.metrics.counter_value("http_shed_total") == 1.0

    def test_metrics_count_requests_by_status(self, server, tiny_corpus):
        request(
            server.port, "POST", "/v1/verify",
            body={"domain": tiny_corpus.sites[0].domain},
        )
        # Counted before the response bytes, so no poll is needed.
        assert server.metrics.counter_value(
            "http_requests_total", route="/v1/verify", status="200"
        ) == 1.0


class TestDrain:
    def test_draining_rejects_then_drain_completes(
        self, fitted_verifier, tiny_corpus
    ):
        server = build_server(
            fitted_verifier,
            sites=tiny_corpus.sites,
            port=0,
            clock=VirtualClock(),
        )
        server.start_background()
        try:
            server.draining = True
            status, headers, payload = request(
                server.port, "POST", "/v1/verify",
                body={"domain": tiny_corpus.sites[0].domain}, key=None,
            )
            assert status == 503
            assert payload["error"] == "draining"
            assert headers["Retry-After"] == "1"
            # Health reports the drain instead of refusing.
            status, _, health = request(server.port, "GET", "/healthz", key=None)
            assert status == 200
            assert health["status"] == "draining"
        finally:
            assert server.drain(timeout=10.0) is True

    def test_drain_is_idempotent(self, fitted_verifier, tiny_corpus):
        server = build_server(
            fitted_verifier, sites=tiny_corpus.sites, port=0, clock=VirtualClock()
        )
        server.start_background()
        assert server.drain(timeout=10.0) is True
        assert server.drain(timeout=10.0) is True
