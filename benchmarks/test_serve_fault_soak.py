"""Serving-layer fault soak: seeded chaos in, honest statuses out.

Companion to ``test_fault_injection_soak.py`` one layer up the stack:
the same seeded :class:`~repro.web.resilience.FaultInjectingWebHost`
(40% transient failure rate plus permanently dead seeds) sits behind a
live verification service, and every response must be one of the
documented outcomes — a 2xx payload whose ``degradation_reasons``
honestly describe what was skipped, a 400 for bad input, a 429 for an
exhausted quota, or a 503 shed.  Never an unhandled 500 (the
``http_unhandled_errors_total`` counter is pinned to zero), and never
a response that outlives its deadline budget.

Runs in the CI ``fault-soak`` job.  Service-level passes use a
:class:`~repro.web.resilience.clock.VirtualClock` end to end, so the
soak is bit-deterministic; the HTTP passes run on the wall clock to
check the real transport honours budgets.  :class:`TestClosedLoopLoad`
adds concurrent clients on a healthy host: a cold then warm verdict
cache, with a throughput floor and p99 ceiling on the warm pass, and an
undersized server where 429s and 503s are expected but 500s are not.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import threading
import time

import numpy as np
import pytest

from repro.core import PharmacyVerifier
from repro.data.loaders import crawl_snapshot
from repro.data.synthesis import GeneratorConfig, SyntheticWebGenerator
from repro.serve import Authenticator, ServiceConfig, VerificationService, build_server
from repro.web.resilience import (
    FaultInjectingWebHost,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.web.resilience.clock import VirtualClock

SOAK_CONFIG = GeneratorConfig(
    n_legitimate=6,
    n_illegitimate=44,
    n_affiliate_hubs=3,
    min_pages=3,
    max_pages=8,
    min_terms_per_page=40,
    max_terms_per_page=80,
    seed=23,
)

TRANSIENT_RATE = 0.4
RETRY = RetryPolicy(max_attempts=5, seed=17)

#: Verify-call budget and the transport slack the HTTP soak allows on
#: top of it before a response counts as having outlived its deadline.
BUDGET_S = 5.0
DEADLINE_GRACE_S = 2.0

#: Closed-loop load: the soak's web with at most 6 pages per site, an
#: unlimited key and a key on a 25-requests-a-minute tier.
LOAD_CONFIG = dataclasses.replace(SOAK_CONFIG, max_pages=6)
LOAD_BUDGET_S = 10.0
LIMITED_TIER = dict(
    rate_limit=25, window_seconds=60.0, max_batch=5, request_budget=2.0, batch_budget=5.0
)
LOAD_AUTH = {
    "keys": {"bench-internal": "internal", "bench-limited": "limited"},
    "tiers": {"limited": LIMITED_TIER},
}


@pytest.fixture(scope="module")
def soak_snapshot():
    return SyntheticWebGenerator(SOAK_CONFIG).generate_snapshot()


@pytest.fixture(scope="module")
def soak_corpus(soak_snapshot):
    return crawl_snapshot(soak_snapshot)


@pytest.fixture(scope="module")
def soak_verifier(soak_corpus):
    return PharmacyVerifier().fit(soak_corpus)


def _faulty_host(snapshot, seed, dead=()):
    plan = FaultPlan.seeded(
        snapshot.host.urls(),
        seed=seed,
        transient_rate=TRANSIENT_RATE,
        max_recover_after=3,
    )
    for domain in dead:
        plan.add(f"https://www.{domain}/", FaultSpec(FaultKind.PERMANENT))
    return FaultInjectingWebHost(snapshot.host, plan)


def _soak_service(soak_verifier, soak_corpus, soak_snapshot, seed):
    """Half the corpus indexed, the rest crawled through the faults."""
    split = len(soak_corpus.sites) // 2
    dead = [site.domain for site in soak_corpus.sites[-3:]]
    service = VerificationService(
        soak_verifier,
        sites=soak_corpus.sites[:split],
        host=_faulty_host(soak_snapshot, seed, dead=dead),
        clock=VirtualClock(),
        retry_policy=RETRY,
        config=ServiceConfig(crawl_max_pages=8, crawl_fetch_budget=60),
    )
    missing = [site.domain for site in soak_corpus.sites[split:]]
    return service, missing, dead


class TestServiceSoak:
    def test_every_domain_answers_with_honest_degradation(
        self, soak_verifier, soak_corpus, soak_snapshot
    ):
        service, missing, dead = _soak_service(
            soak_verifier, soak_corpus, soak_snapshot, seed=101
        )
        for domain in missing:
            payload = service.verify_domain(domain, budget=BUDGET_S)
            assert payload["domain"] == domain
            if payload["degraded"]:
                assert payload["degradation_reasons"]
                assert payload["confidence"] < 1.0
        # Permanently dead seeds must degrade, not raise.
        for domain in dead:
            payload = service.verify_domain(domain, budget=BUDGET_S)
            assert payload["degraded"] is True
            assert "seed_unreachable" in payload["degradation_reasons"]
        assert service.backend_states()["verify"] == "closed"

    def test_soak_is_deterministic(
        self, soak_verifier, soak_corpus, soak_snapshot
    ):
        def one_pass():
            service, missing, dead = _soak_service(
                soak_verifier, soak_corpus, soak_snapshot, seed=101
            )
            return [
                (
                    p["domain"],
                    p["verdict"],
                    p["degraded"],
                    tuple(p["degradation_reasons"]),
                )
                for p in (
                    service.verify_domain(d, budget=BUDGET_S)
                    for d in missing + dead
                )
            ]

        assert one_pass() == one_pass()

    def test_budgeted_batches_always_complete(
        self, soak_verifier, soak_corpus, soak_snapshot
    ):
        service, missing, _ = _soak_service(
            soak_verifier, soak_corpus, soak_snapshot, seed=77
        )
        domains = missing[:10]
        payloads = service.verify_batch(domains, budget=BUDGET_S)
        assert [p["domain"] for p in payloads] == domains


class TestHTTPSoak:
    def test_only_documented_statuses_and_no_deadline_overruns(
        self, soak_verifier, soak_corpus, soak_snapshot
    ):
        split = len(soak_corpus.sites) // 2
        dead = ["dead-0.soak.example.com", "dead-1.soak.example.com"]
        server = build_server(
            soak_verifier,
            sites=soak_corpus.sites[:split],
            host=_faulty_host(soak_snapshot, seed=5, dead=dead),
            port=0,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.01, max_delay=0.05, seed=17
            ),
            service_config=ServiceConfig(crawl_max_pages=8, crawl_fetch_budget=40),
        )
        server.start_background()
        try:
            calls = [("POST", "/v1/verify", {"domain": s.domain})
                     for s in soak_corpus.sites[split : split + 12]]
            calls += [("POST", "/v1/verify", {"domain": d}) for d in dead]
            calls += [
                ("POST", "/v1/verify", {"domain": "not a domain!"}),  # 400
                ("POST", "/v1/verify", {"domains": []}),  # 400 (wrong field)
                ("GET", "/nope", None),  # 404
                ("GET", "/v1/review-queue?limit=5", None),
                ("GET", "/healthz", None),
            ]
            statuses = []
            for method, path, body in calls:
                started = time.monotonic()
                status, payload = _request(
                    server.port, method, path, body, {"X-Request-Budget": str(BUDGET_S)}
                )
                elapsed = time.monotonic() - started
                statuses.append(status)
                assert status in (200, 400, 404, 429, 503), (path, payload)
                assert elapsed <= BUDGET_S + DEADLINE_GRACE_S, path
                if status == 200 and path == "/v1/verify" and payload["degraded"]:
                    assert payload["degradation_reasons"]
            assert statuses.count(200) >= len(calls) - 4
            assert (
                server.metrics.counter_value("http_unhandled_errors_total") == 0.0
            )
        finally:
            server.drain(timeout=30.0)



def _request(port, method, path, body, headers):
    """One call on a fresh connection: (status, parsed JSON or raw body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        if body is not None:
            body = json.dumps(body)
            headers = dict(headers, **{"Content-Type": "application/json"})
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        parsed = json.loads(raw) if raw.strip().startswith(b"{") else raw
        return response.status, parsed
    finally:
        conn.close()


def _load_schedule(seed, domains):
    """80 seeded (path, body, budget) calls over ``domains``: every 10th a
    3-domain batch, calls 13 mod 25 the review queue, the rest one verify."""
    rng = random.Random(seed)
    calls = []
    for i in range(80):
        if i % 10 == 9:
            batch = {"domains": [rng.choice(domains) for _ in range(3)]}
            calls.append(("/v1/verify/batch", batch, LOAD_BUDGET_S))
        elif i % 25 == 13:
            calls.append(("/v1/review-queue?limit=5", None, None))
        else:
            rng.random()  # a mixed schedule's pool pick (one pool here): same calls per seed
            calls.append(("/v1/verify", {"domain": rng.choice(domains)}, LOAD_BUDGET_S))
    return calls


def _closed_loop(server, calls, key, clients):
    """Run ``calls`` on ``clients`` threads, each sending its next call
    when the last answer lands; return (latencies, wall seconds).

    Every call is answered, none with a 500 or past budget + grace, and
    the server counts no unhandled error.
    """
    done = [[] for _ in range(clients)]

    def client(i):
        for path, body, budget in calls[i::clients]:
            headers = {"X-API-Key": key}
            if budget is not None:
                headers["X-Request-Budget"] = f"{budget:g}"
            started = time.monotonic()
            method = "GET" if body is None else "POST"
            status, _ = _request(server.port, method, path, body, headers)
            done[i].append((status, time.monotonic() - started, budget))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - started
    results = [result for per_client in done for result in per_client]
    assert len(results) == len(calls)
    assert 500 not in {status for status, _, _ in results}
    assert server.metrics.counter_value("http_unhandled_errors_total") == 0.0
    late = [(t, b) for _, t, b in results if b is not None and t > b + DEADLINE_GRACE_S]
    assert not late, f"{len(late)} responses past budget + {DEADLINE_GRACE_S}s"
    return [latency for _, latency, _ in results], wall


class TestClosedLoopLoad:
    @pytest.fixture(scope="class")
    def load_corpus(self):
        return crawl_snapshot(SyntheticWebGenerator(LOAD_CONFIG).generate_snapshot())

    @pytest.fixture(scope="class")
    def load_verifier(self, load_corpus):
        return PharmacyVerifier().fit(load_corpus)

    def _server(self, verifier, sites, **kwargs):
        auth = Authenticator.from_config(LOAD_AUTH)
        server = build_server(verifier, sites=sites, port=0, authenticator=auth, **kwargs)
        server.start_background()
        return server

    def test_warm_cache_throughput_and_p99(self, load_verifier, load_corpus, tmp_path):
        sites = load_corpus.sites
        calls = _load_schedule(1319, [site.domain for site in sites])
        server = self._server(load_verifier, sites, cache_dir=str(tmp_path / "verdicts"))
        try:
            _closed_loop(server, calls, "bench-internal", clients=4)  # cold cache
            latencies, wall = _closed_loop(server, calls, "bench-internal", clients=4)
        finally:
            server.drain(timeout=30.0)
        assert len(latencies) / wall >= 25.0
        assert np.quantile(latencies, 0.99) <= 2.0

    def test_overload_sheds_and_rate_limits_without_errors(self, load_verifier, load_corpus):
        sites = load_corpus.sites
        indexed = [site.domain for site in sites[: 3 * len(sites) // 4]]
        server = self._server(load_verifier, sites, jobs=2, max_queue=2, admission_timeout=0.02)
        try:
            _closed_loop(server, _load_schedule(1321, indexed), "bench-limited", clients=8)
        finally:
            server.drain(timeout=30.0)
