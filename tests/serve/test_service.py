"""VerificationService: deadlines, breakers, caching, review feed."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import PharmacyVerifier
from repro.exceptions import (
    MissingKeyError,
    ServiceUnavailableError,
    ValidationError,
)
from repro.io import load_model, save_model
from repro.perf import FeatureCache
from repro.serve import ServiceConfig, VerificationService
from repro.web.resilience.clock import VirtualClock


class PoisonedVerifier:
    """A backend whose scoring path always blows up."""

    is_fitted = True

    def verify_sites(self, *args, **kwargs):
        raise RuntimeError("model weights corrupted")


@pytest.fixture()
def service(fitted_verifier, tiny_corpus, tiny_host):
    return VerificationService(
        fitted_verifier,
        sites=tiny_corpus.sites,
        host=tiny_host,
        clock=VirtualClock(),
    )


class TestValidation:
    def test_needs_fitted_verifier(self):
        with pytest.raises(ValidationError):
            VerificationService(PharmacyVerifier())

    def test_empty_batch(self, service):
        with pytest.raises(ValidationError):
            service.verify_batch([])

    @pytest.mark.parametrize(
        "bad",
        [
            123,
            "",
            "no-dots",
            "has space.com",
            "a/b.com",
            "http://x.com",
            "x.com/path",
            "-leading.com",
            "a." * 200 + "com",
        ],
    )
    def test_bad_domains(self, service, bad):
        with pytest.raises(ValidationError):
            service.verify_domain(bad)

    def test_domain_is_normalized(self, service, tiny_corpus):
        domain = tiny_corpus.sites[0].domain
        payload = service.verify_domain(f"  {domain.upper()}  ")
        assert payload["domain"] == domain


class TestVerify:
    def test_known_domain_payload_shape(self, service, tiny_corpus):
        site = tiny_corpus.sites[0]
        payload = service.verify_domain(site.domain)
        assert payload["domain"] == site.domain
        assert payload["verdict"] in ("legitimate", "illegitimate")
        assert payload["predicted_label"] in (0, 1)
        assert 0.0 <= payload["legitimacy_probability"] <= 1.0
        assert payload["cached"] is False
        assert isinstance(payload["degradation_reasons"], list)

    def test_batch_preserves_order(self, service, tiny_corpus):
        domains = [s.domain for s in tiny_corpus.sites[:6]]
        payloads = service.verify_batch(domains)
        assert [p["domain"] for p in payloads] == domains

    def test_unknown_domain_without_host_404s(self, fitted_verifier, tiny_corpus):
        service = VerificationService(
            fitted_verifier, sites=tiny_corpus.sites, clock=VirtualClock()
        )
        with pytest.raises(MissingKeyError):
            service.verify_domain("not-in-index.example.com")

    def test_crawl_on_miss_serves_unindexed_domain(
        self, fitted_verifier, tiny_corpus, tiny_host
    ):
        service = VerificationService(
            fitted_verifier,
            sites=tiny_corpus.sites[:10],
            host=tiny_host,
            clock=VirtualClock(),
        )
        missing = tiny_corpus.sites[20].domain
        payload = service.verify_domain(missing)
        assert payload["domain"] == missing
        assert "seed_unreachable" not in payload["degradation_reasons"]

    def test_dead_seed_degrades_instead_of_raising(self, service):
        payload = service.verify_domain("no-such-pharmacy.example.com")
        assert payload["degraded"] is True
        assert "seed_unreachable" in payload["degradation_reasons"]
        assert (
            service.metrics.counter_value("service_seed_unreachable_total") == 1.0
        )


class TestDeadline:
    def test_exhausted_budget_degrades_tail_not_response(
        self, fitted_verifier, tiny_corpus, tiny_host, ticking_clock
    ):
        service = VerificationService(
            fitted_verifier,
            sites=tiny_corpus.sites,
            host=tiny_host,
            clock=ticking_clock,
            config=ServiceConfig(deadline_chunk=1),
        )
        domains = [s.domain for s in tiny_corpus.sites[:8]]
        payloads = service.verify_batch(domains, budget=0.2)
        assert [p["domain"] for p in payloads] == domains  # always complete
        rushed = [
            p for p in payloads if "deadline_exceeded" in p["degradation_reasons"]
        ]
        assert rushed, "ticking clock never exhausted the budget"
        for payload in rushed:
            assert payload["degraded"] is True
            assert payload["confidence"] < 1.0

    def test_expired_budget_skips_crawl(
        self, fitted_verifier, tiny_corpus, tiny_host
    ):
        clock = VirtualClock()
        service = VerificationService(
            fitted_verifier,
            sites=tiny_corpus.sites[:5],
            host=tiny_host,
            clock=clock,
        )

        class ExpiringClock:
            """Already past any deadline once the crawl would start."""

            def monotonic(self) -> float:
                value = clock.monotonic()
                clock.advance(10.0)
                return value

            def sleep(self, seconds: float) -> None:
                clock.advance(seconds)

        service._clock = ExpiringClock()  # expire between admit and crawl
        missing = tiny_corpus.sites[30].domain
        payload = service.verify_domain(missing, budget=1.0)
        assert "not_crawled" in payload["degradation_reasons"]
        assert payload["degraded"] is True

    def test_no_budget_means_no_degradation(self, service, tiny_corpus):
        payloads = service.verify_batch(
            [s.domain for s in tiny_corpus.sites[:3]], budget=None
        )
        assert all(
            "deadline_exceeded" not in p["degradation_reasons"] for p in payloads
        )


class TestBreaker:
    def test_poisoned_backend_opens_circuit(self, tiny_corpus):
        clock = VirtualClock()
        service = VerificationService(
            PoisonedVerifier(),
            sites=tiny_corpus.sites,
            clock=clock,
            config=ServiceConfig(
                breaker_failure_threshold=2, breaker_reset_after=30.0
            ),
        )
        domain = tiny_corpus.sites[0].domain
        for _ in range(2):
            with pytest.raises(ServiceUnavailableError) as err:
                service.verify_domain(domain)
            assert err.value.backend == "verify"
        assert service.backend_states()["verify"] == "open"
        # Open circuit: rejected before the backend is even called.
        with pytest.raises(ServiceUnavailableError) as err:
            service.verify_domain(domain)
        assert "circuit open" in str(err.value)
        # The review route rides a separate circuit and keeps serving.
        assert service.review_queue()["total_degraded"] == 0
        assert service.backend_states()["review"] == "closed"
        assert service.health()["status"] == "degraded"

    def test_circuit_recovers_after_cooldown(self, tiny_corpus, fitted_verifier):
        clock = VirtualClock()
        poisoned = PoisonedVerifier()
        service = VerificationService(
            poisoned,
            sites=tiny_corpus.sites,
            clock=clock,
            config=ServiceConfig(
                breaker_failure_threshold=1, breaker_reset_after=5.0
            ),
        )
        domain = tiny_corpus.sites[0].domain
        with pytest.raises(ServiceUnavailableError):
            service.verify_domain(domain)
        assert service.backend_states()["verify"] == "open"
        clock.advance(5.0)
        service._verifier = fitted_verifier  # backend healed
        payload = service.verify_domain(domain)
        assert payload["domain"] == domain
        assert service.backend_states()["verify"] == "closed"

    def test_validation_errors_do_not_trip_breaker(self, service):
        for _ in range(10):
            with pytest.raises(ValidationError):
                service.verify_domain("not a domain")
        assert service.backend_states()["verify"] == "closed"


class TestReviewQueue:
    def test_orders_least_confident_first(self, service):
        # Dead seeds produce degraded verdicts that need review.
        for i in range(4):
            service.verify_domain(f"dead-{i}.example.com")
        queue = service.review_queue()
        assert queue["total_degraded"] == 4
        confidences = [e["confidence"] for e in queue["entries"]]
        assert confidences == sorted(confidences)
        assert queue["priority_domains"] == [
            e["domain"] for e in queue["entries"]
        ]

    def test_limit(self, service):
        for i in range(3):
            service.verify_domain(f"dead-{i}.example.com")
        assert len(service.review_queue(limit=2)["entries"]) == 2
        with pytest.raises(ValidationError):
            service.review_queue(limit=0)

    def test_capacity_evicts_most_confident(
        self, fitted_verifier, tiny_corpus, tiny_host
    ):
        service = VerificationService(
            fitted_verifier,
            sites=tiny_corpus.sites,
            host=tiny_host,
            clock=VirtualClock(),
            config=ServiceConfig(review_capacity=2),
        )
        for i in range(4):
            service.verify_domain(f"dead-{i}.example.com")
        queue = service.review_queue()
        assert queue["total_degraded"] == 2


class TestCache:
    def test_clean_verdicts_cache_and_replay(
        self, fitted_verifier, tiny_corpus, tmp_path
    ):
        service = VerificationService(
            fitted_verifier,
            sites=tiny_corpus.sites,
            clock=VirtualClock(),
            cache=FeatureCache(tmp_path / "verdicts"),
        )
        domain = tiny_corpus.sites[0].domain
        first = service.verify_domain(domain)
        second = service.verify_domain(domain)
        if first["degraded"]:
            pytest.skip("first verdict degraded; nothing should be cached")
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["verdict"] == first["verdict"]
        assert service.metrics.counter_value("service_cache_hits_total") == 1.0

    def test_degraded_verdicts_never_poison_the_cache(
        self, fitted_verifier, tiny_corpus, tiny_host, tmp_path
    ):
        service = VerificationService(
            fitted_verifier,
            sites=tiny_corpus.sites,
            host=tiny_host,
            clock=VirtualClock(),
            cache=FeatureCache(tmp_path / "verdicts"),
        )
        for _ in range(2):
            payload = service.verify_domain("dead-seed.example.com")
            assert payload["degraded"] is True
            assert payload["cached"] is False

    def test_retrained_model_misses_cache(
        self, fitted_verifier, tiny_corpus, tiny_corpus2, tmp_path
    ):
        domain = tiny_corpus.sites[0].domain
        retrained = PharmacyVerifier().fit(tiny_corpus2)

        def serve(verifier):
            return VerificationService(
                verifier,
                sites=tiny_corpus.sites,
                clock=VirtualClock(),
                cache=FeatureCache(tmp_path / "verdicts"),
            )

        first = serve(fitted_verifier)
        assert first.verify_domain(domain)["degraded"] is False
        second = serve(retrained)
        assert second.verify_domain(domain)["cached"] is False
        assert (
            second.health()["model_fingerprint"]
            != first.health()["model_fingerprint"]
        )

    def test_restart_with_same_model_hits_cache(
        self, fitted_verifier, tiny_corpus, tmp_path
    ):
        model_path = tmp_path / "verifier.pkl"
        save_model(fitted_verifier, model_path)
        domain = tiny_corpus.sites[0].domain
        payloads = [
            VerificationService(
                load_model(model_path),
                sites=tiny_corpus.sites,
                clock=VirtualClock(),
                cache=FeatureCache(tmp_path / "verdicts"),
            ).verify_domain(domain)
            for _ in range(2)
        ]
        assert [p["cached"] for p in payloads] == [False, True]
        assert payloads[1]["verdict"] == payloads[0]["verdict"]

    def test_model_fingerprint_survives_hash_salt(
        self, fitted_verifier, tmp_path
    ):
        """A restarted process salts string hashes differently."""
        model_path = tmp_path / "verifier.pkl"
        save_model(fitted_verifier, model_path)
        script = (
            "import sys; from repro.io import load_model; "
            "from repro.serve import VerificationService; "
            "service = VerificationService(load_model(sys.argv[1])); "
            "print(service.health()['model_fingerprint'])"
        )
        src_root = str(Path(repro.__file__).resolve().parents[1])
        fingerprints = {
            subprocess.run(
                [sys.executable, "-c", script, str(model_path)],
                env={**os.environ, "PYTHONHASHSEED": salt, "PYTHONPATH": src_root},
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for salt in ("1", "2")
        }
        here = VerificationService(load_model(model_path)).health()
        assert fingerprints == {here["model_fingerprint"]}


class TestHealth:
    def test_payload(self, service, tiny_corpus):
        health = service.health()
        assert health["status"] == "ok"
        assert health["known_domains"] == len(tiny_corpus.sites)
        assert health["crawl_on_miss"] is True
        assert health["backends"] == {"verify": "closed", "review": "closed"}
