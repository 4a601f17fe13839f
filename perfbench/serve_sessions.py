"""``serve_sessions``: API integrations verifying domains over keep-alive HTTP.

Set-up (``setup_s``, median of :data:`~perfbench.common.SETUP_REPEATS`):
generate an :data:`N_SITES`-site corpus and a separate labelled
training sample, fit :class:`~repro.core.verifier.PharmacyVerifier`,
save the model and export the corpus (``repro train``), and start
``repro serve`` over them with ``--cache-dir`` in its own process,
until it reports its port.

The load is a closed loop of :data:`CLIENTS` clients, each on one
persistent HTTP/1.1 connection.  Each client's schedule comes from the
seed and repeats a block of twenty requests: seventeen ``/v1/verify``
calls for hot domains, two ``/v1/verify`` for domains not requested
before, and one ``/v1/verify/batch`` of eight hot and two unrequested
domains.  The hot set is verified once before timing, so its lookups
are cache reads; every unrequested domain is a miss followed by a cache
write.  The verdict-cache hit ratio is therefore 25/29 by construction.  Hot
and unrequested domains are drawn from sites whose verdict is not
degraded, since degraded verdicts are never cached.  The mix (hit
ratio, one batch in twenty requests, 64 hot domains) is a fixed choice,
not taken from measured traffic.  The window runs at least ``--seconds``
and until there are :data:`MIN_REQUESTS` samples, so p99 has ten
samples beyond it.

One operation is one HTTP request.  Request times are raw wall time:
the server runs in another process and a keep-alive round trip is
mostly a fixed TCP delay, not CPU work.  Set-up time is host-normalized
(:mod:`perfbench.hostspeed`).  So here:

* ``requests_per_s``: completed requests per second of the window;
* ``sites_per_s``: domains verified per second (a batch counts each);
* ``latency_p50_ms`` / ``latency_p99_ms`` / ``tick_p50_ms`` /
  ``tick_p90_ms``: client-side request latency percentiles;
* ``accuracy`` / ``pairord``: verdicts and rank scores served for
  every corpus domain after the timed window, against the oracle
  labels;
* ``verdict_agreement``: those HTTP verdicts against in-process
  ``verify_sites`` on the same sites (must be 1);
* ``peak_rss_mb``: the server process, read right after the window.

Attempted operations are requests; a non-2xx response or a transport
error counts as failed.

The traced run first drives the server process as above for half the
time and reads its ``/metrics`` (``serve.*``), then hosts the same
service in this process with the layer wrappers installed, for
attribution only, and compares an untraced and a traced segment of
:data:`TRACED_REQUESTS` requests per client for the tracing overhead.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import repro.io
from repro.core.ranking import rank_pharmacies
from repro.core.verifier import PharmacyVerifier
from repro.data.loaders import make_dataset
from repro.web.url import parse_url

from perfbench import layers
from perfbench.batch_rank import corpus_config
from perfbench.common import (
    SETUP_REPEATS,
    Outcome,
    environment,
    median,
    peak_rss_mb,
    percentile,
    repeat_setup,
)
from perfbench.hostspeed import SpeedSampler
from perfbench.spans import Tracer

N_SITES = 2000
N_TRAIN = 500
N_HOT = 64
CHECK_BATCH = 100
CLIENTS = 2
BLOCK = 20
MISS_SLOTS = (4, 14)
BATCH_HOT = 8
BATCH_MISS = 2
TRACED_REQUESTS = 60
#: Requests per untraced run at least (10 samples beyond p99): the
#: timed window runs past ``--seconds`` until there are this many.
MIN_REQUESTS = 1000
#: Seconds ``repro serve`` gets to report its port.
START_TIMEOUT_S = 120.0
API_KEY = "perfbench-internal"
TIER_CONFIG = {
    "tiers": {
        "bench": {
            "rate_limit": 10_000_000,
            "window_seconds": 60,
            "max_batch": 100,
            "request_budget": 30.0,
            "batch_budget": 60.0,
        }
    },
    "keys": {API_KEY: "bench"},
    "allow_anonymous": False,
}
HEADERS = {"X-API-Key": API_KEY, "Content-Type": "application/json"}
VERIFY = "/v1/verify"
BATCH = "/v1/verify/batch"
SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass(frozen=True, slots=True)
class Request:
    path: str
    domains: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Sample:
    path: str
    n_domains: int
    seconds: float
    ok: bool
    wrong: int


def schedule(
    seed: int, client: int, hot: Sequence[str], unrequested: Sequence[str]
) -> Iterator[Request]:
    """One client's requests; ends when its unrequested domains run out.

    Each block of :data:`BLOCK` requests ends in one batch; the singles
    at :data:`MISS_SLOTS` name unrequested domains, the rest hot ones.
    """
    rng = random.Random(seed * 1009 + client)
    fresh = iter(unrequested)
    for i in range(len(unrequested) * BLOCK):
        slot = i % BLOCK
        try:
            if slot == BLOCK - 1:
                picks = [rng.choice(hot) for _ in range(BATCH_HOT)]
                picks += [next(fresh) for _ in range(BATCH_MISS)]
                yield Request(BATCH, tuple(picks))
            elif slot in MISS_SLOTS:
                yield Request(VERIFY, (next(fresh),))
            else:
                yield Request(VERIFY, (rng.choice(hot),))
        except StopIteration:
            return


def constructed_hit_ratio() -> float:
    """Verdict-cache hits per domain lookup that :func:`schedule` makes."""
    hot_singles = BLOCK - 1 - len(MISS_SLOTS)
    lookups = BLOCK - 1 + BATCH_HOT + BATCH_MISS
    return (hot_singles + BATCH_HOT) / lookups


def split_domains(
    seed: int, clean: Sequence[str]
) -> tuple[list[str], list[list[str]]]:
    """The hot set and each client's unrequested domains, from the seed."""
    order = sorted(clean)
    random.Random(seed).shuffle(order)
    hot, rest = order[:N_HOT], order[N_HOT:]
    return hot, [rest[c::CLIENTS] for c in range(CLIENTS)]


# -- the server process -----------------------------------------------------


class ServerProcess:
    """``repro serve`` in a child process, stopped by SIGINT (drain)."""

    def __init__(self, workdir: Path, model: Path, corpus: Path) -> None:
        tiers = workdir / "tiers.json"
        tiers.write_text(json.dumps(TIER_CONFIG), encoding="utf-8")
        self._log = open(workdir / "server.log", "w", encoding="utf-8")
        # Unbuffered, so the line with the port is not held in a pipe buffer.
        self.proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli", "serve", str(model), str(corpus),
                "--port", "0",
                "--cache-dir", str(workdir / "cache"),
                "--tier-config", str(tiers),
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=workdir,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        line = self._first_line(time.monotonic() + START_TIMEOUT_S)
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))

    def _first_line(self, deadline: float) -> str:
        """The server's first stdout line, or what came before ``deadline``."""
        fd, data = self.proc.stdout.fileno(), b""
        while b"\n" not in data:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                break
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            data += chunk
        return data.decode("utf-8", "replace")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        self._log.close()


def set_up(workdir: Path, seed: int):
    """Corpus + model on disk and a server running over them."""
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = make_dataset(corpus_config(seed, N_SITES))
    train = make_dataset(corpus_config(seed + 100_003, N_TRAIN))
    verifier = PharmacyVerifier().fit(train)
    model_path, corpus_path = workdir / "verifier.pkl", workdir / "corpus.jsonl"
    repro.io.save_model(verifier, model_path)
    repro.io.export_corpus(corpus, corpus_path)
    return ServerProcess(workdir, model_path, corpus_path), corpus, verifier


# -- the clients -------------------------------------------------------------


class Client:
    """One persistent connection (reopened only after a transport error)."""

    def __init__(self, port: int, expected: dict[str, int]) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self._expected = expected

    def send(self, request: Request) -> tuple[bool, int, list[dict]]:
        """``(ok, wrong verdicts, payloads)`` for one request."""
        body = (
            {"domain": request.domains[0]}
            if request.path == VERIFY
            else {"domains": list(request.domains)}
        )
        try:
            self._conn.request(
                "POST", request.path, body=json.dumps(body).encode(), headers=HEADERS
            )
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            return False, 0, []
        if not 200 <= response.status < 300:
            return False, 0, []
        payload = json.loads(data)
        payloads = [payload] if request.path == VERIFY else payload["results"]
        wrong = sum(
            p["domain"] != d or p["predicted_label"] != self._expected[d]
            for p, d in zip(payloads, request.domains)
        )
        return True, wrong + abs(len(payloads) - len(request.domains)), payloads

    def get_json(self, path: str) -> dict:
        self._conn.request("GET", path, headers=HEADERS)
        response = self._conn.getresponse()
        return json.loads(response.read())

    def close(self) -> None:
        self._conn.close()


def closed_loop(
    clients: Sequence[Client],
    schedules: Sequence[Iterator[Request]],
    seconds: float | None = None,
    requests: int | None = None,
    min_requests: int = 0,
) -> tuple[list[Sample], float]:
    """Each client sends its next request when the last one returned.

    Runs for ``seconds`` or ``requests`` per client, whichever is given.
    A timed window goes on past ``seconds``, for at most as long again,
    until the clients have sent ``min_requests`` between them.  Returns
    the samples and the window's length.
    """
    samples: list[list[Sample]] = [[] for _ in clients]
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else float("inf")
    cap = start + 2 * seconds if seconds is not None else float("inf")
    quota = -(-min_requests // len(clients))

    errors: list[BaseException] = []

    def drive(i: int) -> None:
        try:
            for n, request in enumerate(schedules[i]):
                if requests is not None and n >= requests:
                    break
                began = time.perf_counter()
                if began >= cap or (began >= deadline and n >= quota):
                    break
                ok, wrong, _ = clients[i].send(request)
                samples[i].append(
                    Sample(
                        request.path,
                        len(request.domains),
                        time.perf_counter() - began,
                        ok,
                        wrong,
                    )
                )
        except BaseException as exc:  # re-raised in the caller's thread
            errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(i,), name=f"client-{i}")
        for i in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=2 * (seconds or 0) + 120)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")
    if errors:
        raise errors[0]
    elapsed = time.perf_counter() - start
    return [s for per_client in samples for s in per_client], elapsed


def warm(client: Client, hot: Sequence[str]) -> None:
    """Verify the hot set once, so its lookups are cache reads."""
    for start in range(0, len(hot), 32):
        ok, wrong, _ = client.send(Request(BATCH, tuple(hot[start : start + 32])))
        if not ok or wrong:
            raise RuntimeError("warming the hot set failed")


def check_corpus(
    client: Client, domains: Sequence[str], labels: dict[str, int],
    expected: dict[str, int],
) -> tuple[float, float, float]:
    """``(accuracy, pairord, agreement)`` of HTTP verdicts on every domain."""
    payloads: list[dict] = []
    for start in range(0, len(domains), CHECK_BATCH):
        chunk = tuple(domains[start : start + CHECK_BATCH])
        ok, _, got = client.send(Request(BATCH, chunk))
        if not ok:
            raise RuntimeError("check batch failed")
        payloads.extend(got)
    agree = sum(
        p["domain"] == d and p["predicted_label"] == expected[d]
        for p, d in zip(payloads, domains)
    ) / len(domains)
    accuracy = sum(
        p["predicted_label"] == labels[p["domain"]] for p in payloads
    ) / len(payloads)
    pairord = rank_pharmacies(
        domains=[p["domain"] for p in payloads],
        text_ranks=[p["text_rank"] for p in payloads],
        network_ranks=[p["network_rank"] for p in payloads],
        oracle_labels=[labels[p["domain"]] for p in payloads],
    ).pairord
    return accuracy, pairord, agree


def _counter(snapshot: dict, name: str) -> float:
    return sum(c["value"] for c in snapshot["counters"] if c["name"] == name)


def _in_process_phase(
    out: Outcome, workdir: Path, tracer: Tracer, seed: int, hot, unrequested, expected
) -> dict[str, float]:
    """Host the service here, traced, for attribution; measure overhead."""
    from repro.serve import Authenticator, build_server

    layers.install(tracer)
    try:
        verifier = repro.io.load_model(workdir / "verifier.pkl")
        sites = list(repro.io.import_corpus(workdir / "corpus.jsonl").sites)
        server = build_server(
            verifier,
            sites=sites,
            port=0,
            authenticator=Authenticator.from_file(workdir / "tiers.json"),
            cache_dir=str(workdir / "cache-in-process"),
        )
    finally:
        tracer.uninstall()
    server.start_background()
    clients = [Client(server.port, expected) for _ in range(CLIENTS)]
    try:
        warm(clients[0], hot)
        schedules = [
            schedule(seed, c, hot, unrequested[c]) for c in range(CLIENTS)
        ]
        plain, _ = closed_loop(clients, schedules, requests=TRACED_REQUESTS)
        before = parse_url.cache_info()
        layers.install(tracer)
        try:
            traced, _ = closed_loop(clients, schedules, requests=TRACED_REQUESTS)
        finally:
            tracer.uninstall()
        after = parse_url.cache_info()
    finally:
        for client in clients:
            client.close()
        server.drain()
    lookups = (after.hits - before.hits) + (after.misses - before.misses)
    out.check(
        "traced in-process verdicts match",
        all(s.ok and not s.wrong for s in plain + traced),
    )
    return {
        "web.parse_url.hit_ratio": (after.hits - before.hits) / lookups
        if lookups
        else 0.0,
        "trace.overhead_ratio": median([s.seconds for s in traced])
        / median([s.seconds for s in plain])
        - 1.0,
    }


def run(workdir: Path, seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    out = Outcome()
    if tracer is None:
        servers: list[ServerProcess] = []

        def one_set_up(rep: int):
            result = set_up(workdir / f"setup{rep}", seed)
            servers.append(result[0])
            return result

        try:
            (server, corpus, verifier), setup_s, raw_setup_s = repeat_setup(
                one_set_up, SETUP_REPEATS, SpeedSampler()
            )
        except BaseException:
            for started in servers:
                started.stop()
            raise
        for stale in servers[:-1]:
            stale.stop()
        workdir = workdir / f"setup{SETUP_REPEATS - 1}"
    else:
        server, corpus, verifier = set_up(workdir / "setup", seed)
        workdir = workdir / "setup"

    try:
        reports = verifier.verify_sites(list(corpus.sites))
        expected = {r.domain: r.predicted_label for r in reports}
        labels = dict(zip(corpus.domains, (int(y) for y in corpus.labels)))
        clean = [r.domain for r in reports if not r.degraded]
        hot, unrequested = split_domains(seed, clean)

        clients = [Client(server.port, expected) for _ in range(CLIENTS)]
        warm(clients[0], hot)
        for client in clients:  # open both connections before timing
            client.send(Request(VERIFY, (hot[0],)))
        schedules = [schedule(seed, c, hot, unrequested[c]) for c in range(CLIENTS)]
        gc.collect()
        if tracer is None:
            samples, elapsed = closed_loop(
                clients, schedules, seconds=seconds, min_requests=MIN_REQUESTS
            )
        else:
            samples, elapsed = closed_loop(clients, schedules, seconds=seconds / 2)
        # Read before the checks below, so it is the served traffic's peak.
        server_rss = peak_rss_mb(server.proc.pid)
        snapshot = clients[0].get_json("/metrics?format=json")
        accuracy, pairord, agree = check_corpus(
            clients[0], corpus.domains, labels, expected
        )
        for client in clients:
            client.close()
    finally:
        server.stop()

    out.attempted = len(samples)
    out.failed = sum(not s.ok for s in samples)
    wrong = sum(s.wrong for s in samples)
    out.check("served verdicts match in-process", wrong == 0, f"{wrong} wrong")
    out.check("verdict_agreement is 1", agree == 1.0, f"agreement {agree}")
    unhandled = _counter(snapshot, "http_unhandled_errors_total")
    out.check("no unhandled server errors", unhandled == 0, f"{unhandled}")
    latencies = [s.seconds for s in samples]
    singles = [s.seconds for s in samples if s.path == VERIFY]
    lookups = sum(s.n_domains for s in samples)
    out.info = environment(
        seed,
        workload="serve_sessions",
        n_sites=N_SITES,
        n_train=N_TRAIN,
        n_hot=N_HOT,
        requests=len(samples),
        samples_beyond_p99=len(samples) // 100,
        domain_lookups=lookups,
        constructed_hit_ratio=constructed_hit_ratio(),
        client_threads=CLIENTS,
        connections=CLIENTS,
        server_counters={c["name"]: c["value"] for c in snapshot["counters"]},
    )
    if tracer is not None:
        server_verify = snapshot["latency"].get(VERIFY, {})
        server_p50_ms = server_verify.get("p50_seconds", 0.0) * 1e3
        out.metrics = {
            "serve.server_p50_ms": server_p50_ms,
            "serve.server_p99_ms": server_verify.get("p99_seconds", 0.0) * 1e3,
            "serve.transport_p50_ms": percentile(singles, 50) * 1e3 - server_p50_ms,
            "serve.shed": _counter(snapshot, "http_shed_total"),
            "serve.rate_limited": _counter(snapshot, "http_rate_limited_total"),
            "serve.unhandled_errors": unhandled,
        }
        out.metrics.update(
            _in_process_phase(out, workdir, tracer, seed, hot, unrequested, expected)
        )
        return out
    out.check(
        "enough samples beyond p99",
        len(samples) >= MIN_REQUESTS,
        f"{len(samples)} requests",
    )
    ok_samples = [s for s in samples if s.ok]
    out.info["raw"] = {"setup_s": raw_setup_s}
    out.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": server_rss,
        "sites_per_s": sum(s.n_domains for s in ok_samples) / elapsed,
        "requests_per_s": len(ok_samples) / elapsed,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
        "tick_p50_ms": percentile(latencies, 50) * 1e3,
        "tick_p90_ms": percentile(latencies, 90) * 1e3,
        "accuracy": accuracy,
        "pairord": pairord,
        "verdict_agreement": agree,
    }
    return out
