"""``stream_weekly``: ``repro stream`` over two simulated years of weekly deltas.

Set-up (``setup_s``, median of :data:`~perfbench.common.SETUP_REPEATS`):
generate an :data:`N_SITES`-site :class:`~repro.data.deltas.StreamCorpus`,
plan :data:`N_TICKS` snapshot deltas at ~4.5 % churn per tick, and
bootstrap a :class:`~repro.stream.pipeline.StreamingVerifier` whose
drift detector (default thresholds) also forces a full retrain at least
every :data:`RETRAIN_EVERY` ticks (``repro stream --retrain-every``),
so about one tick in four is a retrain tick.  Drift alone triggered 0,
1 and 1 retrains in the 104 ticks of seeds 1-3, which would leave
``tick_p90_ms`` without a retrain tick behind it; with a retrain every 8
ticks (the CLI's documented example) p90 fell on the boundary between
incremental and retrain ticks.

The timed phase replays every delta through ``apply_tick``; a tick is
timed from the delta applied to the verdicts updated.  It is a fixed
workload of :data:`N_TICKS` ticks rather than a fixed time.  Only after
the last tick do the oracle checks run: the stream harness's pins
(document frequencies and vocabulary bit-equal a fresh fit, class
graphs and TrustRank within 1e-9 of a from-scratch run, zero staleness
after ``full_retrain``).

One operation is one tick.  Tick and set-up times are host-normalized
(:mod:`perfbench.hostspeed`); the raw ones are in the environment
record.  So here:

* ``tick_p50_ms`` / ``tick_p90_ms`` / ``latency_p50_ms`` /
  ``latency_p99_ms``: percentiles of the tick duration (p90 and above
  are retrain ticks);
* ``requests_per_s``: ticks per second of ticking;
* ``sites_per_s``: live sites given a current verdict per second of
  tick, median over ticks;
* ``accuracy``: streaming verdicts after the last tick against the
  oracle labels;
* ``pairord``: pairwise orderedness of the incrementally maintained
  TrustRank scores of the live sites;
* ``verdict_agreement``: streaming verdicts against ``full_recompute``
  after the last tick;
* ``peak_rss_mb``: this process, read right after the timed phase.

Attempted operations are ticks; a tick that raised counts as failed,
and the ticks after it are not attempted.
"""

from __future__ import annotations

import gc
from pathlib import Path

from benchmarks.stream.harness import _check_equivalences
from repro.core.ranking import rank_pharmacies
from repro.data.deltas import SnapshotDelta, StreamConfig, StreamCorpus, plan_deltas
from repro.data.synthesis import GeneratorConfig
from repro.exceptions import ReproError
from repro.stream import DriftDetector, StreamingVerifier

from perfbench import layers
from perfbench.common import (
    SETUP_REPEATS,
    Outcome,
    environment,
    median,
    peak_rss_mb,
    percentile,
    repeat_setup,
    timed_operation,
)
from perfbench.hostspeed import SpeedSampler
from perfbench.spans import Tracer

N_SITES = 400
N_TICKS = 104
RETRAIN_EVERY = 4


def generator_config(seed: int) -> GeneratorConfig:
    return GeneratorConfig(
        n_legitimate=N_SITES // 4,
        n_illegitimate=N_SITES - N_SITES // 4,
        n_affiliate_hubs=N_SITES // 20,
        min_pages=3,
        max_pages=6,
        min_terms_per_page=60,
        max_terms_per_page=120,
        seed=seed,
    )


STREAM_CONFIG = StreamConfig(
    n_ticks=N_TICKS,
    birth_fraction=0.015,
    death_fraction=0.01,
    drift_fraction=0.01,
    rewire_fraction=0.01,
)


def set_up(seed: int) -> tuple[StreamingVerifier, StreamCorpus, tuple[SnapshotDelta, ...]]:
    config = generator_config(seed)
    corpus = StreamCorpus.generate(config)
    deltas = plan_deltas(config, STREAM_CONFIG)
    verifier = StreamingVerifier(
        corpus, detector=DriftDetector(max_ticks_between_retrains=RETRAIN_EVERY)
    )
    verifier.bootstrap()
    return verifier, corpus, deltas


def run(workdir: Path, seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    out = Outcome()
    sampler = SpeedSampler(active=tracer is None)
    if tracer is None:
        (verifier, corpus, deltas), setup_s, raw_setup_s = repeat_setup(
            lambda rep: set_up(seed), SETUP_REPEATS, sampler
        )
    else:
        layers.install(tracer)
        verifier, corpus, deltas = set_up(seed)
        tracer.uninstall()

    tick_s: list[float] = []  # normalized
    raw_tick_s: list[float] = []
    retrained: list[bool] = []
    traced: list[bool] = []
    live_sites: list[int] = []
    gc.collect()
    for delta in deltas:
        is_traced = tracer is not None and delta.epoch % 2 == 1
        out.attempted += 1
        try:
            op_id = f"tick-{delta.epoch}"
            with timed_operation(tracer, is_traced, "stream.tick", op_id):
                report, elapsed, normalized = sampler.time(
                    lambda: verifier.apply_tick(delta)
                )
        except ReproError:
            out.failed += 1
            break
        raw_tick_s.append(elapsed)
        tick_s.append(normalized)
        retrained.append(report.retrained)
        traced.append(is_traced)
        live_sites.append(report.n_sites)
    # Read before the oracle checks below, so it is the stream's peak.
    rss_mb = peak_rss_mb()

    # Checks, untimed, after the last tick.
    verdicts = verifier.verdicts
    labels = corpus.labels()
    domains = corpus.domains()
    accuracy = sum(verdicts[d] == labels[d] for d in domains) / len(domains)
    trust = verifier.rank_state.scores()
    pairord = rank_pharmacies(
        domains=domains,
        text_ranks=[0.0] * len(domains),
        network_ranks=[trust.get(d, 0.0) for d in domains],
        oracle_labels=[labels[d] for d in domains],
    ).pairord
    try:
        pins = _check_equivalences(verifier)
    except AssertionError as exc:
        out.check("stream equivalence pins", False, str(exc))
        pins = {"staleness_before_retrain": 1.0}
    out.check("every tick applied", out.failed == 0)

    out.info = environment(
        seed,
        workload="stream_weekly",
        n_base_sites=N_SITES,
        n_ticks=N_TICKS,
        retrain_every=RETRAIN_EVERY,
        retrains=sum(retrained),
        final_sites=len(domains),
        client_threads=1,
        connections=0,
        pins=pins,
    )
    if tracer is not None:
        ticks = list(zip(raw_tick_s, retrained, traced))
        plain = [s for s, r, t in ticks if not r and not t]
        with_trace = [s for s, r, t in ticks if not r and t]
        out.metrics = {
            "stream.retrains": float(sum(retrained)),
            "trace.overhead_ratio": median(with_trace) / median(plain) - 1.0,
        }
        return out
    out.info["raw"] = {
        "setup_s": raw_setup_s,
        "tick_s": raw_tick_s,
        "probe_s_median": median(sampler.samples),
    }
    out.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "sites_per_s": median([n / s for n, s in zip(live_sites, tick_s)]),
        "requests_per_s": len(tick_s) / sum(tick_s),
        "latency_p50_ms": percentile(tick_s, 50) * 1e3,
        "latency_p99_ms": percentile(tick_s, 99) * 1e3,
        "tick_p50_ms": percentile(tick_s, 50) * 1e3,
        "tick_p90_ms": percentile(tick_s, 90) * 1e3,
        "accuracy": accuracy,
        "pairord": pairord,
        "verdict_agreement": 1.0 - pins["staleness_before_retrain"],
    }
    return out
