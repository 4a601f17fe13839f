"""``batch_rank``: the offline triage job, ``repro train`` then ``repro rank``.

Set-up (``setup_s``, median of :data:`~perfbench.common.SETUP_REPEATS`):
write an :data:`N_SITES`-site corpus as :data:`N_SHARDS` shard files,
generate a separate labelled training sample, fit
:class:`~repro.core.verifier.PharmacyVerifier`, save and reload it,
and read the oracle labels from the shards, as ``repro rank`` does.

One untimed warm-up pass verifies the sharded view; its verdicts are
the sharded side of ``verdict_agreement``.  The timed phase then runs
``rank_sites(ShardedCorpus(dir).sites_view(), labels)`` passes until
the time is up, each from a fresh reader (cold 2-shard LRU, so shards
are re-read as in a fresh ``repro rank``) with ``parse_url``'s LRU
cleared.

One operation is one ranking pass.  Pass and set-up times are
host-normalized (:mod:`perfbench.hostspeed`); the raw ones are in the
environment record.  So here:

* ``sites_per_s``: sites per second of a pass, median over passes;
* ``requests_per_s``: passes per second of ranking;
* ``latency_p50_ms`` / ``latency_p99_ms`` / ``tick_p50_ms`` /
  ``tick_p90_ms``: percentiles of the pass duration;
* ``accuracy``: in-memory verdicts against the oracle labels;
* ``pairord``: pairwise orderedness of the timed ranking;
* ``verdict_agreement``: sharded against in-memory verdicts (must be 1);
* ``peak_rss_mb``: this process, read right after the timed phase.

Attempted operations are site reports; a missing report or a pass that
raised counts its sites as failed.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import replace
from pathlib import Path

import repro.data.sharding
import repro.io
from repro.core.config import preset
from repro.core.ranking import rank_pharmacies
from repro.core.verifier import PharmacyVerifier
from repro.data.loaders import make_dataset
from repro.data.sharding import ShardedCorpus
from repro.data.synthesis import GeneratorConfig
from repro.exceptions import ReproError
from repro.web.url import parse_url

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

N_SITES = 5000
N_SHARDS = 3
N_TRAIN = 600
#: Timed passes at least, however short ``--seconds`` is.
MIN_PASSES = 3
#: Traced runs alternate this many untraced and traced passes.
TRACED_PASSES = 3


def corpus_config(seed: int, n_sites: int = N_SITES) -> GeneratorConfig:
    """The large preset's site profile (class split, hub density) at ``n_sites``."""
    base = preset("large").generator
    total = base.n_legitimate + base.n_illegitimate
    n_legit = max(1, round(n_sites * base.n_legitimate / total))
    return replace(
        base,
        n_legitimate=n_legit,
        n_illegitimate=n_sites - n_legit,
        n_affiliate_hubs=max(2, n_sites * base.n_affiliate_hubs // total),
        seed=seed,
    )


def set_up(workdir: Path, seed: int) -> tuple[Path, PharmacyVerifier, list[int]]:
    """Shards, a trained-and-reloaded verifier, and the shards' labels."""
    workdir.mkdir(parents=True, exist_ok=True)
    corpus_dir = workdir / "shards"
    repro.data.sharding.write_shards(
        corpus_config(seed), corpus_dir, N_SHARDS, jobs=1
    )
    train = make_dataset(corpus_config(seed + 100_003, N_TRAIN))
    model_path = workdir / "verifier.pkl"
    repro.io.save_model(PharmacyVerifier().fit(train), model_path)
    verifier = repro.io.load_model(model_path)
    labels = [
        record.label
        for _, _, records in ShardedCorpus(corpus_dir).iter_shards()
        for record in records
    ]
    return corpus_dir, verifier, labels


def _rank_pass(verifier, corpus_dir: Path, labels: list[int], sampler: SpeedSampler):
    """One cold ranking pass: ``(ranking or None, raw s, normalized s)``."""
    parse_url.cache_clear()
    view = ShardedCorpus(corpus_dir).sites_view()
    gc.collect()

    def rank():
        try:
            return verifier.rank_sites(view, labels)
        except ReproError:
            return None

    return sampler.time(rank)


def _entries(ranking) -> tuple:
    return tuple((e.domain, e.rank_score) for e in ranking.entries)


def run(workdir: Path, seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    out = Outcome()
    sampler = SpeedSampler(active=tracer is None)
    if tracer is None:
        (corpus_dir, verifier, labels), setup_s, raw_setup_s = repeat_setup(
            lambda rep: set_up(workdir / f"setup{rep}", seed),
            SETUP_REPEATS,
            sampler,
        )
        for rep in range(SETUP_REPEATS - 1):
            shutil.rmtree(workdir / f"setup{rep}")
    else:
        layers.install(tracer)
        corpus_dir, verifier, labels = set_up(workdir / "setup", seed)
        tracer.uninstall()
    n_sites = len(labels)

    # Warm-up, untimed: the sharded path's verdicts.
    sharded_reports = verifier.verify_sites(ShardedCorpus(corpus_dir).sites_view())

    rankings = []
    pass_s: list[float] = []  # normalized
    raw_pass_s: list[float] = []
    traced_s: list[float] = []
    url_hits = url_misses = 0
    started = time.perf_counter()
    while True:
        i = len(raw_pass_s) + len(traced_s)
        if tracer is not None:
            if i >= 2 * TRACED_PASSES:
                break
        elif i >= MIN_PASSES and time.perf_counter() - started >= seconds:
            break
        traced = tracer is not None and i % 2 == 1
        with timed_operation(tracer, traced, "batch_rank.pass", f"pass-{i}"):
            ranking, elapsed, normalized = _rank_pass(
                verifier, corpus_dir, labels, sampler
            )
        if traced:
            info = parse_url.cache_info()
            url_hits += info.hits
            url_misses += info.misses
            traced_s.append(elapsed)
        else:
            raw_pass_s.append(elapsed)
            pass_s.append(normalized)
        out.attempted += n_sites
        if ranking is None:
            out.failed += n_sites
        else:
            out.failed += n_sites - len(ranking.entries)
            rankings.append(ranking)
    # Read before the checks below, so it is the ranking path's peak.
    rss_mb = peak_rss_mb()

    # Checks, untimed: every pass ranked identically, and the sharded
    # path agrees with in-memory verification of the same sites.
    out.check("all passes ranked", len(rankings) == len(raw_pass_s) + len(traced_s))
    first = _entries(rankings[0]) if rankings else ()
    out.check(
        "passes identical",
        all(_entries(r) == first for r in rankings),
        "ranking differs between passes",
    )
    sites = [
        site
        for _, shard_sites, _ in ShardedCorpus(corpus_dir).iter_shards()
        for site in shard_sites
    ]
    memory_reports = verifier.verify_sites(sites)
    expected = rank_pharmacies(
        domains=[r.domain for r in memory_reports],
        text_ranks=[r.text_rank for r in memory_reports],
        network_ranks=[r.network_rank for r in memory_reports],
        oracle_labels=labels,
    )
    out.check(
        "sharded ranking equals in-memory ranking",
        _entries(expected) == first,
    )
    agree = sum(
        a.domain == b.domain and a.predicted_label == b.predicted_label
        for a, b in zip(sharded_reports, memory_reports)
    ) / max(1, len(memory_reports))
    out.check("verdict_agreement is 1", agree == 1.0, f"agreement {agree}")
    accuracy = sum(
        r.predicted_label == y for r, y in zip(memory_reports, labels)
    ) / len(labels)

    out.info = environment(
        seed,
        workload="batch_rank",
        n_sites=n_sites,
        n_shards=N_SHARDS,
        n_train=N_TRAIN,
        passes=len(raw_pass_s),
        traced_passes=len(traced_s),
        client_threads=1,
        connections=0,
    )
    if tracer is not None:
        lookups = url_hits + url_misses
        out.metrics = {
            "web.parse_url.hit_ratio": url_hits / lookups if lookups else 0.0,
            "trace.overhead_ratio": median(traced_s) / median(raw_pass_s) - 1.0,
        }
        return out
    out.info["raw"] = {
        "setup_s": raw_setup_s,
        "pass_s": raw_pass_s,
        "normalized_pass_s": pass_s,
        "probe_s_median": median(sampler.samples),
    }
    out.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "sites_per_s": median([n_sites / s for s in pass_s]),
        "requests_per_s": len(pass_s) / sum(pass_s),
        "latency_p50_ms": percentile(pass_s, 50) * 1e3,
        "latency_p99_ms": percentile(pass_s, 99) * 1e3,
        "tick_p50_ms": percentile(pass_s, 50) * 1e3,
        "tick_p90_ms": percentile(pass_s, 90) * 1e3,
        "accuracy": accuracy,
        "pairord": rankings[0].pairord if rankings else 0.0,
        "verdict_agreement": agree,
    }
    return out
