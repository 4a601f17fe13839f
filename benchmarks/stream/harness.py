"""Simulated-year streaming benchmark: incremental ticks vs full runs.

Usage::

    PYTHONPATH=src python -m benchmarks.stream.harness [--scale small]
        [--output benchmarks/output/BENCH_stream.json]
        [--full-every 13] [--min-speedup 5]

The harness plans a delta stream over a synthetic corpus (the default
``small`` scale is a year of weekly ticks at ~4% churn), bootstraps a
:class:`~repro.stream.pipeline.StreamingVerifier`, and then, per tick:

* applies the delta incrementally (timed — this is the product path);
* every ``--full-every`` ticks, also runs the cold
  :meth:`~repro.stream.pipeline.StreamingVerifier.full_recompute`
  (timed — the baseline a non-incremental system would pay every
  snapshot) and records the verdict-staleness of the warm state
  against it.

Before timings are reported the final warm state is pinned against the
oracle: document frequencies and the refit vocabulary bit-equal a
fresh fit, TrustRank agrees with a tight power-iteration run within
1e-9, and a final ``full_retrain`` drives verdict staleness to exactly
zero.  The harness exits non-zero if any equivalence fails — or, with
``--min-speedup X``, if the median-full over median-tick speedup falls
below ``X``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.data.deltas import StreamConfig, StreamCorpus, plan_deltas
from repro.data.synthesis import GeneratorConfig
from repro.io import atomic_write_text
from repro.network.construction import build_pharmacy_graph
from repro.network.trustrank import trustrank
from repro.stream.crawl import DeltaCrawlStore
from repro.stream.pipeline import StreamingVerifier

#: Per-scale corpus + stream shapes.  Churn sums to ~4% of the corpus
#: per steady-state tick (the acceptance envelope is <= 5%).
SCALES: dict[str, dict[str, Any]] = {
    "tiny": {
        "generator": GeneratorConfig(
            n_legitimate=10,
            n_illegitimate=20,
            n_affiliate_hubs=3,
            min_pages=3,
            max_pages=5,
            min_terms_per_page=40,
            max_terms_per_page=80,
            seed=11,
        ),
        "stream": StreamConfig(
            n_ticks=8,
            birth_fraction=0.02,
            death_fraction=0.01,
            drift_fraction=0.015,
            rewire_fraction=0.015,
        ),
        "full_every": 4,
    },
    "small": {
        "generator": GeneratorConfig(
            n_legitimate=25,
            n_illegitimate=75,
            n_affiliate_hubs=5,
            min_pages=3,
            max_pages=6,
            min_terms_per_page=60,
            max_terms_per_page=120,
            seed=11,
        ),
        "stream": StreamConfig(
            n_ticks=52,
            birth_fraction=0.015,
            death_fraction=0.01,
            drift_fraction=0.01,
            rewire_fraction=0.01,
        ),
        "full_every": 13,
    },
}


def _check_equivalences(verifier: StreamingVerifier) -> dict[str, float]:
    """Pin the warm state against from-scratch oracles; raise on drift."""
    full = verifier.full_recompute()
    refit = verifier.document_frequencies.fit_vectorizer(
        min_df=verifier._min_df
    )
    if refit.vocabulary.terms() != full.vocabulary_terms:
        raise AssertionError("incremental vocabulary diverged from fresh fit")
    if not np.array_equal(refit.idf, full.idf):
        raise AssertionError("incremental idf diverged from fresh fit")

    store = DeltaCrawlStore(verifier._corpus)
    store.bootstrap()
    graph = build_pharmacy_graph(store.sites())
    tight = trustrank(
        graph,
        verifier._trusted_domains(),
        damping=0.85,
        max_iterations=1000,
        tolerance=1e-12,
    )
    scores = verifier.rank_state.scores()
    if set(scores) != set(tight):
        raise AssertionError("incremental TrustRank node set diverged")
    rank_err = max(
        (abs(scores[node] - value) for node, value in tight.items()),
        default=0.0,
    )
    if rank_err >= 1e-9:
        raise AssertionError(f"TrustRank error {rank_err:.3e} >= 1e-9")

    staleness_before = verifier.staleness_against(full)
    verifier.full_retrain()
    staleness_after = verifier.staleness_against(full)
    if staleness_after != 0.0:
        raise AssertionError(
            f"staleness {staleness_after} after full retrain (expected 0)"
        )
    return {
        "trustrank_max_err": rank_err,
        "staleness_before_retrain": staleness_before,
        "staleness_after_retrain": staleness_after,
    }


def run(scale: str, full_every: int) -> dict[str, Any]:
    shape = SCALES[scale]
    generator: GeneratorConfig = shape["generator"]
    stream: StreamConfig = shape["stream"]
    deltas = plan_deltas(generator, stream)

    corpus = StreamCorpus.generate(generator)
    verifier = StreamingVerifier(corpus)
    start = time.perf_counter()
    verifier.bootstrap()
    bootstrap_s = time.perf_counter() - start

    n_base = len(corpus.domains())
    ticks: list[dict[str, Any]] = []
    full_times: list[float] = []
    staleness_curve: list[dict[str, float]] = []
    for delta in deltas:
        report = verifier.apply_tick(delta)
        row = {
            "epoch": report.epoch,
            "n_sites": report.n_sites,
            "n_changed": report.n_changed,
            "n_removed": report.n_removed,
            "churn_fraction": (
                (report.n_changed + report.n_removed) / report.n_sites
            ),
            "seconds": report.seconds,
            "rank_sweeps": report.rank_sweeps,
            "retrained": report.retrained,
        }
        if report.epoch % full_every == 0 or report.epoch == len(deltas):
            full_start = time.perf_counter()
            full = verifier.full_recompute()
            full_s = time.perf_counter() - full_start
            full_times.append(full_s)
            staleness = verifier.staleness_against(full)
            row["full_recompute_seconds"] = full_s
            row["staleness"] = staleness
            staleness_curve.append(
                {"epoch": report.epoch, "staleness": staleness}
            )
        ticks.append(row)

    equivalence = _check_equivalences(verifier)
    tick_times = [row["seconds"] for row in ticks]
    median_tick = statistics.median(tick_times)
    median_full = statistics.median(full_times)
    return {
        "scale": scale,
        "n_base_sites": n_base,
        "n_ticks": len(deltas),
        "full_every": full_every,
        "bootstrap_seconds": bootstrap_s,
        "median_tick_seconds": median_tick,
        "median_full_recompute_seconds": median_full,
        "speedup": median_full / median_tick,
        "mean_churn_fraction": statistics.fmean(
            row["churn_fraction"] for row in ticks
        ),
        "n_retrains": sum(1 for row in ticks if row["retrained"]),
        "staleness_curve": staleness_curve,
        "equivalence": equivalence,
        "ticks": ticks,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="small",
        help="corpus + stream shape (default: small, a simulated year)",
    )
    parser.add_argument(
        "--output",
        default="benchmarks/output/BENCH_stream.json",
        help="result JSON path",
    )
    parser.add_argument(
        "--full-every", type=int, default=None,
        help="run the full-recompute baseline every N ticks "
        "(default: the scale's own cadence)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="exit non-zero when median-full / median-tick falls below "
        "this (0 disables the gate)",
    )
    args = parser.parse_args(argv)

    full_every = (
        args.full_every
        if args.full_every is not None
        else SCALES[args.scale]["full_every"]
    )
    if full_every < 1:
        parser.error("--full-every must be >= 1")
    result = run(args.scale, full_every)
    payload = {"benchmark": "repro-stream", **result}
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(output, json.dumps(payload, indent=2) + "\n")
    print(
        f"{result['n_base_sites']} base sites, {result['n_ticks']} ticks, "
        f"mean churn {result['mean_churn_fraction']:.1%}"
    )
    print(
        f"median tick {result['median_tick_seconds']:.4f}s vs full "
        f"{result['median_full_recompute_seconds']:.4f}s — "
        f"speedup {result['speedup']:.2f}x"
    )
    print(f"wrote {output}")
    if args.min_speedup > 0 and result["speedup"] < args.min_speedup:
        print(
            f"GATE FAIL: speedup {result['speedup']:.2f}x "
            f"< {args.min_speedup:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
