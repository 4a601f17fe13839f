"""Speed floor and oracle pins of a short simulated stream.

A 30-site corpus takes 8 weekly ticks of births, deaths, text drift
and link rewiring through a
:class:`~repro.stream.pipeline.StreamingVerifier`.  Every 4th tick
(and the last) also times the cold ``full_recompute`` that a
non-incremental system would pay per snapshot.  The median full
recompute must take at least ``MIN_SPEEDUP`` times the median
incremental tick, and the final warm state must match its
from-scratch oracles (see
:func:`benchmarks.stream.harness._check_equivalences`).

Run from the repo root::

    PYTHONPATH=src python -m pytest benchmarks/test_stream_speed_floor.py -q
"""

from __future__ import annotations

import statistics
import time

import pytest

from benchmarks.stream.harness import _check_equivalences
from repro.data.deltas import StreamConfig, StreamCorpus, plan_deltas
from repro.data.synthesis import GeneratorConfig
from repro.stream.pipeline import StreamingVerifier

GENERATOR = GeneratorConfig(
    n_legitimate=10, n_illegitimate=20, n_affiliate_hubs=3, min_pages=3, max_pages=5,
    min_terms_per_page=40, max_terms_per_page=80, seed=11,
)
STREAM = StreamConfig(
    n_ticks=8, birth_fraction=0.02, death_fraction=0.01, drift_fraction=0.015,
    rewire_fraction=0.015,
)
FULL_EVERY = 4
MIN_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def stream_run():
    """The verifier after every tick, plus tick and full-recompute seconds."""
    deltas = plan_deltas(GENERATOR, STREAM)
    verifier = StreamingVerifier(StreamCorpus.generate(GENERATOR))
    verifier.bootstrap()
    tick_s, full_s = [], []
    for delta in deltas:
        report = verifier.apply_tick(delta)
        tick_s.append(report.seconds)
        if report.epoch % FULL_EVERY == 0 or report.epoch == len(deltas):
            start = time.perf_counter()
            verifier.full_recompute()
            full_s.append(time.perf_counter() - start)
    return verifier, tick_s, full_s


def test_incremental_tick_beats_full_recompute(stream_run):
    _, tick_s, full_s = stream_run
    speedup = statistics.median(full_s) / statistics.median(tick_s)
    assert speedup >= MIN_SPEEDUP, f"{speedup:.2f}x < {MIN_SPEEDUP}x"


def test_warm_state_matches_oracles(stream_run):
    verifier, _, _ = stream_run
    _check_equivalences(verifier)  # raises AssertionError on any drift
