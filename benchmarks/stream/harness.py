"""Oracle pins of a streaming verifier's warm state, kept here because
``perfbench/stream_weekly.py`` imports :func:`_check_equivalences` from
this module; ``benchmarks/test_stream_speed_floor.py`` calls it too."""

from __future__ import annotations

import numpy as np

from repro.network.construction import build_pharmacy_graph
from repro.network.trustrank import trustrank
from repro.stream.crawl import DeltaCrawlStore
from repro.stream.pipeline import StreamingVerifier


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
