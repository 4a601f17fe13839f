"""Streaming & incremental verification (ROADMAP item 1).

The batch pipeline recomputes everything from scratch per snapshot;
this package makes per-tick cost scale with the size of the *change*:

* :mod:`repro.stream.crawl` — re-crawl only the domains a delta
  touched, resuming interrupted crawls from their checkpoints.
* :mod:`repro.stream.features` — exact incremental TF-IDF document
  frequencies (add/subtract a site's contribution, not a refit).
* :mod:`repro.stream.rank` — push-based delta TrustRank: residuals
  from edited edges propagate over row-blocked CSR state instead of
  re-running full power iteration.
* :mod:`repro.stream.drift` — feature-shift and verdict-flip-rate
  detection deciding when a full retrain is due.
* :mod:`repro.stream.pipeline` — :class:`StreamingVerifier`, wiring
  the above into bootstrap / apply_tick / full_retrain, with
  :meth:`~repro.stream.pipeline.StreamingVerifier.full_recompute` as
  the from-scratch oracle the equivalence tests and the
  ``benchmarks/stream`` harness compare against.

Snapshot deltas themselves are planned and applied by
:mod:`repro.data.deltas` (data layer); this package consumes them.
"""

from repro.stream.crawl import DeltaCrawlStore
from repro.stream.drift import DriftDetector, DriftReport
from repro.stream.features import (
    IncrementalClassGraphs,
    IncrementalDocumentFrequencies,
)
from repro.stream.pipeline import FullPipelineState, StreamingVerifier, TickReport
from repro.stream.rank import DeltaRankState

__all__ = [
    "DeltaCrawlStore",
    "DeltaRankState",
    "DriftDetector",
    "DriftReport",
    "FullPipelineState",
    "IncrementalClassGraphs",
    "IncrementalDocumentFrequencies",
    "StreamingVerifier",
    "TickReport",
]
