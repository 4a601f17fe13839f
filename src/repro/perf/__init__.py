"""Performance layer: caching and deterministic parallelism.

The hot paths of the reproduction — N-Gram-Graph similarity
(:mod:`repro.text.ngram_graph`), TrustRank power iteration
(:mod:`repro.network.pagerank`), and the ML training/inference engine
(mini-batch Pegasos in :mod:`repro.ml.svm`, the C4.5 split search in
:mod:`repro.ml.tree`, batched ensemble hill-climbing in
:mod:`repro.ml.ensemble`, chunked SMOTE in :mod:`repro.ml.sampling`,
the batched TF-IDF transform in :mod:`repro.text.term_vector`) — are
vectorized in place; sweep-level compute sharing lives in
:mod:`repro.experiments.sweep`.  This package holds the supporting
infrastructure:

* :mod:`repro.perf.cache` — content-addressed on-disk feature
  memoization, keyed by (content hash, extractor params, code version).
* :mod:`repro.perf.parallel` — an order-stable, seed-safe process-pool
  ``pmap`` with a serial fallback.

The pre-optimization pure-Python loops these kernels replaced live
beside the tests (``tests/reference.py``), as the equivalence oracle
for the property tests and the baseline the kernel speed floors time.
"""

from repro.perf.cache import FeatureCache, content_fingerprint
from repro.perf.parallel import (
    WorkerPool,
    default_chunksize,
    pmap,
    resolve_jobs,
)
from repro.perf.store import MatrixStore

__all__ = [
    "FeatureCache",
    "MatrixStore",
    "WorkerPool",
    "content_fingerprint",
    "default_chunksize",
    "pmap",
    "resolve_jobs",
]
