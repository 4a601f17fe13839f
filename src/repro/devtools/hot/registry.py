"""Rule catalogue and shared configuration for ``repro-hot``.

The hot-path analyzer guards one property of the shipping code: the
feature/ranking/ML pipeline stays sparse on the paths a large run
exercises (P007).

Findings are suppressed with ``# repro-hot: disable=P007`` comments
(same syntax as repro-lint/repro-flow/repro-conc, different marker).
"""

from __future__ import annotations

__all__ = [
    "HOT_RULES",
    "SUPPRESSION_MARKER",
    "HOT_ENTRY_SUFFIXES",
    "DEPTH_BASE",
    "MAX_DEPTH_WEIGHTED",
]

#: Marker recognised in suppression comments.
SUPPRESSION_MARKER = "repro-hot"

HOT_RULES: dict[str, str] = {
    "P007": (
        ".toarray()/.todense() densification reachable from a hot entry "
        "point — keep the operand sparse or densify once outside loops"
    ),
}

#: Dotted-qualname suffixes that mark hot entry points: a project
#: function whose qualified name ends with one of these (on a ``.``
#: boundary) roots the reachability pass of the cost model.  They cover
#: the sweep driver, the serving path, the crawl loop, and the kernels
#: the perf benchmark harness drives directly.
HOT_ENTRY_SUFFIXES: tuple[str, ...] = (
    "sweep.run_tfidf_sweep",
    # the per-grid-cell kernel run_tfidf_sweep dispatches through pmap
    # (first-class function passing is invisible to the call graph)
    "sweep.run_fold",
    "verifier.PharmacyVerifier.verify_sites",
    "crawler.Crawler.crawl_site",
    "svm.pegasos_weights",
    "ngram_graph.ClassGraphModel.transform",
    "metrics.auc_roc_many",
    # the serving request path: every HTTP request funnels through the
    # handler dispatch and the service batch entry point (registered
    # explicitly since BaseHTTPRequestHandler invokes do_GET/do_POST
    # reflectively, invisible to the call graph)
    "http.VerificationRequestHandler._dispatch",
    "service.VerificationService.verify_batch",
    # the million-site scale-out inner loops: the per-block SpMV runs
    # once per block per power iteration through a process pool (the
    # pool.map dispatch is invisible to the call graph), and the shard
    # writer is the pmap worker behind sharded corpus generation
    "blockrank._block_spmv",
    "sharding._write_shard_worker",
    # the incremental-stream tick path: delta application materializes
    # changed sites every tick, and the residual push is the per-tick
    # TrustRank kernel (driven by `repro stream`, invisible to the
    # call graph from the batch entries)
    "deltas.StreamCorpus.apply",
    "rank.DeltaRankState.push",
)

#: Cost model: ``cost = DEPTH_BASE**min(depth, MAX_DEPTH_WEIGHTED) *
#: reach``, where ``reach`` is ``1/(1+distance)`` (distance = calls from
#: the nearest hot entry).  Base 4 approximates "each loop level
#: multiplies the iteration count".
DEPTH_BASE = 4
MAX_DEPTH_WEIGHTED = 4
