"""Where the traced run puts its spans, and the per-layer metrics.

:func:`install` wraps the entry points of each library layer (``data``,
``web``, ``text``, ``ml``, ``network``, ``stream``, ``core``, ``perf``,
``io``) from outside the library; :func:`per_layer_metrics` turns the
recorded spans and counters into the named per-layer metrics.  The
``serve.*`` metrics come from the server's own ``/metrics`` endpoint
and ``trace.overhead_ratio`` from the workload, so both are passed in.
"""

from __future__ import annotations

from typing import Any, Mapping

from perfbench.spans import Tracer

#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("data.shard_read.self_s", "s"),
    ("data.write_shards.self_s", "s"),
    ("data.delta_apply.self_s", "s"),
    ("web.outbound_endpoints.calls", "count"),
    ("web.outbound_endpoints.self_s", "s"),
    ("web.parse_url.hit_ratio", "ratio"),
    ("web.delta_crawl.self_s", "s"),
    ("text.summarize.calls", "count"),
    ("text.summarize.self_s", "s"),
    ("text.tfidf_transform.calls", "count"),
    ("text.tfidf_transform.rows", "count"),
    ("text.tfidf_transform.self_s", "s"),
    ("text.ngg_build.calls", "count"),
    ("text.ngg_build.self_s", "s"),
    ("ml.predict.rows", "count"),
    ("ml.predict.self_s", "s"),
    ("ml.warm_fit.rows", "count"),
    ("ml.warm_fit.self_s", "s"),
    ("ml.fit.self_s", "s"),
    ("network.build_graph.self_s", "s"),
    ("network.trustrank.self_s", "s"),
    ("network.push.self_s", "s"),
    ("network.push.sweeps", "count"),
    ("stream.class_graphs.self_s", "s"),
    ("stream.doc_freq.self_s", "s"),
    ("stream.retrains", "count"),
    ("core.verify_sites.calls", "count"),
    ("core.verify_sites.self_s", "s"),
    ("core.rank_pharmacies.self_s", "s"),
    ("perf.cache.hit_ratio", "ratio"),
    ("perf.cache.load.self_s", "s"),
    ("perf.cache.store.self_s", "s"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.transport_p50_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.rate_limited", "count"),
    ("serve.unhandled_errors", "count"),
    ("io.load_model.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: Metrics a workload supplies itself rather than from spans.
EXTERNAL = (
    "web.parse_url.hit_ratio",
    "stream.retrains",
    "serve.server_p50_ms",
    "serve.server_p99_ms",
    "serve.transport_p50_ms",
    "serve.shed",
    "serve.rate_limited",
    "serve.unhandled_errors",
    "trace.overhead_ratio",
)


def _rows(args: tuple, kwargs: dict, result: Any) -> int:
    """Rows of the matrix argument of an ``ml`` call."""
    X = args[1] if len(args) > 1 else kwargs["X"]
    return int(X.shape[0])


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points; :meth:`Tracer.uninstall` undoes it."""
    import repro.core.ranking
    import repro.core.verifier
    import repro.data.deltas
    import repro.data.sharding
    import repro.io
    import repro.ml.base
    import repro.ml.naive_bayes
    import repro.ml.svm
    import repro.network.construction
    import repro.network.trustrank
    import repro.perf.cache
    import repro.stream.crawl
    import repro.stream.features
    import repro.stream.pipeline
    import repro.stream.rank
    import repro.text.ngram_graph
    import repro.text.summarization
    import repro.text.term_vector
    import repro.web.site

    # data: the shard parse is the one place a shard is read; no public
    # function does only that, so the private parser is the boundary.
    tracer.wrap_method(
        repro.data.sharding.ShardedCorpus, "_parse_shard", "data.shard_read"
    )
    tracer.wrap_function("repro.data.sharding", "write_shards", "data.write_shards")
    tracer.wrap_method(repro.data.deltas.StreamCorpus, "apply", "data.delta_apply")

    # web
    tracer.wrap_method(
        repro.web.site.Website, "outbound_endpoints", "web.outbound_endpoints"
    )
    tracer.wrap_method(repro.stream.crawl.DeltaCrawlStore, "apply", "web.delta_crawl")

    # text
    tracer.wrap_method(
        repro.text.summarization.Summarizer, "summarize_site", "text.summarize"
    )
    tracer.wrap_method(
        repro.text.term_vector.TfidfVectorizer,
        "transform",
        "text.tfidf_transform",
        counter=lambda a, k, r: {"text.tfidf_transform.rows": r.shape[0]},
    )
    tracer.wrap_method(
        repro.text.ngram_graph.NGramGraph, "from_text", "text.ngg_build"
    )

    # ml: every scoring entry point counts as one predict over its rows.
    predict_rows = lambda a, k, r: {"ml.predict.rows": _rows(a, k, r)}  # noqa: E731
    for cls, attr in (
        (repro.ml.base.BaseClassifier, "predict"),
        (repro.ml.base.BaseClassifier, "decision_scores"),
        (repro.ml.naive_bayes.MultinomialNB, "predict_proba"),
        (repro.ml.svm.LinearSVC, "decision_function"),
        (repro.ml.svm.LinearSVC, "predict_proba"),
        (repro.ml.svm.LinearSVC, "decision_scores"),
    ):
        tracer.wrap_method(cls, attr, "ml.predict", counter=predict_rows)
    tracer.wrap_method(repro.ml.naive_bayes.MultinomialNB, "fit", "ml.fit")
    tracer.wrap_method(repro.ml.svm.LinearSVC, "fit", "ml.fit")
    tracer.wrap_method(
        repro.ml.svm.LinearSVC,
        "warm_fit",
        "ml.warm_fit",
        counter=lambda a, k, r: {"ml.warm_fit.rows": _rows(a, k, r)},
    )

    # network
    tracer.wrap_function(
        "repro.network.construction", "build_pharmacy_graph", "network.build_graph"
    )
    tracer.wrap_function("repro.network.trustrank", "trustrank", "network.trustrank")
    tracer.wrap_method(
        repro.stream.rank.DeltaRankState,
        "push",
        "network.push",
        counter=lambda a, k, r: {"network.push.sweeps": r},
    )

    # stream: the maintained class graphs and document frequencies.
    for attr in ("add", "remove", "replace"):
        tracer.wrap_method(
            repro.stream.features.IncrementalClassGraphs, attr, "stream.class_graphs"
        )
        tracer.wrap_method(
            repro.stream.features.IncrementalDocumentFrequencies,
            attr,
            "stream.doc_freq",
        )

    # core
    tracer.wrap_method(
        repro.core.verifier.PharmacyVerifier, "verify_sites", "core.verify_sites"
    )
    tracer.wrap_function(
        "repro.core.ranking", "rank_pharmacies", "core.rank_pharmacies"
    )

    # perf: the verdict cache.
    tracer.wrap_method(
        repro.perf.cache.FeatureCache,
        "load",
        "perf.cache.load",
        counter=lambda a, k, r: {
            "perf.cache.loads": 1,
            "perf.cache.hits": int(r is not None),
        },
    )
    tracer.wrap_method(repro.perf.cache.FeatureCache, "store", "perf.cache.store")

    # io
    tracer.wrap_function("repro.io", "load_model", "io.load_model")


def per_layer_metrics(
    tracer: Tracer, external: Mapping[str, float]
) -> dict[str, dict[str, object]]:
    """Every :data:`PER_LAYER` metric; a layer the workload never
    entered reads 0.
    """
    stats = tracer.by_name()
    counters = tracer.counters
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        if name in EXTERNAL:
            values[name] = float(external.get(name, 0.0))
            continue
        layer, _, kind = name.rpartition(".")
        calls, seconds = stats.get(layer, (0, 0.0))
        if kind == "self_s":
            values[name] = seconds
        elif kind == "calls":
            values[name] = float(calls)
        elif kind == "hit_ratio":
            loads = counters.get(f"{layer}.loads", 0)
            values[name] = counters.get(f"{layer}.hits", 0) / loads if loads else 0.0
        else:
            values[name] = float(counters.get(name, 0))
    return {
        name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER
    }
