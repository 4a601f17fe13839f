"""Layer wrappers are transparent: traced verdicts equal untraced ones."""

import json
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.common import END_TO_END
from perfbench.spans import Tracer
from repro.core.verifier import PharmacyVerifier
from repro.data import GeneratorConfig
from repro.data.loaders import make_dataset

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def corpus():
    return make_dataset(
        GeneratorConfig(
            n_legitimate=6,
            n_illegitimate=24,
            n_affiliate_hubs=2,
            min_pages=2,
            max_pages=3,
            min_terms_per_page=30,
            max_terms_per_page=60,
            seed=3,
        )
    )


def _verdicts(corpus):
    verifier = PharmacyVerifier().fit(corpus)
    reports = verifier.verify_sites(list(corpus.sites))
    ranking = verifier.rank_sites(list(corpus.sites), list(corpus.labels))
    return reports, ranking


def test_traced_verdicts_equal_untraced(corpus):
    plain_reports, plain_ranking = _verdicts(corpus)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced_reports, traced_ranking = _verdicts(corpus)
    finally:
        tracer.uninstall()
    assert traced_reports == plain_reports
    assert traced_ranking == plain_ranking
    names = {span.name for span in tracer.spans}
    assert {"core.verify_sites", "text.summarize", "ml.predict", "ml.fit"} <= names


def test_wrappers_return_the_wrapped_result_object():
    import repro.web.site

    site = repro.web.site.Website(domain="example.com")
    tracer = Tracer()
    sentinel = object()
    original = repro.web.site.Website.outbound_endpoints
    try:
        repro.web.site.Website.outbound_endpoints = lambda self: sentinel
        tracer.wrap_method(
            repro.web.site.Website, "outbound_endpoints", "web.outbound_endpoints"
        )
        assert site.outbound_endpoints() is sentinel
    finally:
        tracer.uninstall()
        repro.web.site.Website.outbound_endpoints = original


def test_uninstall_restores_every_layer():
    import repro.core.verifier
    import repro.io
    import repro.text.ngram_graph

    before = (
        repro.core.verifier.PharmacyVerifier.__dict__["verify_sites"],
        repro.text.ngram_graph.NGramGraph.__dict__["from_text"],
        repro.io.load_model,
        repro.core.verifier.rank_pharmacies,
    )
    tracer = Tracer()
    layers.install(tracer)
    tracer.uninstall()
    after = (
        repro.core.verifier.PharmacyVerifier.__dict__["verify_sites"],
        repro.text.ngram_graph.NGramGraph.__dict__["from_text"],
        repro.io.load_model,
        repro.core.verifier.rank_pharmacies,
    )
    assert after == before


def test_every_per_layer_metric_is_reported():
    metrics = layers.per_layer_metrics(Tracer(), {})
    assert list(metrics) == [name for name, _ in layers.PER_LAYER]


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
