"""Speed floor: no fast kernel is slower than the loop it replaced.

Each case runs a vectorized kernel and its pure-Python reference
(:mod:`tests.reference`) on small fixed inputs, takes the best of
``REPEAT`` timings of each (every repeat times the fast run, then the
reference run, so host load lands on both sides alike), asserts the two
outputs are equivalent, and requires reference time / fast time >=
``MIN_SPEEDUP``.  The sweep
case's reference is the library's per-entry cross-validation
(``cross_validate_pipeline`` over one ``TfidfTextPipeline`` per roster
entry and term subset); the ``stream_weekly`` SVM case's is the
test-only scipy-indexing Pegasos loop from ``tests.perf``; the synthesis
case's is the per-draw ``tests.reference.ReferenceWebGenerator``.  Tier-1 runs
``tables.table12`` end to end (``tests/experiments/test_tables.py``).

Run from the repo root::

    PYTHONPATH=src python -m pytest benchmarks/test_kernel_speed_floor.py -q
"""

from __future__ import annotations

import functools
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import tests.reference as ref
from repro.core.config import ExperimentConfig, preset
from repro.core.evaluation import cross_validate_pipeline
from repro.core.text_pipeline import TfidfTextPipeline
from repro.core.verifier import PharmacyVerifier
from repro.data.loaders import make_dataset
from repro.data.sharding import _build_planned_site, plan_domains, plan_site
from repro.data.synthesis import PharmacyRecord, SyntheticWebGenerator
from repro.experiments import tables
from repro.experiments.sweep import run_tfidf_sweep
from repro.io import parse_site_row, site_record_to_row
from repro.ml.base import ensure_dense
from repro.ml.ensemble import EnsembleSelection, LibraryModel
from repro.ml.sampling import SMOTE
from repro.ml.svm import LinearSVC, pegasos_weights
from repro.ml.tree import C45Tree
from repro.network.construction import build_pharmacy_graph
from repro.network.graph import DirectedGraph
from repro.network.pagerank import personalized_pagerank
from repro.text.ngram_graph import ClassGraphModel, NGramGraph
from repro.text.summarization import SummaryDocument
from repro.text.term_vector import TfidfVectorizer
from repro.text import tokenization
from repro.web.url import parse_url
from tests.perf.test_ml_equivalence import scipy_indexing_pegasos, stream_weekly_matrix

REPEAT = 3
MIN_SPEEDUP = 1.0


def _speedup(case):
    """``(reference s / fast s, fast s, reference s)``, best of ``REPEAT`` each.

    The fast and reference runs alternate within each repeat; their
    last outputs must pass the case's check.
    """
    fast, reference, check = case()
    fast_s = reference_s = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        fast_out = fast()
        middle = time.perf_counter()
        reference_out = reference()
        reference_s = min(reference_s, time.perf_counter() - middle)
        fast_s = min(fast_s, middle - start)
    check(fast_out, reference_out)
    return reference_s / fast_s, fast_s, reference_s


def _same(fast, reference):
    assert fast == reference, "fast and reference outputs differ"


@functools.cache
def _corpus():
    return make_dataset(preset("tiny").generator)


def _documents(n_docs=20):
    """Merged page texts and labels of the first ``n_docs`` sites."""
    corpus = _corpus()
    texts = [" ".join(p.text for p in site.pages) for site in corpus.sites]
    return texts[:n_docs], [int(y) for y in corpus.labels[:n_docs]]


def ngg_build():
    texts, _ = _documents()
    return (
        lambda: [NGramGraph.from_text(t) for t in texts],
        lambda: [ref.ReferenceNGramGraph.from_text(t) for t in texts],
        lambda f, r: _same([dict(g.edges()) for g in f], [g.edges() for g in r]),
    )


def ngg_batch_similarity():
    texts, labels = _documents()
    model = ClassGraphModel(class_sample_fraction=1.0).fit(texts, labels)
    doc_graphs = [NGramGraph.from_text(t) for t in texts]
    ref_docs = [ref.ReferenceNGramGraph.from_text(t) for t in texts]
    merged = ref.ReferenceNGramGraph.merged
    ref_class = [merged([g for g, y in zip(ref_docs, labels) if y == c]) for c in model.classes]

    def reference():
        out = np.zeros((len(ref_docs), 4 * len(ref_class)))
        for k, class_graph in enumerate(ref_class):
            for row, doc in enumerate(ref_docs):
                out[row, 4 * k : 4 * k + 4] = doc.similarities(class_graph)
        return out

    return (
        lambda: model.transform_graphs(doc_graphs),
        reference,
        lambda f, r: np.testing.assert_allclose(f, r, atol=1e-9),
    )


def _pagerank_case(graph, teleport):
    def check(fast, reference):
        assert max(abs(fast[n] - reference[n]) for n in reference) < 1e-9

    return (
        lambda: personalized_pagerank(graph, teleport=teleport),
        lambda: ref.reference_personalized_pagerank(graph, teleport=teleport),
        check,
    )


def trustrank(n_nodes=400, n_edges=2_000):
    rng = np.random.default_rng(7)
    graph = DirectedGraph()
    names = [f"d{i}.example" for i in range(n_nodes)]
    for name in names:
        graph.add_node(name)
    for s, d in zip(rng.integers(0, n_nodes, n_edges), rng.integers(0, n_nodes, n_edges)):
        if s != d:
            graph.add_edge(names[s], names[d])
    return _pagerank_case(graph, {name: 1.0 for name in names[::10]})


def trustrank_corpus_graph():
    corpus = _corpus()
    trusted = {d: 1.0 for d, y in zip(corpus.domains, corpus.labels) if int(y) == 1}
    return _pagerank_case(build_pharmacy_graph(corpus.sites), trusted)


def svm_fit(n_rows=150, n_features=100):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(n_rows, n_features))
    signs = np.where(rng.random(n_rows) < 0.5, -1.0, 1.0)
    X += 0.5 * signs[:, None]
    args = (X, signs, np.ones(n_rows))
    kwargs = dict(lam=1e-4, n_epochs=10, seed=0, batch_size=32)
    return (
        lambda: pegasos_weights(*args, **kwargs),
        lambda: ref.reference_pegasos_fit(*args, **kwargs),
        lambda f, r: np.testing.assert_allclose(f, r, atol=1e-9),
    )


def svm_fit_sparse():
    """The CSR kernel on the TF-IDF rows of the ``tiny`` corpus."""
    corpus = _corpus()
    tokens = [" ".join(p.text for p in site.pages).split() for site in corpus.sites]
    X = TfidfVectorizer().fit_transform(tokens)
    signs = np.where(np.asarray(corpus.labels) == 1, 1.0, -1.0)
    args = (X, signs, np.ones(X.shape[0]))
    kwargs = dict(lam=1e-4, n_epochs=10, seed=0, batch_size=32)
    return (
        lambda: pegasos_weights(*args, **kwargs),
        lambda: ref.reference_pegasos_fit(*args, **kwargs),
        lambda f, r: np.testing.assert_allclose(f, r, atol=1e-9),
    )


def svm_fit_stream_weekly():
    """The CSR kernel on ``stream_weekly``'s seed-1 live matrix, cold fit.

    Its reference is the scipy-indexing loop the raw-array kernel
    replaced, and the weights must be bit-equal.
    """
    X, y = stream_weekly_matrix()
    X, signs, sample_weight = LinearSVC()._prepare(X, y)
    args = (X, signs, sample_weight)
    kwargs = dict(lam=1e-4, n_epochs=30, seed=0, batch_size=32)
    return (
        lambda: pegasos_weights(*args, **kwargs),
        lambda: scipy_indexing_pegasos(*args, **kwargs),
        np.testing.assert_array_equal,
    )


def tree_fit(n_rows=200, n_features=40):
    X = np.random.default_rng(13).normal(size=(n_rows, n_features))
    y = ((X[:, 0] + 0.5 * X[:, 1] - 0.25 * X[:, 2]) > 0.0).astype(np.int64)
    return (
        lambda: C45Tree(seed=0).fit(X, y),
        lambda: ref.ReferenceC45Tree(seed=0).fit(X, y),
        lambda f, r: _same(
            (f.to_text(), f.predict(X).tolist()), (r.to_text(), r.predict(X).tolist())
        ),
    )


def ensemble_select(n_models=16, n_instances=120):
    rng = np.random.default_rng(17)
    y = (rng.random(n_instances) < 0.3).astype(np.int64)
    predictions = {}
    for m in range(n_models):
        noise = rng.normal(scale=0.35 + 0.02 * m, size=n_instances)
        p = np.clip(0.65 * y + 0.2 + noise, 0.0, 1.0)
        predictions[f"m{m:03d}"] = np.column_stack([1.0 - p, p])
    library = [
        LibraryModel(name=name, predict_proba=lambda idx, arr=arr: arr[idx])
        for name, arr in predictions.items()
    ]
    return (
        lambda: EnsembleSelection().fit(library, np.arange(n_instances), y).bag_counts,
        lambda: ref.reference_ensemble_select(predictions, y),
        _same,
    )


def smote(n_minority=60, n_features=30):
    rng = np.random.default_rng(19)
    X_min = rng.normal(size=(n_minority, n_features))
    X = np.vstack([X_min, rng.normal(loc=1.5, size=(3 * n_minority, n_features))])
    y = np.repeat(np.array([1, 0], dtype=np.int64), [n_minority, 3 * n_minority])
    return (
        lambda: SMOTE(seed=0).fit_resample(X, y),
        lambda: ref.ReferenceSMOTE(seed=0).fit_resample(X, y),
        lambda f, r: [np.testing.assert_array_equal(a, b) for a, b in zip(f, r, strict=True)],
    )


def densify(n_rows=2_000, n_features=600):
    X = sp.random(n_rows, n_features, density=0.05, format="csr", random_state=11)
    counts = (X * 20).astype(np.int64)

    def check(fast, reference):
        np.testing.assert_array_equal(fast, reference)
        assert fast.dtype == reference.dtype == np.float64

    return lambda: ensure_dense(counts), lambda: ref.reference_ensure_dense(counts), check


def tokenize():
    """Every merged page text of the ``tiny`` corpus."""
    texts, _ = _documents(n_docs=None)
    return (
        lambda: [tokenization.tokenize(t) for t in texts],
        lambda: [ref.reference_tokenize(t) for t in texts],
        _same,
    )


def row_endpoints():
    """Every ``tiny`` site as a shard row, from a cold ``parse_url`` cache."""
    corpus = _corpus()
    rows = [
        parse_site_row(site_record_to_row(site, PharmacyRecord(site.domain, int(y))))
        for site, y in zip(corpus.sites, corpus.labels)
    ]

    def cold(endpoints):
        parse_url.cache_clear()
        return [endpoints(row) for row in rows]

    return (
        lambda: cold(lambda row: row.outbound_endpoints()),
        lambda: cold(ref.reference_row_endpoints),
        _same,
    )


@functools.cache
def _paper_profile_world():
    """200 sites with the ``paper`` preset's pages, and a verifier fitted on half."""
    corpus = make_dataset(
        replace(preset("paper").generator, n_legitimate=20, n_illegitimate=180,
                n_affiliate_hubs=4)
    )
    verifier = PharmacyVerifier().fit(corpus.subset(np.arange(0, len(corpus), 2)))
    return list(corpus.sites), verifier


def score_tokens():
    """The verifier's text scores straight from tokens, on ``paper``-profile sites.

    The sites have 5-14 pages of 80-180 terms, so 129 of the 200 (64.5%)
    exceed the default ``max_terms=1000`` and 127 of them (63.5%) are
    still above it after the stop filter: those take the subsample
    branch, the rest score from their raw token lists.
    """
    sites, verifier = _paper_profile_world()

    def scores(scored):
        return [scored.labels.tolist(), scored.scores.tolist(), scored.proba.tolist(),
                scored.rank.tolist()]

    return (
        lambda: scores(verifier._text_scores(sites)),
        lambda: scores(ref.reference_score_text(verifier, sites)),
        _same,
    )


def synthesize_sites():
    """300 planned sites of the ``batch_rank`` shape, each from its own RNG.

    The ``large`` preset's profile (2-3 pages of 30-60 terms), as
    ``write_shards`` builds them: the batched generator against the one
    that makes one ``Generator.choice`` or ``random`` call per draw.
    """
    config = replace(preset("large").generator, n_legitimate=35, n_illegitimate=265,
                     n_affiliate_hubs=3, seed=41)
    legit, illegit, hubs = plan_domains(config)
    plans = [
        plan_site(config, domain, label, is_hub=domain in hubs, hubs=hubs)
        for domains, label in ((legit, 1), (illegit, 0))
        for domain in domains
    ]

    def build(generator):
        return [_build_planned_site(generator, plan, 1) for plan in plans]

    return (
        lambda: build(SyntheticWebGenerator(config)),
        lambda: build(ref.ReferenceWebGenerator(config)),
        _same,
    )


def sweep_end_to_end(subsets=ExperimentConfig().term_subsets):
    """The tables' TF-IDF grid: every roster entry at every term subset."""
    corpus = _corpus()
    tokens = [" ".join(p.text for p in site.pages).split() for site in corpus.sites]
    by_subset = {n: [t[:n] for t in tokens] for n in subsets}

    def per_entry():
        out = {}
        for n, subset_tokens in by_subset.items():
            docs = [
                SummaryDocument(site.domain, tuple(t), len(t))
                for site, t in zip(corpus.sites, subset_tokens)
            ]
            for e in tables.TFIDF_ROSTER:
                out[(e.name, n)] = cross_validate_pipeline(
                    lambda: TfidfTextPipeline(e.classifier, e.sampler),
                    docs, corpus.labels, n_folds=3, seed=0,
                )
        return out

    shared = functools.partial(
        run_tfidf_sweep, tables.TFIDF_ROSTER, corpus.labels, by_subset, n_folds=3, cv_seed=0
    )
    return shared, per_entry, _same


CASES = (
    ngg_build, ngg_batch_similarity, trustrank, trustrank_corpus_graph, svm_fit,
    svm_fit_sparse, svm_fit_stream_weekly, tree_fit, ensemble_select, smote, densify,
    tokenize, row_endpoints, score_tokens, synthesize_sites, sweep_end_to_end,
)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_fast_kernel_not_slower_than_reference(case):
    speedup, fast_s, reference_s = _speedup(case)
    assert speedup >= MIN_SPEEDUP, f"{speedup:.2f}x: fast {fast_s:.4f}s, loop {reference_s:.4f}s"
