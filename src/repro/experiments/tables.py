"""Regeneration of every table in the paper's evaluation (Section 6).

Each ``tableN(config)`` function returns a
:class:`~repro.experiments.results.TableResult` whose rows mirror the
paper's table.  Expensive computations (dataset generation, the TF-IDF
and N-Gram-Graph sweeps) are cached per :class:`ExperimentConfig`, so
requesting tables 3–6 runs the underlying sweep once.

The harness evaluates each classifier with the sampling strategy the
paper reports for it (Table 2 / Section 6.3.1): NBM and SVM on the
natural distribution, J48 with SMOTE; N-Gram-Graph classifiers without
resampling.
"""

from __future__ import annotations

import logging
import time
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.core.config import ExperimentConfig
from repro.core.ensemble_pipeline import EnsembleClassificationPipeline
from repro.core.evaluation import (
    AggregatedReport,
    cross_validate_indexed,
    train_test_evaluate,
)
from repro.core.network_pipeline import NetworkClassificationPipeline
from repro.core.ranking import rank_pharmacies
from repro.core.text_pipeline import TfidfTextPipeline, similarity_rank
from repro.data.corpus import PharmacyCorpus
from repro.data.loaders import make_dataset_pair
from repro.experiments.results import TableResult, term_subset_header
from repro.experiments.sweep import SweepEntry, run_tfidf_sweep
from repro.ml.base import BaseClassifier, clone
from repro.ml.metrics import BinaryClassificationReport, classification_report
from repro.ml.mlp import MLPClassifier
from repro.ml.model_selection import StratifiedKFold
from repro.ml.naive_bayes import GaussianNB, MultinomialNB
from repro.ml.sampling import SMOTE
from repro.ml.svm import LinearSVC
from repro.ml.tree import C45Tree
from repro.network.construction import build_pharmacy_graph
from repro.network.graph import DirectedGraph
from repro.perf.cache import FeatureCache, content_fingerprint
from repro.perf.parallel import pmap
from repro.text.ngram_graph import ClassGraphModel, NGramGraph
from repro.text.summarization import Summarizer, SummaryDocument
from repro.exceptions import ValidationError

logger = logging.getLogger(__name__)

__all__ = [
    "table1",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table11",
    "table12",
    "table13",
    "table14",
    "table15",
    "table16",
    "table17",
    "clear_cache",
]

# ---------------------------------------------------------------------------
# Experiment-level cache (keyed on the frozen ExperimentConfig).
# ---------------------------------------------------------------------------

_CACHE: dict[tuple, object] = {}


def clear_cache() -> None:
    """Drop all cached experiment artifacts."""
    _CACHE.clear()


def _cached(key: tuple, builder: Callable[[], object]) -> object:
    if key not in _CACHE:
        start = time.time()
        _CACHE[key] = builder()
        logger.info("computed %s in %.1fs", key[0], time.time() - start)
    return _CACHE[key]


def _dataset_pair(config: ExperimentConfig) -> tuple[PharmacyCorpus, PharmacyCorpus]:
    return _cached(
        ("datasets", config),
        lambda: make_dataset_pair(config.generator),
    )  # type: ignore[return-value]


#: Disk caches by directory (so stats aggregate across experiments).
_DISK_CACHES: dict[str, FeatureCache] = {}


def _feature_cache(config: ExperimentConfig) -> FeatureCache | None:
    """The configured on-disk feature cache, or ``None`` when disabled."""
    if not config.cache_dir:
        return None
    return _DISK_CACHES.setdefault(config.cache_dir, FeatureCache(config.cache_dir))


def _corpus_fingerprint(config: ExperimentConfig, corpus: PharmacyCorpus) -> str:
    """Content fingerprint of a corpus's text (for disk-cache keys)."""

    def build() -> str:
        parts: list[str] = []
        for site in corpus.sites:
            parts.append(site.domain)
            for page in site.pages:
                parts.append(page.url)
                parts.append(page.text)
        return content_fingerprint(parts)

    return _cached(("fingerprint", config, corpus.name), build)  # type: ignore[return-value]


def _summarize_site(site, max_terms: int | None, seed: int) -> SummaryDocument:
    """Summarize one site (module-level so ``pmap`` can pickle it).

    The summarizer's subsample RNG is keyed on (seed, domain), so
    per-site calls are bit-identical to batch summarization at any
    worker count.
    """
    return Summarizer(max_terms=max_terms, seed=seed).summarize_site(site)


def _documents(
    config: ExperimentConfig, corpus: PharmacyCorpus, max_terms: int | None
) -> list[SummaryDocument]:
    def build() -> list[SummaryDocument]:
        def compute() -> list[SummaryDocument]:
            summarize = partial(
                _summarize_site, max_terms=max_terms, seed=config.summary_seed
            )
            return pmap(summarize, corpus.sites, jobs=config.jobs)

        disk = _feature_cache(config)
        if disk is None:
            return compute()
        key = disk.key(
            "summary-docs",
            _corpus_fingerprint(config, corpus),
            {"max_terms": max_terms, "seed": config.summary_seed},
        )
        return disk.get_or_compute(key, compute)

    return _cached(("docs", config, corpus.name, max_terms), build)  # type: ignore[return-value]


def _document_graphs(
    config: ExperimentConfig,
    corpus: PharmacyCorpus,
    max_terms: int | None,
    n: int = 4,
    window: int = 4,
) -> list[NGramGraph]:
    """Per-document n-gram graphs of a corpus's summary documents.

    Built once per (config, corpus, subset, n, window) — memoized
    in-process and, when a cache directory is configured, on disk —
    so CV folds and ablation suites share one construction pass.
    """

    def build() -> list[NGramGraph]:
        docs = _documents(config, corpus, max_terms)

        def compute() -> list[NGramGraph]:
            make_graph = partial(NGramGraph.from_text, n=n, window=window)
            return pmap(make_graph, [doc.text for doc in docs], jobs=config.jobs)

        disk = _feature_cache(config)
        if disk is None:
            return compute()
        key = disk.key(
            "ngg-doc-graphs",
            _corpus_fingerprint(config, corpus),
            {
                "max_terms": max_terms,
                "seed": config.summary_seed,
                "n": n,
                "window": window,
            },
        )
        return disk.get_or_compute(key, compute)

    return _cached(
        ("doc-graphs", config, corpus.name, max_terms, n, window), build
    )  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Classifier rosters: picklable unfitted prototypes, cloned per fit (so the
# sweep scheduler can ship them to pmap worker processes).
# ---------------------------------------------------------------------------

TFIDF_ROSTER: tuple[SweepEntry, ...] = (
    SweepEntry("NBM", "NO", MultinomialNB()),
    SweepEntry("SVM", "NO", LinearSVC(seed=0)),
    SweepEntry(
        "J48", "SMOTE", C45Tree(max_candidate_features=400), SMOTE(seed=0)
    ),
)

NGG_ROSTER: tuple[tuple[str, str, BaseClassifier], ...] = (
    ("NB", "NO", GaussianNB()),
    # No loss re-weighting: the paper's SMO runs on the natural
    # distribution here, which yields its characteristic NGG-SVM shape
    # (near-perfect illegitimate recall, weaker legitimate recall).
    ("SVM", "NO", LinearSVC(class_weight=None, seed=0)),
    ("J48", "NO", C45Tree()),
    ("MLP", "NO", MLPClassifier(seed=0)),
)


# ---------------------------------------------------------------------------
# Core sweeps
# ---------------------------------------------------------------------------


def _link_graph(config: ExperimentConfig, corpus: PharmacyCorpus) -> DirectedGraph:
    """The corpus link graph, built once per (config, corpus).

    The graph depends only on the working set — not on fold seeds — so
    every CV fold's TrustRank pipeline shares this single construction.
    """
    return _cached(
        ("linkgraph", config, corpus.name),
        lambda: build_pharmacy_graph(corpus.sites),
    )  # type: ignore[return-value]


def _tfidf_sweep(
    config: ExperimentConfig, corpus_name: str = "dataset1"
) -> dict[tuple[str, int | None], AggregatedReport]:
    """3-fold CV of every TF-IDF roster entry at every term-subset size.

    Delegates to the :mod:`repro.experiments.sweep` scheduler, which
    fits each (subset, fold)'s feature matrices once and shares them
    across the roster.
    """

    def build() -> dict[tuple[str, int | None], AggregatedReport]:
        corpus = _corpus_by_name(config, corpus_name)
        tokens_by_subset = {
            subset: [doc.tokens for doc in _documents(config, corpus, subset)]
            for subset in config.term_subsets
        }
        disk = _feature_cache(config)
        return run_tfidf_sweep(
            TFIDF_ROSTER,
            corpus.labels,
            tokens_by_subset,
            n_folds=config.n_folds,
            cv_seed=config.cv_seed,
            jobs=config.jobs,
            cache=disk,
            cache_fingerprint=(
                _corpus_fingerprint(config, corpus) if disk is not None else None
            ),
        )

    return _cached(("tfidf", config, corpus_name), build)  # type: ignore[return-value]


def _ngg_sweep(
    config: ExperimentConfig,
) -> dict[tuple[str, int | None], AggregatedReport]:
    """3-fold CV of every N-Gram-Graph roster entry per term subset.

    Per the paper: no resampling; class graphs built from a random half
    of the training instances; every instance (train and test) is then
    mapped to its similarity features against the class graphs.
    """

    def build() -> dict[tuple[str, int | None], AggregatedReport]:
        corpus, _ = _dataset_pair(config)
        y = corpus.labels
        results: dict[tuple[str, int | None], list[BinaryClassificationReport]] = {
            (name, subset): []
            for name, _, _ in NGG_ROSTER
            for subset in config.term_subsets
        }
        splitter = StratifiedKFold(
            n_splits=config.n_folds, shuffle=True, seed=config.cv_seed
        )
        for subset in config.term_subsets:
            graphs = _document_graphs(config, corpus, subset)
            for fold_no, (train_idx, test_idx) in enumerate(splitter.split(y)):
                model = ClassGraphModel(seed=config.cv_seed + fold_no)
                model.fit_graphs(
                    [graphs[i] for i in train_idx], y[train_idx].tolist()
                )
                features = model.transform_graphs(graphs)
                for name, _, proto in NGG_ROSTER:
                    clf = clone(proto)
                    clf.fit(features[train_idx], y[train_idx])
                    report = classification_report(
                        y[test_idx],
                        clf.predict(features[test_idx]),
                        clf.decision_scores(features[test_idx]),
                    )
                    results[(name, subset)].append(report)
        return {
            key: AggregatedReport(fold_reports=tuple(reports))
            for key, reports in results.items()
        }

    return _cached(("ngg", config), build)  # type: ignore[return-value]


def _network_report(
    config: ExperimentConfig, corpus: PharmacyCorpus, **pipeline_params
) -> AggregatedReport:
    """CV of the TrustRank Naive Bayes network classifier on ``corpus``.

    ``pipeline_params`` go to every fold's
    :class:`~repro.core.network_pipeline.NetworkClassificationPipeline`.
    """

    def fit_predict(train_idx, test_idx):
        pipeline = NetworkClassificationPipeline(
            corpus, GaussianNB(), **pipeline_params
        )
        scored = pipeline.fit(train_idx).score(test_idx)
        return scored.labels, scored.scores

    return cross_validate_indexed(
        fit_predict, corpus.labels, n_folds=config.n_folds, seed=config.cv_seed
    )


def _network_cv(config: ExperimentConfig) -> AggregatedReport:
    """3-fold CV of the TrustRank network classifier."""

    def build() -> AggregatedReport:
        corpus, _ = _dataset_pair(config)
        return _network_report(config, corpus, graph=_link_graph(config, corpus))

    return _cached(("network", config), build)  # type: ignore[return-value]


def _ensemble_cv(config: ExperimentConfig) -> AggregatedReport:
    """3-fold CV of the text+network Ensemble Selection (1000 terms)."""

    def build() -> AggregatedReport:
        corpus, _ = _dataset_pair(config)
        docs = _documents(config, corpus, 1000)

        def fit_predict(train_idx, test_idx):
            pipeline = EnsembleClassificationPipeline(
                corpus, docs, seed=config.cv_seed,
                graph=_link_graph(config, corpus),
            )
            scored = pipeline.fit(train_idx).score(test_idx)
            return scored.labels, scored.scores

        return cross_validate_indexed(
            fit_predict, corpus.labels, n_folds=config.n_folds, seed=config.cv_seed
        )

    return _cached(("ensemble", config), build)  # type: ignore[return-value]


def _ranking_pairord(config: ExperimentConfig) -> dict[str, float]:
    """Mean pairwise orderedness per ranking model (Table 15)."""

    def build() -> dict[str, float]:
        corpus, _ = _dataset_pair(config)
        y = corpus.labels
        domains = corpus.domains
        docs = _documents(config, corpus, 1000)
        doc_graphs = _document_graphs(config, corpus, 1000)
        splitter = StratifiedKFold(
            n_splits=config.n_folds, shuffle=True, seed=config.cv_seed
        )
        accumulator: dict[str, list[float]] = {
            "NBM": [], "SVM": [], "J48": [], "NGG": []
        }
        for fold_no, (train_idx, test_idx) in enumerate(splitter.split(y)):
            network = NetworkClassificationPipeline(
                corpus, GaussianNB(), graph=_link_graph(config, corpus)
            )
            net_rank = network.fit(train_idx).score(test_idx).rank
            test_domains = [domains[i] for i in test_idx]
            y_test = y[test_idx]

            train_docs = [docs[i] for i in train_idx]
            test_docs = [docs[i] for i in test_idx]
            for entry in TFIDF_ROSTER:
                text = TfidfTextPipeline(entry.classifier, entry.sampler)
                text_rank = text.fit(train_docs, y[train_idx]).score(test_docs).rank
                ranking = rank_pharmacies(test_domains, text_rank, net_rank, y_test)
                accumulator[entry.name].append(ranking.pairord)

            ngg = ClassGraphModel(seed=config.cv_seed + fold_no)
            ngg.fit_graphs(
                [doc_graphs[i] for i in train_idx], y[train_idx].tolist()
            )
            features = ngg.transform_graphs([doc_graphs[i] for i in test_idx])
            ranking = rank_pharmacies(
                test_domains, similarity_rank(features, ngg.classes), net_rank, y_test
            )
            accumulator["NGG"].append(ranking.pairord)
        return {name: float(np.mean(vals)) for name, vals in accumulator.items()}

    return _cached(("ranking", config), build)  # type: ignore[return-value]


def _time_sweep(
    config: ExperimentConfig,
) -> dict[tuple[str, int, str], dict[str, float]]:
    """Old-Old / New-New / Old-New evaluations (Tables 16–17).

    Returns ``{(classifier, subset, regime): {measure: value}}`` for
    subsets 250 and 1000.
    """

    def build() -> dict[tuple[str, int, str], dict[str, float]]:
        corpus1, corpus2 = _dataset_pair(config)
        subsets = [s for s in (250, 1000) if s in config.term_subsets] or [
            250,
            1000,
        ]
        out: dict[tuple[str, int, str], dict[str, float]] = {}
        old_old = _tfidf_sweep(config, "dataset1")
        new_new = _tfidf_sweep(config, "dataset2")
        for entry in TFIDF_ROSTER:
            name = entry.name
            for subset in subsets:
                out[(name, subset, "Old-Old")] = old_old[(name, subset)].as_dict()
                out[(name, subset, "New-New")] = new_new[(name, subset)].as_dict()
                # Old-New: train on all of Dataset 1, test on Dataset 2.
                report = train_test_evaluate(
                    partial(TfidfTextPipeline, entry.classifier, entry.sampler),
                    _documents(config, corpus1, subset),
                    corpus1.labels,
                    _documents(config, corpus2, subset),
                    corpus2.labels,
                )
                out[(name, subset, "Old-New")] = report.as_dict()
        return out

    return _cached(("time", config), build)  # type: ignore[return-value]


def _corpus_by_name(config: ExperimentConfig, name: str) -> PharmacyCorpus:
    corpus1, corpus2 = _dataset_pair(config)
    if name == "dataset1":
        return corpus1
    if name == "dataset2":
        return corpus2
    raise ValidationError(f"unknown corpus name {name!r}")


# ---------------------------------------------------------------------------
# Table builders
# ---------------------------------------------------------------------------


def table1(config: ExperimentConfig) -> TableResult:
    """Table 1: dataset sizes and class ratio."""
    corpus1, corpus2 = _dataset_pair(config)
    s1, s2 = corpus1.summary(), corpus2.summary()
    illegit1 = {d for d, l in zip(corpus1.domains, corpus1.labels) if l == 0}
    illegit2 = {d for d, l in zip(corpus2.domains, corpus2.labels) if l == 0}
    legit1 = {d for d, l in zip(corpus1.domains, corpus1.labels) if l == 1}
    legit2 = {d for d, l in zip(corpus2.domains, corpus2.labels) if l == 1}
    return TableResult(
        table_id="table1",
        title="Datasets (two crawls six months apart)",
        columns=("", "Dataset 1", "Dataset 2"),
        rows=(
            ("# Examples", s1.n_examples, s2.n_examples),
            ("# Legitimate Examples", s1.n_legitimate, s2.n_legitimate),
            ("# Illegitimate Examples", s1.n_illegitimate, s2.n_illegitimate),
            (
                "Legitimate fraction",
                s1.legitimate_fraction,
                s2.legitimate_fraction,
            ),
        ),
        notes=(
            f"illegitimate sets disjoint: {illegit1.isdisjoint(illegit2)}",
            f"legitimate sets identical: {legit1 == legit2}",
            f"scale preset: {config.scale} "
            "(paper scale: 1459/1442 examples, 167 legitimate)",
        ),
    )


def _sweep_table(
    table_id: str,
    title: str,
    config: ExperimentConfig,
    sweep: dict[tuple[str, int | None], AggregatedReport],
    roster_rows: Sequence[tuple[str, str]],
    measure: str,
) -> TableResult:
    header = ("Classifier", "Sampling") + term_subset_header(config.term_subsets)
    rows = []
    for name, sampling in roster_rows:
        cells: list[object] = [name, sampling]
        for subset in config.term_subsets:
            cells.append(sweep[(name, subset)].measure(measure).mean)
        rows.append(tuple(cells))
    return TableResult(
        table_id=table_id, title=title, columns=header, rows=tuple(rows)
    )


def _double_sweep_table(
    table_id: str,
    title: str,
    config: ExperimentConfig,
    sweep: dict[tuple[str, int | None], AggregatedReport],
    roster_rows: Sequence[tuple[str, str]],
    measures: Sequence[tuple[str, str]],
) -> TableResult:
    """A recall+precision table (two blocks like Tables 4/5/8/9)."""
    header = ("Block", "Classifier", "Sampling") + term_subset_header(
        config.term_subsets
    )
    rows = []
    for block_label, measure in measures:
        for name, sampling in roster_rows:
            cells: list[object] = [block_label, name, sampling]
            for subset in config.term_subsets:
                cells.append(sweep[(name, subset)].measure(measure).mean)
            rows.append(tuple(cells))
    return TableResult(
        table_id=table_id, title=title, columns=header, rows=tuple(rows)
    )


def _tfidf_rows() -> list[tuple[str, str]]:
    return [(entry.name, entry.sampling) for entry in TFIDF_ROSTER]


def _ngg_rows() -> list[tuple[str, str]]:
    return [(name, sampling) for name, sampling, _ in NGG_ROSTER]


def table3(config: ExperimentConfig) -> TableResult:
    """Table 3: TF-IDF overall accuracy."""
    return _sweep_table(
        "table3",
        "TF-IDF - Overall Accuracy",
        config,
        _tfidf_sweep(config),
        _tfidf_rows(),
        "accuracy",
    )


def table4(config: ExperimentConfig) -> TableResult:
    """Table 4: TF-IDF legitimate recall and precision."""
    return _double_sweep_table(
        "table4",
        "TF-IDF - legitimate recall and precision",
        config,
        _tfidf_sweep(config),
        _tfidf_rows(),
        (("Recall", "legitimate_recall"), ("Precision", "legitimate_precision")),
    )


def table5(config: ExperimentConfig) -> TableResult:
    """Table 5: TF-IDF illegitimate recall and precision."""
    return _double_sweep_table(
        "table5",
        "TF-IDF - illegitimate recall and precision",
        config,
        _tfidf_sweep(config),
        _tfidf_rows(),
        (
            ("Recall", "illegitimate_recall"),
            ("Precision", "illegitimate_precision"),
        ),
    )


def table6(config: ExperimentConfig) -> TableResult:
    """Table 6: TF-IDF area under ROC curve."""
    return _sweep_table(
        "table6",
        "TF-IDF - Area Under ROC Curve",
        config,
        _tfidf_sweep(config),
        _tfidf_rows(),
        "auc_roc",
    )


def table7(config: ExperimentConfig) -> TableResult:
    """Table 7: N-Gram Graphs classifier accuracy."""
    return _sweep_table(
        "table7",
        "N-Gram Graphs - Classifiers Accuracy",
        config,
        _ngg_sweep(config),
        _ngg_rows(),
        "accuracy",
    )


def table8(config: ExperimentConfig) -> TableResult:
    """Table 8: N-Gram Graphs legitimate recall and precision."""
    return _double_sweep_table(
        "table8",
        "N-Gram Graphs - legitimate recall and precision",
        config,
        _ngg_sweep(config),
        _ngg_rows(),
        (("Recall", "legitimate_recall"), ("Precision", "legitimate_precision")),
    )


def table9(config: ExperimentConfig) -> TableResult:
    """Table 9: N-Gram Graphs illegitimate recall and precision."""
    return _double_sweep_table(
        "table9",
        "N-Gram Graphs - illegitimate recall and precision",
        config,
        _ngg_sweep(config),
        _ngg_rows(),
        (
            ("Recall", "illegitimate_recall"),
            ("Precision", "illegitimate_precision"),
        ),
    )


def table10(config: ExperimentConfig) -> TableResult:
    """Table 10: N-Gram Graphs area under ROC curve."""
    return _sweep_table(
        "table10",
        "N-Gram Graphs - Area Under ROC Curve",
        config,
        _ngg_sweep(config),
        _ngg_rows(),
        "auc_roc",
    )


def table11(config: ExperimentConfig, top_k: int = 10) -> TableResult:
    """Table 11: top linked-to domains per class."""
    from repro.network.features import top_linked_domains

    corpus, _ = _dataset_pair(config)
    ranked = top_linked_domains(corpus.sites, corpus.labels, top_k=top_k)
    legit = [d for d, _ in ranked.get(1, [])]
    illegit = [d for d, _ in ranked.get(0, [])]
    rows = tuple(
        (
            i + 1,
            legit[i] if i < len(legit) else "",
            illegit[i] if i < len(illegit) else "",
        )
        for i in range(top_k)
    )
    return TableResult(
        table_id="table11",
        title="Websites pointed to by legitimate and illegitimate pharmacies",
        columns=("Rank", "pointed by legitimate", "pointed by illegitimate"),
        rows=rows,
    )


def table12(config: ExperimentConfig) -> TableResult:
    """Table 12: network classifier overall accuracy and AUC."""
    report = _network_cv(config)
    return TableResult(
        table_id="table12",
        title="Network - Overall Accuracy and AUC ROC",
        columns=("Classifier", "Overall Accuracy", "AUC ROC"),
        rows=(
            ("NB", report.accuracy.mean, report.auc_roc.mean),
        ),
    )


def table13(config: ExperimentConfig) -> TableResult:
    """Table 13: network classifier per-class precision and recall."""
    report = _network_cv(config)
    return TableResult(
        table_id="table13",
        title="Network - precision and recall",
        columns=(
            "Classifier",
            "legitimate precision",
            "legitimate recall",
            "illegitimate precision",
            "illegitimate recall",
        ),
        rows=(
            (
                "NB",
                report.legitimate_precision.mean,
                report.legitimate_recall.mean,
                report.illegitimate_precision.mean,
                report.illegitimate_recall.mean,
            ),
        ),
    )


def table14(config: ExperimentConfig) -> TableResult:
    """Table 14: ensemble selection vs best text and network models."""
    ensemble = _ensemble_cv(config)
    ngg = _ngg_sweep(config)
    mlp_text = ngg[("MLP", 1000 if 1000 in config.term_subsets else config.term_subsets[-1])]
    network = _network_cv(config)

    def row(label: str, report: AggregatedReport) -> tuple[object, ...]:
        return (
            label,
            report.accuracy.mean,
            report.legitimate_recall.mean,
            report.legitimate_precision.mean,
            report.illegitimate_recall.mean,
            report.illegitimate_precision.mean,
            report.auc_roc.mean,
        )

    return TableResult(
        table_id="table14",
        title="Ensemble Classification Results (1000-term subsamples)",
        columns=(
            "Model",
            "Acc.",
            "legit Rec.",
            "legit Prec.",
            "illegit Rec.",
            "illegit Prec.",
            "AUC ROC",
        ),
        rows=(
            row("Ensem. Sel.", ensemble),
            row("Neural (Text)", mlp_text),
            row("NB (Network)", network),
        ),
    )


def table15(config: ExperimentConfig) -> TableResult:
    """Table 15: ranking pairwise orderedness."""
    pairord = _ranking_pairord(config)
    return TableResult(
        table_id="table15",
        title="Ranking using TF-IDF and N-Gram Graphs (pairord)",
        columns=("Model", "Sampling", "pairord"),
        rows=(
            ("NBM", "NO", pairord["NBM"]),
            ("SVM", "NO", pairord["SVM"]),
            ("J48", "SMOTE", pairord["J48"]),
            ("N-Gram Graph", "NO", pairord["NGG"]),
        ),
    )


def _time_table(
    table_id: str, title: str, config: ExperimentConfig, measure: str
) -> TableResult:
    sweep = _time_sweep(config)
    subsets = sorted({key[1] for key in sweep})
    regimes = ("Old-Old", "New-New", "Old-New")
    header = ["Classifier", "Sampling"]
    for regime in regimes:
        for subset in subsets:
            header.append(f"{regime} {subset}")
    rows = []
    for entry in TFIDF_ROSTER:
        cells: list[object] = [entry.name, entry.sampling]
        for regime in regimes:
            for subset in subsets:
                cells.append(sweep[(entry.name, subset, regime)][measure])
        rows.append(tuple(cells))
    return TableResult(
        table_id=table_id, title=title, columns=tuple(header), rows=tuple(rows)
    )


def table16(config: ExperimentConfig) -> TableResult:
    """Table 16: model over time — AUC ROC."""
    return _time_table(
        "table16", "TF-IDF - Model over Time - Area Under ROC Curve",
        config, "auc_roc",
    )


def table17(config: ExperimentConfig) -> TableResult:
    """Table 17: model over time — legitimate precision."""
    return _time_table(
        "table17", "TF-IDF - Model over Time - legitimate Precision",
        config, "legitimate_precision",
    )
