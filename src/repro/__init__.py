"""repro — reproduction of *An Automated System for Internet Pharmacy
Verification* (Cordioli & Palpanas, EDBT 2018).

The library solves the paper's two problems over a (synthetic) web of
online pharmacies:

* **Classification (OPC)** — label pharmacies legitimate/illegitimate
  from text (TF-IDF term vectors or character N-Gram Graphs) and
  network (TrustRank) features, singly or combined with Ensemble
  Selection.
* **Ranking (OPR)** — order pharmacies by a cumulative legitimacy
  score, ``rank(p) = textRank(p) + networkRank(p)``, evaluated by
  pairwise orderedness.

Quickstart::

    from repro import GeneratorConfig, make_dataset, PharmacyVerifier

    corpus = make_dataset(GeneratorConfig(n_legitimate=24,
                                          n_illegitimate=176))
    verifier = PharmacyVerifier().fit(corpus)
    report = verifier.verify_site(corpus.sites[0])
    print(report.domain, report.is_legitimate, report.rank_score)

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-vs-measured results of every table and figure.
"""

from repro.core import (
    AggregatedReport,
    EnsembleClassificationPipeline,
    ExperimentConfig,
    NetworkClassificationPipeline,
    NGramGraphTextPipeline,
    OutlierReport,
    PharmacyVerifier,
    RankedPharmacy,
    RankingResult,
    TfidfTextPipeline,
    VerificationReport,
    analyze_outliers,
    cross_validate_indexed,
    cross_validate_pipeline,
    preset,
    rank_pharmacies,
    train_test_evaluate,
)
from repro.data import (
    GeneratorConfig,
    PharmacyCorpus,
    QuarantinedSite,
    SyntheticWebGenerator,
    make_dataset,
    make_dataset_pair,
)
from repro.core import (
    ReviewQueue,
    degraded_domains,
    effort_to_find_fraction,
    simulate_review,
)
from repro.exceptions import ReproError, ServiceUnavailableError
from repro.io import export_corpus, import_corpus, load_model, save_model
from repro.serve import (
    Authenticator,
    Bulkhead,
    SlidingWindowRateLimiter,
    VerificationService,
    build_server,
)
from repro.ml import (
    C45Tree,
    GaussianNB,
    LinearSVC,
    MLPClassifier,
    MultinomialNB,
    SMOTE,
    RandomUnderSampler,
    inject_label_noise,
)
from repro.network import DirectedGraph, eigentrust, top_linked_domains, trustrank
from repro.text import CharNGramVectorizer, NGramGraph, Summarizer, TfidfVectorizer
from repro.web import (
    CircuitBreaker,
    Crawler,
    CrawlStats,
    FaultInjectingWebHost,
    FaultPlan,
    FaultSpec,
    InMemoryWebHost,
    RetryPolicy,
    VirtualClock,
    WebPage,
    Website,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "AggregatedReport",
    "EnsembleClassificationPipeline",
    "ExperimentConfig",
    "NetworkClassificationPipeline",
    "NGramGraphTextPipeline",
    "OutlierReport",
    "PharmacyVerifier",
    "RankedPharmacy",
    "RankingResult",
    "TfidfTextPipeline",
    "VerificationReport",
    "analyze_outliers",
    "cross_validate_indexed",
    "cross_validate_pipeline",
    "preset",
    "rank_pharmacies",
    "train_test_evaluate",
    # data
    "GeneratorConfig",
    "PharmacyCorpus",
    "QuarantinedSite",
    "SyntheticWebGenerator",
    "make_dataset",
    "make_dataset_pair",
    # errors
    "ReproError",
    "ServiceUnavailableError",
    # io
    "export_corpus",
    "import_corpus",
    "load_model",
    "save_model",
    # ml
    "C45Tree",
    "GaussianNB",
    "LinearSVC",
    "MLPClassifier",
    "MultinomialNB",
    "SMOTE",
    "RandomUnderSampler",
    "inject_label_noise",
    # serve
    "Authenticator",
    "Bulkhead",
    "SlidingWindowRateLimiter",
    "VerificationService",
    "build_server",
    # review workflow
    "ReviewQueue",
    "degraded_domains",
    "effort_to_find_fraction",
    "simulate_review",
    # network
    "DirectedGraph",
    "eigentrust",
    "top_linked_domains",
    "trustrank",
    # text
    "CharNGramVectorizer",
    "NGramGraph",
    "Summarizer",
    "TfidfVectorizer",
    # web
    "CircuitBreaker",
    "Crawler",
    "CrawlStats",
    "FaultInjectingWebHost",
    "FaultPlan",
    "FaultSpec",
    "InMemoryWebHost",
    "RetryPolicy",
    "VirtualClock",
    "WebPage",
    "Website",
]
