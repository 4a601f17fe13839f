"""Core layer: the paper's contribution assembled from the substrates."""

from repro.core.config import ExperimentConfig, PRESETS, ScalePreset, preset
from repro.core.ensemble_pipeline import EnsembleClassificationPipeline
from repro.core.evaluation import (
    AggregatedReport,
    MeasureSummary,
    PipelineScores,
    cross_validate_indexed,
    cross_validate_pipeline,
    train_test_evaluate,
)
from repro.core.network_pipeline import NetworkClassificationPipeline
from repro.core.review_queue import (
    ReviewLogEntry,
    ReviewQueue,
    degraded_domains,
    effort_to_find_fraction,
    simulate_review,
)
from repro.core.ranking import (
    OutlierReport,
    RankedPharmacy,
    RankingResult,
    analyze_outliers,
    rank_pharmacies,
)
from repro.core.text_pipeline import NGramGraphTextPipeline, TfidfTextPipeline
from repro.core.verifier import PharmacyVerifier, VerificationReport

__all__ = [
    "ExperimentConfig",
    "PRESETS",
    "ScalePreset",
    "preset",
    "EnsembleClassificationPipeline",
    "AggregatedReport",
    "MeasureSummary",
    "PipelineScores",
    "cross_validate_indexed",
    "cross_validate_pipeline",
    "train_test_evaluate",
    "NetworkClassificationPipeline",
    "ReviewLogEntry",
    "ReviewQueue",
    "degraded_domains",
    "effort_to_find_fraction",
    "simulate_review",
    "OutlierReport",
    "RankedPharmacy",
    "RankingResult",
    "analyze_outliers",
    "rank_pharmacies",
    "NGramGraphTextPipeline",
    "TfidfTextPipeline",
    "PharmacyVerifier",
    "VerificationReport",
]
