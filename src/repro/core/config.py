"""Experiment-wide configuration and scale presets.

The paper's corpus (Table 1) has 167 legitimate and ~1290 illegitimate
pharmacies.  Generating and evaluating at that scale is supported
(``PAPER`` preset) but slow in pure Python, so tests and benchmarks
default to scaled-down presets that keep the 12%/88% class ratio and
every structural signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.synthesis import GeneratorConfig
from repro.exceptions import ConfigurationError

__all__ = ["ScalePreset", "PRESETS", "preset", "ExperimentConfig"]


@dataclass(frozen=True, slots=True)
class ScalePreset:
    """A named dataset scale."""

    name: str
    generator: GeneratorConfig


PRESETS: dict[str, ScalePreset] = {
    # Fast unit-test scale.
    "tiny": ScalePreset(
        name="tiny",
        generator=GeneratorConfig(
            n_legitimate=12,
            n_illegitimate=88,
            n_affiliate_hubs=3,
            min_pages=3,
            max_pages=6,
            min_terms_per_page=60,
            max_terms_per_page=120,
            seed=7,
        ),
    ),
    # Integration-test scale.
    "small": ScalePreset(
        name="small",
        generator=GeneratorConfig(
            n_legitimate=24,
            n_illegitimate=176,
            n_affiliate_hubs=4,
            min_pages=3,
            max_pages=8,
            min_terms_per_page=70,
            max_terms_per_page=150,
            seed=7,
        ),
    ),
    # Benchmark scale (default for the experiment harness).
    "medium": ScalePreset(
        name="medium",
        generator=GeneratorConfig(
            n_legitimate=40,
            n_illegitimate=294,
            n_affiliate_hubs=6,
            seed=7,
        ),
    ),
    # Full Table 1 scale (1459 / 1442 examples).
    "paper": ScalePreset(
        name="paper",
        generator=GeneratorConfig(
            n_legitimate=167,
            n_illegitimate=1292,
            n_illegitimate_snapshot2=1275,
            n_affiliate_hubs=10,
            min_pages=5,
            max_pages=14,
            seed=7,
        ),
    ),
    # Scale-out benchmark scale (ROADMAP item 2): web-scale site counts
    # with a lighter per-site profile (2-3 pages of 30-60 terms) chosen
    # so 10^5–10^6-domain corpora are synthesizable in minutes; with
    # batched draws one core writes ~5,000 such sites/s at 10^5, and
    # ~1,600 sites/s of the `paper` profile (ROADMAP item 17).
    # Exercised by the sharded pipeline, every perfbench workload and
    # benchmarks/perf/scale_harness.py, not the paper tables.
    "large": ScalePreset(
        name="large",
        generator=GeneratorConfig(
            n_legitimate=11_500,
            n_illegitimate=88_500,
            n_affiliate_hubs=60,
            min_pages=2,
            max_pages=3,
            min_terms_per_page=30,
            max_terms_per_page=60,
            seed=7,
        ),
    ),
}


def preset(name: str) -> ScalePreset:
    """Look up a scale preset by name.

    Raises:
        ConfigurationError: unknown preset name.
    """
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Shared knobs of the paper-reproduction experiments.

    Attributes:
        scale: dataset scale preset name.
        n_folds: cross-validation folds (paper: 3).
        term_subsets: summary subsample sizes; ``None`` = all terms.
        cv_seed: fold-assignment RNG seed.
        summary_seed: term-subsample RNG seed.
        jobs: worker processes for per-document feature extraction
            (``repro.perf.parallel.resolve_jobs`` semantics: 1 serial,
            0 = CPU count).  Excluded from equality/hash: results are
            identical at any worker count, so cached sweeps are shared.
        cache_dir: on-disk feature-cache directory
            (:class:`repro.perf.cache.FeatureCache`); ``None`` disables
            disk caching.  Excluded from equality/hash: the cache only
            memoizes, it never changes values.
    """

    scale: str = "medium"
    n_folds: int = 3
    term_subsets: tuple[int | None, ...] = (100, 250, 1000, 2000, None)
    cv_seed: int = 0
    summary_seed: int = 0
    jobs: int = field(default=1, compare=False)
    cache_dir: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n_folds < 2:
            raise ConfigurationError(f"n_folds must be >= 2, got {self.n_folds}")
        if self.jobs < 0:
            raise ConfigurationError(f"jobs must be >= 0, got {self.jobs}")
        preset(self.scale)  # validate eagerly

    @property
    def generator(self) -> GeneratorConfig:
        return preset(self.scale).generator
