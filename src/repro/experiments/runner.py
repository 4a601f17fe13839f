"""Command-line experiment runner.

Usage::

    python -m repro.experiments.runner [--scale small] [--jobs N] [ids ...]

With no ids, every table and figure is regenerated.  ids are paper
identifiers: ``table1 table3 ... table17 figure2 figure3``.

``--jobs N`` fans per-document feature extraction and the TF-IDF sweep
grid out to N worker processes (0 = one per CPU) with identical
results at any worker count; ``--cache-dir DIR`` memoizes extracted
features on disk so repeated runs skip recomputation.  Every table
runs through the :mod:`repro.core` pipelines and evaluation drivers;
the TF-IDF sweep fits each (subset, fold)'s feature matrices once and
shares them across all classifier/sampling configs
(:mod:`repro.experiments.sweep`).  Each experiment's wall time is
printed as it finishes, plus a summary at the end.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from repro.core.config import ExperimentConfig
from repro.experiments import figures, tables
from repro.exceptions import MissingKeyError

__all__ = ["main", "run_experiment", "EXPERIMENT_IDS"]

_TABLE_BUILDERS: dict[str, Callable[[ExperimentConfig], object]] = {
    "table1": tables.table1,
    "table3": tables.table3,
    "table4": tables.table4,
    "table5": tables.table5,
    "table6": tables.table6,
    "table7": tables.table7,
    "table8": tables.table8,
    "table9": tables.table9,
    "table10": tables.table10,
    "table11": tables.table11,
    "table12": tables.table12,
    "table13": tables.table13,
    "table14": tables.table14,
    "table15": tables.table15,
    "table16": tables.table16,
    "table17": tables.table17,
}

EXPERIMENT_IDS = tuple(_TABLE_BUILDERS) + ("figure2", "figure3")


def run_experiment(experiment_id: str, config: ExperimentConfig) -> str:
    """Run one experiment and return its rendered output."""
    if experiment_id in _TABLE_BUILDERS:
        result = _TABLE_BUILDERS[experiment_id](config)
        return result.render()
    if experiment_id == "figure2":
        return figures.figure2_pipeline_trace().render()
    if experiment_id == "figure3":
        return figures.figure3_trustrank_demo().render(precision=4)
    raise MissingKeyError(
        f"unknown experiment {experiment_id!r}; choose from {EXPERIMENT_IDS}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "ids",
        nargs="*",
        default=list(EXPERIMENT_IDS),
        help="experiment ids (default: all)",
    )
    parser.add_argument(
        "--scale",
        default="small",
        help="dataset scale preset: tiny / small / medium / paper",
    )
    parser.add_argument(
        "--folds", type=int, default=3, help="cross-validation folds"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for feature extraction (0 = CPU count; "
        "results are identical at any worker count)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the on-disk feature cache (default: disabled)",
    )
    args = parser.parse_args(argv)
    config = ExperimentConfig(
        scale=args.scale,
        n_folds=args.folds,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    timings: list[tuple[str, float]] = []
    for experiment_id in args.ids:
        start = time.perf_counter()
        output = run_experiment(experiment_id, config)
        elapsed = time.perf_counter() - start
        timings.append((experiment_id, elapsed))
        print(output)
        print(f"[{experiment_id} done in {elapsed:.2f}s]\n")
    if len(timings) > 1:
        total = sum(secs for _, secs in timings)
        width = max(len(name) for name, _ in timings)
        print("wall time per experiment:")
        for name, secs in timings:
            print(f"  {name:<{width}}  {secs:8.2f}s")
        print(f"  {'total':<{width}}  {total:8.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
