"""Shared benchmark configuration.

Each benchmark regenerates one paper table or figure and prints the
reproduced rows (also written to ``benchmarks/output/<id>.txt``).

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable
(default ``small``).  Expensive sweeps are cached per configuration in
:mod:`repro.experiments.tables`, so e.g. tables 3–6 share one sweep:
the first bench touching a sweep pays for it, the rest are cheap.  Use
``--benchmark-only -s`` to see the tables inline.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.core.config import ExperimentConfig
from tools.testing import pytest_runtest_call  # noqa: F401

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    return ExperimentConfig(scale=scale)


@pytest.fixture(scope="session")
def emit():
    """Print a rendered table and persist it under benchmarks/output/."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _emit(experiment_id: str, text: str) -> None:
        print(f"\n{text}\n")
        (OUTPUT_DIR / f"{experiment_id}.txt").write_text(text + "\n")

    return _emit


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer.

    The experiments are deterministic end-to-end regenerations, not
    micro-kernels; a single measured round keeps total runtime sane
    while still recording wall-clock cost per table.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
