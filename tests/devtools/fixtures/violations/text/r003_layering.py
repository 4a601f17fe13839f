"""Seeded R003 violations: a `text`-layer module importing `core`, and
importing the analyzer (`tools`), which no library module may load."""

from __future__ import annotations

from repro.core.config import ExperimentConfig
from tools.findings import Finding

__all__ = ["ExperimentConfig", "Finding"]
