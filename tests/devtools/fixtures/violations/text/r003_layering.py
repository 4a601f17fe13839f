"""Seeded R003 violations: a `text`-layer module importing `core`, and
importing the analyzer (`devtools`), which no library layer may load."""

from __future__ import annotations

from repro.core.config import ExperimentConfig
from repro.devtools.findings import Finding

__all__ = ["ExperimentConfig", "Finding"]
