"""Shared fixtures: the hotpkg fixture package, analyzed once."""

from __future__ import annotations

from pathlib import Path

import pytest

from tools.flow.analysis import analyze_project
from tools.hot.analyzer import hot_findings

HOTPKG = Path(__file__).parent.parent / "fixtures" / "hotpkg"
REPO_ROOT = Path(__file__).resolve().parents[3]


@pytest.fixture(scope="session")
def hot_analysis():
    return analyze_project([str(HOTPKG)])


@pytest.fixture(scope="session")
def hotpkg_findings(hot_analysis):
    assert hot_analysis.project.errors == []
    return hot_findings(hot_analysis)
