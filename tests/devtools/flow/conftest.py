"""Shared fixtures: the flowpkg fixture package, analyzed once."""

from __future__ import annotations

from pathlib import Path

import pytest

from tools.flow.callgraph import build_call_graph
from tools.flow.interp import run_analysis
from tools.flow.project import load_project

FLOWPKG = Path(__file__).parent.parent / "fixtures" / "flowpkg"


@pytest.fixture(scope="session")
def flow_project():
    return load_project([str(FLOWPKG)])


@pytest.fixture(scope="session")
def flow_result(flow_project):
    return run_analysis(flow_project)


@pytest.fixture(scope="session")
def flow_graph(flow_project, flow_result):
    return build_call_graph(flow_project, flow_result)
