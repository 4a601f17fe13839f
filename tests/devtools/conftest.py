"""Shared fixtures: the analyzer's report on the repo's own tree.

Analyzing ``src/repro`` takes seconds, so each report format is
produced once per session, from the repo root the way CI runs it
(baseline fingerprints record repo-relative paths).
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from tools.analyze import main

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def repo_tree_report():
    """``fmt -> (exit status, stdout)`` of ``analyze src/repro --format fmt``
    against the committed baseline."""
    reports: dict[str, tuple[int, str]] = {}

    def report(fmt: str) -> tuple[int, str]:
        if fmt not in reports:
            out = io.StringIO()
            with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
                mp.chdir(REPO_ROOT)
                status = main(["src/repro", "--format", fmt])
            reports[fmt] = (status, out.getvalue())
        return reports[fmt]

    return report
