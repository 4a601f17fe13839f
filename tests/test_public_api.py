"""Public-API surface tests."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_key_entry_points(self):
        assert callable(repro.make_dataset)
        assert callable(repro.make_dataset_pair)
        assert callable(repro.rank_pharmacies)
        assert callable(repro.trustrank)

    def test_serving_surface(self):
        assert callable(repro.build_server)
        assert callable(repro.VerificationService)
        assert callable(repro.SlidingWindowRateLimiter)
        assert callable(repro.Bulkhead)
        assert callable(repro.Authenticator)

        from repro.serve import (
            DEFAULT_TIERS,
            Deadline,
            MetricsRegistry,
            ServiceConfig,
            Tier,
            VerificationHTTPServer,
        )

        assert "anonymous" in DEFAULT_TIERS
        assert all(isinstance(t, Tier) for t in DEFAULT_TIERS.values())
        for exported in (Deadline, MetricsRegistry, ServiceConfig,
                         VerificationHTTPServer):
            assert callable(exported)

    def test_error_hierarchy(self):
        from repro.exceptions import (
            ConfigurationError,
            CrawlError,
            DataGenerationError,
            GraphError,
            InvalidURLError,
            NotFittedError,
            ReproError,
            ServiceUnavailableError,
        )

        for exc in (
            ConfigurationError,
            CrawlError,
            DataGenerationError,
            GraphError,
            InvalidURLError,
            NotFittedError,
            ServiceUnavailableError,
        ):
            assert issubclass(exc, ReproError)

        unavailable = ServiceUnavailableError("verify", "poisoned", retry_after=7.0)
        assert unavailable.backend == "verify"
        assert unavailable.retry_after == pytest.approx(7.0)


def test_library_loads_no_analyzer():
    # The verifier, the service and the stream import their contracts
    # and sanitizer declarations from repro itself, never the analyzer.
    # The child runs from the repo root, where `tools` is importable.
    repo_root = Path(repro.__file__).resolve().parents[2]
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.core.verifier, repro.serve.service\n"
        "import repro.stream.pipeline, repro.experiments.runner\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'tools'\n"
        "             or m.split('.')[:2] == ['repro', 'devtools']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=repo_root,
        env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_installed_packages_hold_no_analyzer():
    # `find_packages(where="src")` is what `pip install` ships.
    setuptools = pytest.importorskip("setuptools")
    shipped = setuptools.find_packages(where=str(Path(repro.__file__).parents[1]))
    assert "repro" in shipped
    analyzer = [
        name for name in shipped
        if "devtools" in name.split(".") or name.split(".")[0] == "tools"
    ]
    assert analyzer == []


def test_no_analyzer_shim_in_the_library():
    assert importlib.util.find_spec("repro.devtools") is None


def test_console_scripts_resolve():
    """Every ``[project.scripts]`` target imports and is callable."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["repro"] == "repro.cli:main"
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
