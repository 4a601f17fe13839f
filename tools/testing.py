"""Pytest helpers shared by the ``tests/`` and ``benchmarks/`` suites.

Not imported by the library itself (it needs :mod:`pytest`, a dev-only
dependency); conftests pull the hook in by name::

    from tools.testing import pytest_runtest_call  # noqa: F401

The hook kills any single test that runs longer than
``REPRO_TEST_TIMEOUT`` seconds (default 120) — a crawl that stops
converging or an accidental real ``time.sleep`` in a retry loop fails
fast instead of hanging CI.  Implemented with ``SIGALRM``, so it only
arms on POSIX main-thread runs and is a no-op elsewhere.
"""

from __future__ import annotations

import os
import signal
import threading
from collections.abc import Generator

import pytest

DEFAULT_TEST_TIMEOUT = 120.0


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item: pytest.Item) -> Generator[None, object, object]:
    """Fail any single test that runs longer than the timeout."""
    timeout = float(os.environ.get("REPRO_TEST_TIMEOUT", DEFAULT_TEST_TIMEOUT))
    if (
        timeout <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return (yield)

    def on_timeout(signum: int, frame: object) -> None:
        raise TimeoutError(
            f"{item.nodeid} exceeded the {timeout:g}s per-test timeout "
            "(set REPRO_TEST_TIMEOUT to adjust)"
        )

    previous = signal.signal(signal.SIGALRM, on_timeout)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
