"""Shared pieces of the workloads: results, statistics, memory, environment."""

from __future__ import annotations

import gc
import os
import platform
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from perfbench import PINNED_ENV, layers
from perfbench.hostspeed import SpeedSampler
from perfbench.spans import Tracer

#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Every end-to-end metric, with its unit.  Each workload reports all
#: of them (see the workload modules for what each means there).
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sites_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("tick_p50_ms", "ms"),
    ("tick_p90_ms", "ms"),
    ("accuracy", "ratio"),
    ("pairord", "ratio"),
    ("verdict_agreement", "ratio"),
)

T = TypeVar("T")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: end-to-end metric values; in a traced run, the per-layer values
    #: the workload measures itself (see ``layers.EXTERNAL``).
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: check name -> failure message (empty when every check passed).
    failures: dict[str, str] = field(default_factory=dict)
    #: sizes and counts recorded alongside the metrics.
    info: dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool, message: str = "") -> None:
        if not ok:
            self.failures[name] = message or "failed"

    @property
    def correct(self) -> bool:
        return not self.failures


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``numpy.percentile`` default)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def repeat_setup(
    set_up: Callable[[int], T], repeats: int, sampler: SpeedSampler
) -> tuple[T, float, float]:
    """Run ``set_up(rep)`` ``repeats`` times; keep the last result.

    Returns:
        The last set-up's result and the median normalized and raw
        set-up times (see :mod:`perfbench.hostspeed`).
    """
    normalized, raw = [], []
    result = None
    for rep in range(repeats):
        # Drop the previous set-up first, so peak memory is one set-up's.
        result = None
        gc.collect()
        result, raw_s, normalized_s = sampler.time(lambda: set_up(rep))
        raw.append(raw_s)
        normalized.append(normalized_s)
    return result, median(normalized), median(raw)


@contextmanager
def timed_operation(
    tracer: Tracer | None, traced: bool, name: str, op_id: str
) -> Iterator[None]:
    """The context one timed operation runs in.

    A traced run alternates: traced operations run under one root span
    with every layer wrapped, the others run bare as the overhead
    baseline.  An untraced run wraps nothing.
    """
    if tracer is not None and traced:
        layers.install(tracer)
        try:
            with tracer.operation(name, op_id):
                yield
        finally:
            tracer.uninstall()
    else:
        yield


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    status = Path(f"/proc/{pid}/status").read_text(encoding="ascii")
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def environment(seed: int, **sizes: object) -> dict[str, object]:
    """The run's environment record: host, versions, pinning, sizes."""
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "executable": sys.executable,
        "seed": seed,
        "pinned_env": {name: os.environ.get(name) for name in PINNED_ENV},
        **sizes,
    }
