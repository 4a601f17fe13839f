"""Request metrics: counters + latency quantiles, dependency-free.

A :class:`MetricsRegistry` is the single sink every serving component
reports into: the HTTP edge (per-route/status request counts and
latencies), the rate limiter (429s), the bulkhead (sheds), and the
service (verdicts, degradations, cache hits).  Two read surfaces:

* :meth:`snapshot` — a JSON-ready dict (the ``/metrics?format=json``
  route, the drain-time flush, and the load harness);
* :meth:`render_text` — a Prometheus-style exposition (``GET
  /metrics``), counters as ``name{label="…"} value`` lines and
  latencies as pre-computed ``*_seconds{quantile="…"}`` gauges.

Latency reservoirs keep the most recent :data:`RESERVOIR_SIZE`
observations per route (bounded memory under sustained load) alongside
exact running count/sum, so throughput math never loses events even
when quantiles are estimated from the tail.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Mapping

import numpy as np

from repro.exceptions import ValidationError
from repro.io import atomic_write_text

__all__ = ["MetricsRegistry", "RESERVOIR_SIZE"]

#: Most recent latency observations retained per route.
RESERVOIR_SIZE = 10_000

#: Quantiles exported for every latency series.
_QUANTILES = (0.5, 0.95, 0.99)


def _label_suffix(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return "{" + body + "}"


class MetricsRegistry:
    """Thread-safe counters and per-route latency reservoirs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
        self._latency: dict[str, deque[float]] = {}
        self._latency_count: dict[str, int] = {}
        self._latency_sum: dict[str, float] = {}

    def increment(
        self, name: str, amount: float = 1.0, **labels: str
    ) -> None:
        """Add ``amount`` to counter ``name`` with ``labels``."""
        if amount < 0:
            raise ValidationError(f"counters only go up; got {amount}")
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def observe_latency(self, route: str, seconds: float) -> None:
        """Record one request latency for ``route``."""
        if seconds < 0:
            raise ValidationError(f"latency must be >= 0, got {seconds}")
        with self._lock:
            reservoir = self._latency.get(route)
            if reservoir is None:
                reservoir = deque(maxlen=RESERVOIR_SIZE)
                self._latency[route] = reservoir
            reservoir.append(seconds)
            self._latency_count[route] = self._latency_count.get(route, 0) + 1
            self._latency_sum[route] = self._latency_sum.get(route, 0.0) + seconds

    def counter_value(self, name: str, **labels: str) -> float:
        """The current value of one counter (0.0 when never touched)."""
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            return self._counters.get(key, 0.0)

    def snapshot(self) -> dict[str, object]:
        """All metrics as a JSON-serializable dict."""
        with self._lock:
            counters = [
                {"name": name, "labels": dict(labels), "value": value}
                # counters mutate between calls, so no caching
                for (name, labels), value in sorted(self._counters.items())
            ]
            latency: dict[str, dict[str, float]] = {}
            # routes appear as traffic arrives, so no caching
            for route, reservoir in sorted(self._latency.items()):
                observed = np.asarray(reservoir, dtype=np.float64)
                quantiles = np.quantile(observed, _QUANTILES)
                latency[route] = {
                    "count": float(self._latency_count[route]),
                    "sum_seconds": self._latency_sum[route],
                    "p50_seconds": float(quantiles[0]),
                    "p95_seconds": float(quantiles[1]),
                    "p99_seconds": float(quantiles[2]),
                }
        return {"counters": counters, "latency": latency}

    def render_text(self) -> str:
        """Prometheus-style text exposition of every metric."""
        snapshot = self.snapshot()
        lines: list[str] = []
        for entry in snapshot["counters"]:  # type: ignore[union-attr]
            assert isinstance(entry, dict)
            lines.append(
                f"{entry['name']}{_label_suffix(entry['labels'])} "
                f"{entry['value']:g}"
            )
        latency = snapshot["latency"]
        assert isinstance(latency, dict)
        for route, stats in latency.items():
            labels = {"route": route}
            lines.append(
                f"request_latency_seconds_count{_label_suffix(labels)} "
                f"{stats['count']:g}"
            )
            lines.append(
                f"request_latency_seconds_sum{_label_suffix(labels)} "
                f"{stats['sum_seconds']:.6f}"
            )
            for quantile in _QUANTILES:
                q_labels = {"route": route, "quantile": f"{quantile:g}"}
                key = f"p{int(quantile * 100)}_seconds"
                lines.append(
                    f"request_latency_seconds{_label_suffix(q_labels)} "
                    f"{stats[key]:.6f}"
                )
        return "\n".join(lines) + "\n"

    def flush(self, path: str) -> None:
        """Atomically write :meth:`snapshot` as JSON to ``path``.

        Called after a graceful drain (by the CLI and the load
        harness) so the final state of a terminated server survives
        it.
        """
        atomic_write_text(path, json.dumps(self.snapshot(), indent=2, sort_keys=True))
