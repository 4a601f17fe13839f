"""Host-speed normalization of timings.

On a shared 2-vCPU VM the effective CPU speed was measured to drift by
about 20 % either way over seconds to minutes (other tenants share the
physical cores), far more than the code changes the benchmark must
resolve, and CPU time drifts with it.  :class:`SpeedSampler` therefore
times a fixed pure-Python probe while a timed operation runs: a
``SIGALRM`` handler interrupts the main thread every
:data:`INTERVAL_S` seconds and runs the probe.  The operation's
*normalized* duration is

    sum over the gaps between interruptions of gap * NOMINAL_PROBE_S / probe

with each gap scaled by the probe that ends it, that is, the time the
same work would have taken on a host where the probe takes
:data:`NOMINAL_PROBE_S`.  Handler time is excluded, so sampling adds no
work to the result.

The probe is only a fair measure while it has the CPU and the GIL to
itself.  So the handler runs it only while no other thread or child
process of this one may run (:func:`alone`); otherwise it records the
interruption without a probe, and the gap keeps the last fair reading.
Each operation starts with such a reading, a short burst of probes
taken before it, so an operation that runs in parallel throughout is
scaled by the host's speed just before it.  Workloads report normalized
times and keep the raw ones in the environment record.
"""

from __future__ import annotations

import os
import signal
import statistics
import threading
import time
from typing import Callable, Sequence, TypeVar

INTERVAL_S = 0.02
#: Length of the probe burst before each operation.
BURST_S = 0.01
NOMINAL_PROBE_S = 250e-6

T = TypeVar("T")

#: One interruption: ``(handler start, handler end, probe seconds or None)``.
Event = tuple[float, float, "float | None"]


def probe() -> int:
    """Fixed interpreter work: dict updates and integer arithmetic."""
    total = 0
    counts: dict[int, int] = {}
    for i in range(1500):
        key = i & 63
        counts[key] = counts.get(key, 0) + i
        total += key * 3
    return total


def alone() -> bool:
    """True while nothing else of this process may run.

    That is: one Python thread (another would take turns on the GIL),
    no other running native thread (a BLAS pool, say) and no running
    child process.  False when ``/proc`` cannot tell.
    """
    if threading.active_count() != 1:
        return False
    pid = os.getpid()
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as f:
            children = f.read().split()
    except OSError:
        return False
    others = [f"/proc/{pid}/task/{t}/stat" for t in tasks if t != str(pid)]
    others += [f"/proc/{child}/stat" for child in children]
    for path in others:
        try:
            with open(path, encoding="ascii") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue  # ended meanwhile
        if state in ("R", "D"):
            return False
    return True


def normalized(
    start: float, end: float, events: Sequence[Event], first_probe_s: float
) -> float:
    """Normalized seconds of the ``perf_counter`` interval [start, end].

    ``first_probe_s`` is the reading in force until the first probe.
    """
    total, previous, probe_s = 0.0, start, first_probe_s
    for began, ended, measured in events:
        if measured is not None:
            probe_s = measured
        total += max(0.0, began - previous) * NOMINAL_PROBE_S / probe_s
        previous = ended
    return total + max(0.0, end - previous) * NOMINAL_PROBE_S / probe_s


class SpeedSampler:
    """Measures host speed during timed operations.

    An inactive sampler only times them (normalized = raw); traced runs
    use one, so no probe lands inside a span.
    """

    def __init__(
        self, interval: float = INTERVAL_S, burst_s: float = BURST_S, active: bool = True
    ) -> None:
        self._interval = interval
        self._active = active
        self._burst_s = burst_s
        self._events: list[Event] = []
        #: every probe reading (bursts and interruptions), in order.
        self.samples: list[float] = []

    def burst(self) -> float:
        """Median seconds of one probe over a burst of :data:`BURST_S`.

        The median leaves out probes that were preempted.
        """
        times: list[float] = []
        end = time.perf_counter() + self._burst_s
        while True:
            start = time.perf_counter()
            probe()
            stop = time.perf_counter()
            times.append(stop - start)
            if stop >= end and len(times) >= 3:
                break
        probe_s = statistics.median(times)
        self.samples.append(probe_s)
        return probe_s

    def _interrupt(self, signum, frame) -> None:
        began = time.perf_counter()
        probe_s = None
        if alone():
            start = time.perf_counter()
            probe()
            probe_s = time.perf_counter() - start
            self.samples.append(probe_s)
        self._events.append((began, time.perf_counter(), probe_s))

    def time(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """``(fn(), raw seconds, normalized seconds)``."""
        if not self._active:
            start = time.perf_counter()
            result = fn()
            raw = time.perf_counter() - start
            return result, raw, raw
        first = self.burst()
        self._events = []
        previous = signal.signal(signal.SIGALRM, self._interrupt)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        return result, end - start, normalized(start, end, self._events, first)
