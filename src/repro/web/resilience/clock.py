"""Injectable time: ``Clock`` (read) and ``Sleeper`` (wait) protocols.

Retry backoff, circuit-breaker cooldowns, and crawl deadlines all need
a notion of time, but reading the wall clock inside library code makes
crawls irreproducible.  Time is therefore injected:

* :class:`VirtualClock` — the default everywhere: a manually advanced
  monotonic counter whose :meth:`~VirtualClock.sleep` *advances the
  clock instead of blocking*, so backoff schedules and deadlines are
  exercised deterministically and tests finish instantly;
* :class:`SystemClock` — the production implementation backed by
  :func:`time.monotonic`/:func:`time.sleep`, for crawling hosts that
  are actually remote.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

from repro.exceptions import ValidationError

__all__ = ["Clock", "Sleeper", "SystemClock", "VirtualClock"]


@runtime_checkable
class Clock(Protocol):
    """A monotonic time source."""

    def monotonic(self) -> float:
        """Seconds from an arbitrary, never-decreasing origin."""
        ...


@runtime_checkable
class Sleeper(Protocol):
    """Something that can wait (or pretend to)."""

    def sleep(self, seconds: float) -> None:
        """Block (or advance virtual time) for ``seconds``."""
        ...


class VirtualClock:
    """Deterministic clock + sleeper: sleeping advances time instantly.

    Args:
        start: initial reading of :meth:`monotonic`.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def monotonic(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def sleep(self, seconds: float) -> None:
        """Advance virtual time by ``seconds`` without blocking."""
        self.advance(seconds)

    def advance(self, seconds: float) -> None:
        """Move the clock forward (e.g. to model a slow response)."""
        if seconds < 0:
            raise ValidationError(f"cannot advance time by {seconds}")
        self._now += float(seconds)


class SystemClock:
    """Wall-clock implementation for production crawls.

    The only place the library touches real time; everything else goes
    through the protocols so determinism is opt-out, not opt-in.
    """

    def monotonic(self) -> float:
        """Real monotonic seconds (:func:`time.monotonic`)."""
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        """Really sleep (:func:`time.sleep`); never negative."""
        time.sleep(max(0.0, seconds))
