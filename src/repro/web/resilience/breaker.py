"""Per-key circuit breaker (closed → open → half-open).

Keys are registrable domains in the crawler, but any hashable string
works.  Semantics are the classic trio:

* **closed** — calls flow; consecutive failures are counted;
* **open** — after ``failure_threshold`` consecutive failures, calls
  are rejected without touching the host until ``reset_after`` seconds
  of clock time pass;
* **half-open** — the first call after the cooldown is allowed through
  as a probe; success closes the circuit, failure re-opens it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ValidationError
from repro.web.resilience.clock import Clock, VirtualClock

__all__ = ["CircuitBreaker"]

_CLOSED = "closed"
_OPEN = "open"
_HALF_OPEN = "half-open"


@dataclass(slots=True)
class _CircuitState:
    state: str = _CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0


class CircuitBreaker:
    """Track failure streaks per key and fail fast on dead targets.

    Args:
        failure_threshold: consecutive failures that open the circuit.
        reset_after: seconds the circuit stays open before a probe.
        clock: time source (default: a fresh :class:`VirtualClock`).
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after: float = 60.0,
        clock: Clock | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValidationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_after < 0:
            raise ValidationError(f"reset_after must be >= 0, got {reset_after}")
        self._threshold = failure_threshold
        self._reset_after = reset_after
        self._clock = clock if clock is not None else VirtualClock()
        self._circuits: dict[str, _CircuitState] = {}

    def _circuit(self, key: str) -> _CircuitState:
        return self._circuits.setdefault(key, _CircuitState())

    def state(self, key: str) -> str:
        """The circuit state for ``key``: closed, open, or half-open."""
        return self._circuit(key).state

    def allow(self, key: str) -> bool:
        """Whether a call to ``key`` may proceed right now.

        An open circuit transitions to half-open (and allows one probe)
        once ``reset_after`` seconds have elapsed since it opened.
        """
        circuit = self._circuit(key)
        if circuit.state == _OPEN:
            elapsed = self._clock.monotonic() - circuit.opened_at
            # Time is injected: the default clock is the deterministic
            # VirtualClock; SystemClock is the one audited real-time
            # boundary callers opt into.
            if elapsed >= self._reset_after:
                circuit.state = _HALF_OPEN
                return True
            return False
        return True

    def record_success(self, key: str) -> None:
        """Report a successful call: closes the circuit, clears streaks."""
        circuit = self._circuit(key)
        circuit.state = _CLOSED
        circuit.consecutive_failures = 0

    def record_failure(self, key: str) -> None:
        """Report a failed call; may open (or re-open) the circuit."""
        circuit = self._circuit(key)
        circuit.consecutive_failures += 1
        # The injected clock only stamps opened_at; these comparisons
        # are deterministic under the default VirtualClock.
        if (
            circuit.state == _HALF_OPEN
            or circuit.consecutive_failures >= self._threshold
        ):
            circuit.state = _OPEN
            circuit.opened_at = self._clock.monotonic()
