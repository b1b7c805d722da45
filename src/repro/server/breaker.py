"""Circuit breaking and overload control for the serving path.

Admission control (:mod:`repro.server.admission`) bounds *how many*
requests run; it says nothing about whether the backend they run
against is healthy.  When an index's backend starts failing or hanging,
letting admitted requests pile into it burns worker time, holds
admission slots hostage, and turns one sick index into a sick server.
The classic fix is a **circuit breaker** per backend:

* **closed** — traffic flows; every request's outcome and latency land
  in a rolling :class:`HealthWindow`.  When the window holds at least
  ``min_samples`` outcomes and the error rate reaches
  ``failure_threshold``, the breaker **trips**;
* **open** — requests are shed instantly with a typed ``breaker``
  rejection (no worker time spent) until ``reset_timeout`` elapses on
  the breaker's clock;
* **half_open** — up to ``half_open_probes`` requests are let through
  as probes.  One success closes the breaker; one failure re-opens it
  and restarts the timer.

:class:`OverloadController` owns one breaker per backend key (the
service keys them by index name) and derives an **honest**
``retry_after`` from live queue depth and the measured mean latency
(how long the backlog actually takes to drain, not a blind
exponential).

The clock is injectable so the state machine is deterministic under
test and in the trace-counter bench; everything here is event-loop
single-threaded (the service checks/records from the loop only), so no
locks.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.deadline import ResiliencePolicy
from repro.server.admission import Rejection

__all__ = [
    "BreakerOpen",
    "CircuitBreaker",
    "HealthWindow",
    "OverloadController",
    "STATES",
]

STATES = ("closed", "open", "half_open")
#: Numeric state codes for the integer-only counter surfaces
#: (``/stats`` sections and the SERVER trace render integers).
STATE_CODES = {"closed": 0, "open": 1, "half_open": 2}


class BreakerOpen(Rejection):
    """Shed by an open circuit: the backend is sick, not the client.

    Retryable — ``retry_after`` carries the controller's drain
    estimate, by which time the breaker will be probing again.
    """

    reason = "breaker"


class HealthWindow:
    """A rolling window of (ok, latency) outcomes — the health score."""

    __slots__ = ("_samples",)

    def __init__(self, size: int = 32) -> None:
        if size < 1:
            raise ValueError("window size must be >= 1")
        self._samples: Deque[Tuple[bool, float]] = deque(maxlen=size)

    def record(self, ok: bool, latency: float) -> None:
        self._samples.append((bool(ok), max(0.0, float(latency))))

    @property
    def samples(self) -> int:
        return len(self._samples)

    @property
    def error_rate(self) -> float:
        if not self._samples:
            return 0.0
        failures = sum(1 for ok, _ in self._samples if not ok)
        return failures / len(self._samples)

    @property
    def mean_latency(self) -> float:
        if not self._samples:
            return 0.0
        return sum(lat for _, lat in self._samples) / len(self._samples)

    def reset(self) -> None:
        self._samples.clear()


class CircuitBreaker:
    """closed → open → half_open → (closed | open), per backend."""

    def __init__(
        self,
        name: str,
        window_size: int = 32,
        failure_threshold: float = 0.5,
        min_samples: int = 4,
        reset_timeout: float = 1.0,
        half_open_probes: int = 2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.name = name
        self.window = HealthWindow(window_size)
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._clock = clock
        self.state = "closed"
        self._opened_at = 0.0
        self._probes_out = 0
        #: Trips without an intervening full close: tells a first open
        #: from a re-open in the counters.
        self.consecutive_opens = 0
        self.counters_: Dict[str, int] = {
            "breaker.opened": 0,
            "breaker.reopened": 0,
            "breaker.closed": 0,
            "breaker.probes": 0,
        }

    # -- the gate ---------------------------------------------------------

    def allow(self) -> bool:
        """May a request pass right now?  (Open breakers flip to
        half-open once the reset timer lapses; half-open breakers admit
        a bounded number of probes.)"""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._clock() - self._opened_at < self.reset_timeout:
                return False
            self.state = "half_open"
            self._probes_out = 0
        # half_open
        if self._probes_out >= self.half_open_probes:
            return False
        self._probes_out += 1
        self.counters_["breaker.probes"] += 1
        return True

    # -- outcomes ---------------------------------------------------------

    def record(self, ok: bool, latency: float) -> None:
        self.window.record(ok, latency)
        if self.state == "half_open":
            if ok:
                self._close()
            else:
                self._trip()
            return
        if self.state == "closed":
            if (
                self.window.samples >= self.min_samples
                and self.window.error_rate >= self.failure_threshold
            ):
                self._trip()
        # state == "open": a straggler finishing after the trip only
        # lands in the (reset-on-trip) window; no transition.

    def _trip(self) -> None:
        reopened = self.consecutive_opens > 0
        self.state = "open"
        self._opened_at = self._clock()
        self._probes_out = 0
        self.consecutive_opens += 1
        self.window.reset()
        self.counters_[
            "breaker.reopened" if reopened else "breaker.opened"
        ] += 1

    def _close(self) -> None:
        self.state = "closed"
        self._probes_out = 0
        self.consecutive_opens = 0
        self.window.reset()
        self.counters_["breaker.closed"] += 1

    def cooldown_remaining(self) -> float:
        """Seconds until an open breaker starts probing (0 otherwise).

        A shed hint below this number guarantees the client a wasted
        retry, so the controller folds it into ``retry_after``."""
        if self.state != "open":
            return 0.0
        return max(
            0.0, self.reset_timeout - (self._clock() - self._opened_at)
        )

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, state={self.state!r}, "
            f"samples={self.window.samples}, "
            f"error_rate={self.window.error_rate:.2f})"
        )


class OverloadController:
    """Per-backend breakers + honest shed hints."""

    def __init__(
        self,
        policy: Optional[ResiliencePolicy] = None,
        max_inflight: int = 16,
        window_size: int = 32,
        failure_threshold: float = 0.5,
        min_samples: int = 4,
        reset_timeout: float = 1.0,
        half_open_probes: int = 2,
        clock: Callable[[], float] = time.monotonic,
        max_retry_after: float = 5.0,
    ) -> None:
        self.policy = policy or ResiliencePolicy()
        self.max_inflight = max(1, max_inflight)
        self.window_size = window_size
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._clock = clock
        self.max_retry_after = max_retry_after
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.stats: Dict[str, int] = {"breaker.shed": 0}

    def breaker(self, key: str) -> CircuitBreaker:
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                key,
                window_size=self.window_size,
                failure_threshold=self.failure_threshold,
                min_samples=self.min_samples,
                reset_timeout=self.reset_timeout,
                half_open_probes=self.half_open_probes,
                clock=self._clock,
            )
            self._breakers[key] = breaker
        return breaker

    # -- the serving-path API --------------------------------------------

    def check(self, key: str, queue_depth: int = 0) -> None:
        """Raise :class:`BreakerOpen` if ``key``'s circuit is shedding."""
        breaker = self.breaker(key)
        if not breaker.allow():
            self.stats["breaker.shed"] += 1
            # The drain estimate is capped, but the breaker's remaining
            # cooldown is a hard fact: nothing gets served before the
            # half-open probe, so a smaller hint would be a lie and the
            # client would burn its whole retry budget inside the open
            # window.
            raise BreakerOpen(
                f"circuit open for {key!r} "
                f"(error rate tripped; retrying after backlog drains)",
                retry_after=max(
                    self.retry_after(queue_depth),
                    breaker.cooldown_remaining(),
                ),
            )

    def record(self, key: str, ok: bool, latency: float) -> None:
        """Record one request outcome; may trip the breaker."""
        self.breaker(key).record(ok, latency)

    def retry_after(self, queue_depth: int) -> float:
        """An honest backoff hint: the time the current backlog needs
        to drain at the measured service rate.

        ``(queue_depth + 1)`` requests ahead of the retrier, served
        ``max_inflight`` at a time at the worst observed mean latency —
        floored at the policy's first backoff step (never tell a client
        "retry immediately" while shedding), capped at
        ``max_retry_after`` (never park a client for minutes on a
        transient spike).
        """
        latencies = [
            b.window.mean_latency
            for b in self._breakers.values()
            if b.window.samples
        ]
        per_request = max(latencies) if latencies else self.policy.backoff(0)
        estimate = (queue_depth + 1) * per_request / self.max_inflight
        return max(
            self.policy.backoff(1), min(estimate, self.max_retry_after)
        )

    # -- observability ----------------------------------------------------

    def open_now(self) -> List[str]:
        return sorted(
            key
            for key, breaker in self._breakers.items()
            if breaker.state != "closed"
        )

    def counters(self) -> Dict[str, int]:
        """Integer counters for ``/stats`` and the SERVER trace: the
        lifetime transition tallies plus one ``breaker.state.<key>``
        code per backend (0=closed, 1=open, 2=half_open)."""
        out = dict(self.stats)
        for key, breaker in self._breakers.items():
            for name, value in breaker.counters_.items():
                out[name] = out.get(name, 0) + value
            out[f"breaker.state.{key}"] = STATE_CODES[breaker.state]
        out["breaker.open_now"] = sum(
            1 for b in self._breakers.values() if b.state != "closed"
        )
        return out
