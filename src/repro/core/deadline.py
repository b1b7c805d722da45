"""Request deadlines and cooperative cancellation.

A serving stack is only as robust as its slowest request: a scan that
ignores its caller's patience wedges a worker thread, strands an
admission slot, and keeps a snapshot pinned long after the client gave
up.  This module provides the *budget* half of the fix — a
:class:`Deadline` is an absolute expiry on a monotonic clock — and the
*cooperation* half: long-running loops deep in the engine (interval
scans, row scans, the eps-seek) call :func:`check_deadline`
periodically and abort with :class:`DeadlineExceeded` the moment the
active budget is spent.  :class:`ResiliencePolicy` is the retry half:
how many further attempts a caller makes, and how long it backs off
between them, within that budget.

Design constraints (mirroring :mod:`repro.obs.trace` and
:mod:`repro.faults`):

* **near-zero cost when disabled** — the active deadline lives in a
  thread-local; :func:`check_deadline` is one attribute load plus an
  ``is None`` test when no budget is armed, so un-budgeted callers
  (the CLI, benchmarks, tests) pay nothing;
* **thread-scoped, not global** — the query service executes batches
  on a single worker thread, so installing the group's deadline with
  :func:`deadline_scope` around one batch cannot leak into the next;
* **saturating arithmetic** — budgets clamp into ``[0, MAX_BUDGET]``
  and :meth:`Deadline.remaining` floors at ``0.0``, so remaining-budget
  values never go negative and never overflow downstream timeout math
  (``tests/test_server_fuzz.py`` property-tests both edges).

The clock is injectable (``clock=time.monotonic`` by default) so state
machines built on deadlines — the circuit breaker, the trace-counter
bench — can run on a deterministic fake clock.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

__all__ = [
    "MAX_BUDGET",
    "Deadline",
    "DeadlineExceeded",
    "ResiliencePolicy",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
]

#: Budgets saturate here (one year, in seconds): large enough to mean
#: "effectively unbounded", small enough that ``expires_at`` stays a
#: normal float no downstream ``min``/``+`` can overflow.
MAX_BUDGET = 365.0 * 24 * 3600


class DeadlineExceeded(Exception):
    """A cooperative cancellation: the active budget ran out mid-work.

    Raised from inside scan and retry loops; the serving layer maps
    it to a typed ``deadline`` rejection (slot and pin released), never
    a crashed worker or a wedged batch.
    """

    def __init__(self, message: str, site: str = "") -> None:
        super().__init__(message)
        self.site = site


class Deadline:
    """An absolute expiry on a monotonic clock.

    >>> clock = iter([0.0, 0.5, 2.0]).__next__
    >>> d = Deadline(1.0, clock=clock)     # expires at t=1.0
    >>> d.remaining()                      # t=0.5
    0.5
    >>> d.expired()                        # t=2.0
    True
    >>> d.remaining()                      # floors at zero, never negative
    0.0
    """

    __slots__ = ("budget", "expires_at", "_clock")

    def __init__(
        self,
        budget: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        # Saturate, don't trust: NaN compares false everywhere, so it
        # falls through to the zero clamp; infinities clamp to the cap.
        if not budget > 0.0:
            budget = 0.0
        elif budget > MAX_BUDGET:
            budget = MAX_BUDGET
        self.budget = budget
        self._clock = clock
        self.expires_at = clock() + budget

    def remaining(self) -> float:
        """Seconds of budget left; never negative."""
        left = self.expires_at - self._clock()
        return left if left > 0.0 else 0.0

    def expired(self) -> bool:
        return self._clock() >= self.expires_at

    def check(self, site: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(
                f"deadline exceeded after {self.budget:.3f}s budget"
                + (f" (at {site})" if site else ""),
                site=site,
            )

    def __repr__(self) -> str:
        return (
            f"Deadline(budget={self.budget:.3f}, "
            f"remaining={self.remaining():.3f})"
        )


@dataclass(frozen=True)
class ResiliencePolicy:
    """How hard a caller fights before giving up: ``max_retries``
    further attempts, sleeping ``backoff_base * backoff_factor**attempt``
    between them.  The server's admission control and the client's
    request retries both speak it; ``timeout`` bounds their waits (an
    admitted request's queueing, a client's response).
    """

    max_retries: int = 2
    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    timeout: Optional[float] = None

    def backoff(self, attempt: int) -> float:
        return self.backoff_base * (self.backoff_factor ** attempt)


_ACTIVE = threading.local()


def current_deadline() -> Optional[Deadline]:
    """The deadline armed on this thread, or ``None``."""
    return getattr(_ACTIVE, "deadline", None)


@contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[None]:
    """Arm ``deadline`` for the duration of the block (thread-local,
    re-entrant: the previous scope is restored on exit).  ``None``
    arms nothing — callers can pass an optional budget through
    unconditionally."""
    previous = getattr(_ACTIVE, "deadline", None)
    _ACTIVE.deadline = deadline
    try:
        yield
    finally:
        _ACTIVE.deadline = previous


def check_deadline(site: str = "") -> None:
    """The cooperative checkpoint instrumented loops call.

    One thread-local load when no deadline is armed; an expired active
    deadline raises :class:`DeadlineExceeded` carrying ``site``.
    """
    deadline = getattr(_ACTIVE, "deadline", None)
    if deadline is not None:
        deadline.check(site)
