"""Admission control: bounded concurrency with typed load shedding.

The service is sized for a fixed number of in-flight queries
(``max_inflight``).  Requests beyond that wait in a bounded FIFO queue;
requests beyond *that* are rejected immediately — the server sheds load
with a typed answer instead of growing an unbounded backlog and falling
over.  Three rejection types, mirroring the resilience taxonomy of the
fault layer (retryable, typed, never a silent hang):

* :class:`QuotaExceeded` — one client holds too many concurrent slots
  (``client_quota`` counts a client's queued *and* running requests);
* :class:`Overloaded` — the global wait queue is full: total pressure,
  not this client's fault, retry after backoff;
* :class:`AdmissionTimeout` — the request queued but no slot freed
  within the policy timeout: the server is saturated at this depth.

Retry/timeout semantics reuse :class:`~repro.core.deadline.
ResiliencePolicy` — the same knob set that governs the client's
request retries governs how long an admitted wait may block
(``policy.timeout``) and the backoff hints sent to rejected clients
(``policy.backoff(attempt)``), so server and client speak one
resilience dialect.

The controller is asyncio-native and single-loop: all state mutation
happens on the event loop, so no locks.  Slot hand-off is direct — a
released slot is granted to the oldest live waiter without touching the
``inflight`` count, which keeps the invariant ``inflight <=
max_inflight`` trivially true under any cancellation interleaving.
"""

from __future__ import annotations

import asyncio
from collections import deque
from contextlib import asynccontextmanager
from typing import AsyncIterator, Callable, Deque, Dict, Optional

from repro.core.deadline import Deadline, ResiliencePolicy

__all__ = [
    "AdmissionController",
    "AdmissionTimeout",
    "DeadlineExpired",
    "Overloaded",
    "QuotaExceeded",
    "Rejection",
]

#: Default server-side policy: a couple of client retries with short
#: backoff, and a 2 s bound on how long an admitted request may queue.
DEFAULT_POLICY = ResiliencePolicy(
    max_retries=3, backoff_base=0.05, backoff_factor=2.0, timeout=2.0
)


class Rejection(Exception):
    """Base of the typed load-shed rejections (never server crashes).

    ``reason`` is the wire-level discriminator; ``retry_after`` the
    backoff hint (seconds) sent to the client.
    """

    reason = "rejected"

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class QuotaExceeded(Rejection):
    """This client already holds its full per-client slot quota."""

    reason = "quota"


class Overloaded(Rejection):
    """The global wait queue is full — total load shedding."""

    reason = "overload"


class AdmissionTimeout(Rejection):
    """Queued, but no slot freed within the policy timeout."""

    reason = "timeout"


class DeadlineExpired(Rejection):
    """The request's own budget ran out (before or while queued).

    Distinct from :class:`AdmissionTimeout`: the server had capacity
    headroom by its own policy — the *client's* deadline was tighter.
    Retrying with a fresh budget may well succeed, hence the small
    ``retry_after``.
    """

    reason = "deadline"


class AdmissionController:
    """Global in-flight limit + per-client quotas over a bounded queue."""

    def __init__(
        self,
        max_inflight: int = 16,
        client_quota: int = 8,
        queue_limit: int = 64,
        policy: Optional[ResiliencePolicy] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if client_quota < 1:
            raise ValueError("client_quota must be >= 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        self.max_inflight = max_inflight
        self.client_quota = client_quota
        self.queue_limit = queue_limit
        self.policy = policy or DEFAULT_POLICY
        self._inflight = 0
        self._waiters: Deque["asyncio.Future[None]"] = deque()
        #: client id -> queued + running slot count.
        self._held: Dict[str, int] = {}
        #: Optional ``queue_depth -> seconds`` hint source (the overload
        #: controller's drain estimate); when set, overload/timeout
        #: rejections carry the larger of it and the policy backoff.
        self.retry_hint: Optional[Callable[[int], float]] = None
        self.stats: Dict[str, int] = {
            "server.admitted": 0,
            "server.rejected.quota": 0,
            "server.rejected.overload": 0,
            "server.rejected.timeout": 0,
            "server.rejected.deadline": 0,
            "server.inflight_peak": 0,
            "server.queue_peak": 0,
        }

    # -- gauges ----------------------------------------------------------

    @property
    def inflight(self) -> int:
        """Currently admitted (executing) requests."""
        return self._inflight

    @property
    def queue_depth(self) -> int:
        """Requests waiting for a slot right now."""
        return len(self._waiters)

    def held_by(self, client_id: str) -> int:
        """Slots (queued + running) currently charged to one client."""
        return self._held.get(client_id, 0)

    # -- the slot protocol -----------------------------------------------

    async def acquire(
        self, client_id: str, deadline: Optional[Deadline] = None
    ) -> None:
        """Admit one request for ``client_id`` or raise a typed
        :class:`Rejection`.  A ``deadline`` bounds the queue wait by
        its remaining budget (never longer than the policy timeout); a
        request whose budget is already spent is rejected before it
        charges anything.  On success the caller *must* pair with
        :meth:`release` (use :meth:`slot`)."""
        if deadline is not None and deadline.expired():
            self.stats["server.rejected.deadline"] += 1
            raise DeadlineExpired(
                "request deadline expired before admission",
                retry_after=self.policy.backoff(0),
            )
        held = self._held.get(client_id, 0)
        if held >= self.client_quota:
            self.stats["server.rejected.quota"] += 1
            raise QuotaExceeded(
                f"client {client_id!r} holds {held}/{self.client_quota} "
                "slots",
                retry_after=self.policy.backoff(0),
            )
        self._held[client_id] = held + 1
        if self._inflight < self.max_inflight and not self._waiters:
            self._grant()
            return
        if len(self._waiters) >= self.queue_limit:
            self._uncharge(client_id)
            self.stats["server.rejected.overload"] += 1
            raise Overloaded(
                f"wait queue full ({self.queue_limit} deep, "
                f"{self._inflight} in flight)",
                retry_after=self._hint(1),
            )
        timeout = self.policy.timeout
        deadline_bound = False
        if deadline is not None:
            remaining = deadline.remaining()
            if timeout is None or remaining < timeout:
                timeout = remaining
                deadline_bound = True
        waiter: "asyncio.Future[None]" = (
            asyncio.get_running_loop().create_future()
        )
        self._waiters.append(waiter)
        self.stats["server.queue_peak"] = max(
            self.stats["server.queue_peak"], len(self._waiters)
        )
        try:
            await asyncio.wait_for(waiter, timeout=timeout)
        except asyncio.TimeoutError:
            self._discard(waiter)
            self._uncharge(client_id)
            if deadline_bound:
                self.stats["server.rejected.deadline"] += 1
                raise DeadlineExpired(
                    "request deadline expired while queued "
                    f"({self._inflight} in flight, "
                    f"{len(self._waiters)} queued)",
                    retry_after=self.policy.backoff(0),
                ) from None
            self.stats["server.rejected.timeout"] += 1
            raise AdmissionTimeout(
                f"no slot within {self.policy.timeout}s "
                f"({self._inflight} in flight, "
                f"{len(self._waiters)} queued)",
                retry_after=self._hint(1),
            ) from None
        except asyncio.CancelledError:
            if waiter.done() and not waiter.cancelled():
                # Granted between the release and our cancellation:
                # the slot is ours — hand it straight onward.
                self._pass_on()
            else:
                self._discard(waiter)
            self._uncharge(client_id)
            raise
        # Granted: the releaser transferred its slot without touching
        # the inflight count.
        self.stats["server.admitted"] += 1
        self.stats["server.inflight_peak"] = max(
            self.stats["server.inflight_peak"], self._inflight
        )

    def release(self, client_id: str) -> None:
        """Return one slot, waking the oldest live waiter if any."""
        self._uncharge(client_id)
        self._pass_on()

    @asynccontextmanager
    async def slot(
        self, client_id: str, deadline: Optional[Deadline] = None
    ) -> AsyncIterator[None]:
        """``async with admission.slot(client): ...`` — acquire/release
        bracketed; rejections propagate without holding anything."""
        await self.acquire(client_id, deadline)
        try:
            yield
        finally:
            self.release(client_id)

    # -- internals -------------------------------------------------------

    def _hint(self, attempt: int) -> float:
        """The retry hint for a shed request: policy backoff, raised to
        the overload controller's queue-drain estimate when wired."""
        backoff = self.policy.backoff(attempt)
        if self.retry_hint is None:
            return backoff
        try:
            return max(backoff, float(self.retry_hint(len(self._waiters))))
        except Exception:
            return backoff

    def _grant(self) -> None:
        self._inflight += 1
        self.stats["server.admitted"] += 1
        self.stats["server.inflight_peak"] = max(
            self.stats["server.inflight_peak"], self._inflight
        )

    def _pass_on(self) -> None:
        """Transfer a freed slot to a waiter, or retire it."""
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return
        self._inflight -= 1

    def _discard(self, waiter: "asyncio.Future[None]") -> None:
        try:
            self._waiters.remove(waiter)
        except ValueError:
            pass

    def _uncharge(self, client_id: str) -> None:
        held = self._held.get(client_id, 0)
        if held <= 1:
            self._held.pop(client_id, None)
        else:
            self._held[client_id] = held - 1

    def counters(self) -> Dict[str, int]:
        out = dict(self.stats)
        out["server.inflight"] = self._inflight
        out["server.queue_depth"] = len(self._waiters)
        return out
