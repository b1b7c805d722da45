"""The scatter: one call per dispatched shard, in shard order.

A shard merge costs a fraction of a millisecond — less than one round
trip through any worker pool — so per-shard work runs inline on the
calling thread and a sharded index is z-range *pruning* plus this loop.
What the loop adds over a bare ``for`` is fault handling:

* a **deadline checkpoint** before every attempt, so a scatter over
  many shards aborts cooperatively once the request's budget is spent;
* **bounded retries with exponential backoff** around the errors a
  shard call can return (a transient I/O error on a file-backed shard,
  an injected fault) — the backoff never sleeps past the active
  deadline;
* a typed :class:`PartialResultError` carrying the shards that did
  answer when a shard keeps failing — never a hang, never a silently
  short answer.

Retries surface as a ``shard.retries`` trace counter on the
coordinator's span (:meth:`ShardedSpatialStore.range_query`), and only
when one happened: fault-free traces carry no resilience counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.deadline import (
    DeadlineExceeded,
    check_deadline,
    current_deadline,
)

__all__ = [
    "PartialResultError",
    "ResiliencePolicy",
    "ScatterStats",
    "ShardCall",
    "run_shard_calls",
]

#: One unit of scatter work: ``(shard_id, call)`` — the shard the
#: zero-argument ``call`` reads, for failure attribution.
ShardCall = Tuple[int, Callable[[], Any]]


@dataclass(frozen=True)
class ResiliencePolicy:
    """How hard a caller fights before giving up: ``max_retries``
    further attempts, sleeping ``backoff_base * backoff_factor**attempt``
    between them.  The scatter, the server's admission control and the
    client's request retries all speak it; ``timeout`` bounds the waits
    of the latter two (an admitted request's queueing, a client's
    response) — the inline scatter has nothing to wait on.
    """

    max_retries: int = 2
    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    timeout: Optional[float] = None

    def backoff(self, attempt: int) -> float:
        return self.backoff_base * (self.backoff_factor ** attempt)


@dataclass
class ScatterStats:
    """What the scatter had to do: ``retries`` counts repeated shard
    calls, ``failures`` the shards that failed every attempt (these
    also raise :class:`PartialResultError`)."""

    retries: int = 0
    failures: Dict[int, BaseException] = field(default_factory=dict)


class PartialResultError(RuntimeError):
    """A scatter completed on some shards but not all.

    ``results`` maps shard id to its result for every shard that
    answered; ``failures`` maps shard id to the terminal exception.
    Callers that can serve partial answers may catch this and use
    ``results``; everyone else gets a loud, typed failure instead of a
    hang or a silently short answer.
    """

    def __init__(
        self,
        failures: Dict[int, BaseException],
        results: Dict[int, Any],
        stats: Optional[ScatterStats] = None,
    ) -> None:
        self.failures = failures
        self.results = results
        self.stats = stats
        detail = "; ".join(
            f"shard {sid}: {type(exc).__name__}: {exc}"
            for sid, exc in sorted(failures.items())
        )
        super().__init__(
            f"{len(failures)} shard(s) failed after retries "
            f"({len(results)} answered): {detail}"
        )


def run_shard_calls(
    calls: Sequence[ShardCall], policy: ResiliencePolicy
) -> Tuple[List[Any], ScatterStats]:
    """Run ``calls`` in order with retries per ``policy``; returns the
    results in submission order plus the :class:`ScatterStats`, or
    raises :class:`PartialResultError`."""
    stats = ScatterStats()
    results: List[Any] = []
    for shard_id, call in calls:
        attempt = 0
        while True:
            check_deadline("shard.scatter")
            try:
                results.append(call())
                break
            except DeadlineExceeded:
                # A cooperative abort inside the shard call is the
                # caller's budget speaking, not a shard failure — never
                # retried.
                raise
            except Exception as exc:
                if attempt >= policy.max_retries:
                    stats.failures[shard_id] = exc
                    results.append(None)
                    break
                delay = policy.backoff(attempt)
                deadline = current_deadline()
                if deadline is not None:
                    # Sleep to the budget at most: the checkpoint above
                    # then raises at the deadline, not a backoff later.
                    delay = min(delay, deadline.remaining())
                time.sleep(delay)
                attempt += 1
                stats.retries += 1
    if stats.failures:
        answered = {
            shard_id: result
            for (shard_id, _), result in zip(calls, results)
            if shard_id not in stats.failures
        }
        raise PartialResultError(dict(stats.failures), answered, stats)
    return results, stats
