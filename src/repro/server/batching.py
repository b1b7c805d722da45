"""Request batching: coalesce concurrent queries into shared scans.

Concurrent range (and point) queries against the same index at the
same snapshot epoch rarely touch independent data — production read
traffic clusters on hot regions.  The batcher exploits that: while one
batch executes, newly arriving requests accumulate; the next batch
takes them all at once, and :func:`batched_range_matches` answers the
whole group with **one** shared scan:

1. every box is clipped to the grid and decomposed into the bare
   ``(zlo, zhi)`` intervals of its z elements;
2. the element intervals of *all* boxes merge into one
   ascending disjoint interval list (overlapping queries literally
   share their overlap), scanned in a single ``interval_query`` pass —
   one tree descent per merged interval, no matter how many requests
   contributed;
3. each request's answer reassembles by binary-searching its own
   elements out of the merged runs' leaf keys (every element interval
   lies inside exactly one merged interval), concatenated in element
   order — which is global z order, **byte-identical** to running
   ``target.range_query(box)`` per request; the leaf keys locate each
   element, so no point is re-shuffled.

The identity in step 3 is the full-depth-cover argument: a scan of a
z interval *is* the exact answer for any element contained in it.
``tests/test_server_batching.py`` differential-tests the equality over
live trees and snapshot views.
"""

from __future__ import annotations

import asyncio
import bisect
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.deadline import Deadline, deadline_scope
from repro.core.decompose import box_intervals
from repro.core.geometry import Box, Grid

__all__ = [
    "QueryBatcher",
    "batched_range_matches",
    "merge_intervals",
]

Point = Tuple[int, ...]
Interval = Tuple[int, int]


def _group_deadline(
    deadlines: Sequence[Optional[Deadline]],
) -> Optional[Deadline]:
    """The deadline a *shared* scan may honour: the latest member
    expiry, or ``None`` if any member is unbounded.

    Aborting the shared pass any earlier would poison peers that still
    have budget — a member whose own (tighter) deadline lapses is
    handled individually on the event loop, not by killing the scan.
    """
    latest: Optional[Deadline] = None
    for deadline in deadlines:
        if deadline is None:
            return None
        if latest is None or deadline.expires_at > latest.expires_at:
            latest = deadline
    return latest


def merge_intervals(intervals: Sequence[Interval]) -> List[Interval]:
    """Collapse inclusive z intervals into a disjoint ascending list.

    Overlapping *and adjacent* intervals merge (scanning ``[a, b]`` and
    ``[b+1, c]`` separately equals scanning ``[a, c]``), so the merged
    list is the cheapest interval set whose union covers every input.
    """
    out: List[List[int]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1][1] = hi
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def _cut(
    codes: Sequence[int], run: Sequence[Point], zlo: int, zhi: int
) -> Sequence[Point]:
    """The points of a z-sorted run whose codes lie in ``[zlo, zhi]``."""
    lo = bisect.bisect_left(codes, zlo)
    hi = bisect.bisect_right(codes, zhi, lo)
    return run[lo:hi]


def batched_range_matches(
    target: Any, grid: Grid, boxes: Sequence[Box]
) -> List[Tuple[Point, ...]]:
    """Answer every box in one shared pass over ``target``.

    ``target`` is anything with ``interval_query(intervals)`` — a live
    :class:`~repro.storage.prefix_btree.ZkdTree` or its snapshot
    view.

    Returns one match tuple per input box, each byte-identical to
    ``target.range_query(box).matches``.
    """
    per_box: List[List[Interval]] = []
    shared: List[Interval] = []
    for box in boxes:
        clipped = grid.clip(box)
        intervals = [] if clipped is None else box_intervals(grid, clipped)
        shared.extend(intervals)
        per_box.append(intervals)

    merged = merge_intervals(shared)
    runs = target.interval_query(merged) if merged else ()
    merged_los = [lo for lo, _ in merged]

    results: List[Tuple[Point, ...]] = []
    for intervals in per_box:
        out: List[Point] = []
        for zlo, zhi in intervals:
            # The element lies inside exactly one merged interval (it
            # was one of the union's inputs).
            index = bisect.bisect_right(merged_los, zlo) - 1
            out.extend(_cut(*runs[index], zlo, zhi))
        results.append(tuple(out))
    return results


class QueryBatcher:
    """Asyncio coalescer: accumulate while busy, execute in groups.

    ``execute(key, payloads) -> results`` runs synchronously in the
    batcher's single worker thread, one batch at a time.  ``submit``
    parks the request in
    the pending queue; the drain loop pulls everything queued — up to
    ``max_batch`` — groups it by key (index, epoch), and dispatches one
    ``execute`` per group.  While a group executes the loop thread
    keeps accepting requests, which become the next batch: batch size
    adapts to load with no artificial delay.

    ``max_batch=1`` degenerates to request-at-a-time dispatch through
    the identical machinery — the serial baseline the serving benchmark
    compares against.
    """

    def __init__(
        self,
        execute: Callable[[Hashable, List[Any]], List[Any]],
        max_batch: int = 64,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._execute = execute
        self.max_batch = max_batch
        self._pending: Deque[
            Tuple[Hashable, Any, "asyncio.Future[Any]", Optional[Deadline]]
        ] = deque()
        self._wakeup: Optional["asyncio.Future[None]"] = None
        self._task: Optional["asyncio.Task[None]"] = None
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-batch"
        )
        self._closed = False
        self.stats: Dict[str, int] = {
            "server.batches": 0,
            "server.batched_requests": 0,
            "server.batch_size_peak": 0,
            "server.batch_skipped": 0,
        }

    @property
    def pool(self) -> ThreadPoolExecutor:
        """The worker pool (shared with unbatchable fallback work so
        everything store-touching serializes on one thread)."""
        return self._pool

    async def submit(
        self,
        key: Hashable,
        payload: Any,
        deadline: Optional[Deadline] = None,
    ) -> Any:
        """Queue one request; resolves with its slice of the group
        result (or raises what the group's execution raised).

        ``deadline`` is the request's remaining budget.  The group it
        lands in executes under the *most patient* member's deadline
        (``None`` if any member is unbounded), so one impatient request
        can never abort a shared scan its batch peers still want — the
        impatient request is cut loose individually (its caller times
        out, its future is abandoned, its entry skipped if the group
        has not started), while the scan runs on for the others.
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        self._pending.append((key, payload, future, deadline))
        if self._task is None or self._task.done():
            self._task = loop.create_task(self._drain(loop))
        elif self._wakeup is not None and not self._wakeup.done():
            self._wakeup.set_result(None)
        return await future

    async def _drain(self, loop: "asyncio.AbstractEventLoop") -> None:
        while not self._closed:
            if not self._pending:
                self._wakeup = loop.create_future()
                try:
                    await asyncio.wait_for(self._wakeup, timeout=5.0)
                except asyncio.TimeoutError:
                    # Idle: retire the drain task; the next submit
                    # starts a fresh one.
                    if not self._pending:
                        return
                finally:
                    self._wakeup = None
            batch = [
                self._pending.popleft()
                for _ in range(min(len(self._pending), self.max_batch))
            ]
            if not batch:
                continue
            groups: Dict[
                Hashable,
                List[Tuple[Any, "asyncio.Future[Any]", Optional[Deadline]]],
            ] = {}
            for key, payload, future, deadline in batch:
                if future.done():
                    # The caller already gave up (deadline/timeout or a
                    # dropped connection): its slot is released; do not
                    # spend scan time on an answer nobody will read.
                    self.stats["server.batch_skipped"] += 1
                    continue
                groups.setdefault(key, []).append(
                    (payload, future, deadline)
                )
            for key, items in groups.items():
                payloads = [payload for payload, _, _ in items]
                self.stats["server.batches"] += 1
                self.stats["server.batched_requests"] += len(items)
                self.stats["server.batch_size_peak"] = max(
                    self.stats["server.batch_size_peak"], len(items)
                )
                group_deadline = _group_deadline(
                    [deadline for _, _, deadline in items]
                )
                try:
                    results = await loop.run_in_executor(
                        self._pool,
                        self._run_group,
                        key,
                        payloads,
                        group_deadline,
                    )
                    if len(results) != len(items):
                        raise RuntimeError(
                            "batch executor returned "
                            f"{len(results)} results for {len(items)} "
                            "requests"
                        )
                except asyncio.CancelledError:
                    for _, future, _ in items:
                        if not future.done():
                            future.cancel()
                    raise
                except BaseException as exc:
                    for _, future, _ in items:
                        if not future.done():
                            future.set_exception(exc)
                else:
                    for (_, future, _), result in zip(items, results):
                        if not future.done():
                            future.set_result(result)

    def _run_group(
        self,
        key: Hashable,
        payloads: List[Any],
        deadline: Optional[Deadline],
    ) -> List[Any]:
        """Worker-thread entry: arm the group deadline around the
        shared execution so the cooperative checks deep in the scan
        loops observe it."""
        with deadline_scope(deadline):
            return self._execute(key, payloads)

    def close(self) -> None:
        """Stop the drain loop and the worker thread; pending requests
        fail with ``RuntimeError``."""
        if self._closed:
            return
        self._closed = True
        if self._wakeup is not None and not self._wakeup.done():
            self._wakeup.set_result(None)
        if self._task is not None:
            self._task.cancel()
        while self._pending:
            _, _, future, _ = self._pending.popleft()
            if not future.done():
                future.set_exception(RuntimeError("batcher closed"))
        self._pool.shutdown(wait=False)

    def counters(self) -> Dict[str, int]:
        out = dict(self.stats)
        out["server.batch_queue_depth"] = len(self._pending)
        return out
