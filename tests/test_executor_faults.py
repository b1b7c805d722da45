"""Fault-tolerant scatter–gather: retries, deadlines, and the typed
partial-result failure.

The contract under test: a query that hits a failing shard must either
return results byte-identical to the fault-free run (after retries) or
raise :class:`PartialResultError` / :class:`DeadlineExceeded` — never
hang, never return a silently short answer.
"""

import time

import pytest

from repro.concurrency import SnapshotManager
from repro.core.deadline import Deadline, DeadlineExceeded, deadline_scope
from repro.core.geometry import Box, Grid, box_classifier
from repro.faults import FaultInjector
from repro.obs.trace import trace
from repro.shard import (
    PartialResultError,
    ResiliencePolicy,
    ScatterStats,
    ShardedSpatialStore,
    run_shard_calls,
)
from repro.storage.diskstore import FilePageStore

GRID = Grid(ndims=2, depth=5)
BOX = Box(((2, 29), (3, 27)))
POINTS = [((5 * i) % 32, (7 * i + 2) % 32) for i in range(60)]

FAST = ResiliencePolicy(max_retries=2, backoff_base=0.001)


@pytest.fixture
def clean_matches():
    return ShardedSpatialStore.build(
        GRID, POINTS, nshards=4
    ).range_query(BOX).matches


def _build(resilience=FAST):
    return ShardedSpatialStore.build(
        GRID, POINTS, nshards=4, resilience=resilience
    )


def _flaky(method, failures):
    """``method`` failing its first ``failures`` calls with IOError."""
    state = {"n": 0}

    def call(*args, **kwargs):
        if state["n"] < failures:
            state["n"] += 1
            raise IOError("transient")
        return method(*args, **kwargs)

    return call


def _broken(*args, **kwargs):
    raise IOError("dead shard")


class TestSerialRetries:
    def test_transient_error_is_retried(self, clean_matches):
        store = _build()
        store.shards[1].range_query = _flaky(store.shards[1].range_query, 2)
        assert store.range_query(BOX).matches == clean_matches

    def test_persistent_error_raises_partial_result(self):
        store = _build()
        store.shards[1].range_query = _broken
        with pytest.raises(PartialResultError) as exc_info:
            store.range_query(BOX)
        assert set(exc_info.value.failures) == {1}
        assert exc_info.value.results  # other shards answered
        assert exc_info.value.stats.retries == FAST.max_retries

    def test_clean_run_has_clean_stats(self):
        store = _build()
        results, stats = run_shard_calls(
            [
                (i, lambda shard=shard: shard.range_query(BOX))
                for i, shard in enumerate(store.shards)
            ],
            FAST,
        )
        assert stats == ScatterStats()
        assert len(results) == 4

    def test_object_query_retries_transient_error(self):
        store = _build()
        classify = box_classifier(BOX)
        expected = store.object_query(classify).matches
        store.shards[2].object_query = _flaky(
            store.shards[2].object_query, 1
        )
        assert store.object_query(classify).matches == expected

    def test_object_query_honours_expired_deadline(self):
        store = _build()
        with deadline_scope(Deadline(0.0)):
            with pytest.raises(DeadlineExceeded) as exc_info:
                store.object_query(box_classifier(BOX))
        assert exc_info.value.site == "shard.scatter"


class TestDeadline:
    def test_backoff_never_sleeps_past_the_deadline(self):
        # A second of backoff against 30 ms of budget: the retry must
        # surface the deadline at the budget, not a backoff later.
        store = _build(ResiliencePolicy(max_retries=2, backoff_base=1.0))
        store.shards[1].range_query = _broken
        started = time.monotonic()
        with deadline_scope(Deadline(0.03)):
            with pytest.raises(DeadlineExceeded):
                store.range_query(BOX)
        assert time.monotonic() - started < 0.3


class TestFailpoint:
    def test_page_read_error_retried_byte_identical(self, tmp_path):
        # A real I/O fault, not a monkeypatch: shard 1's file store
        # fails one page read; the scatter retries that shard and the
        # gathered rows are byte-identical to the fault-free run.
        inj = FaultInjector(seed=1)
        points = [((5 * i) % 32, (7 * i + 2) % 32) for i in range(400)]

        def factory(i):
            return FilePageStore(
                str(tmp_path / f"shard{i}.zkd"),
                page_capacity=4,
                faults=inj if i == 1 else None,
            )

        with ShardedSpatialStore.build(
            GRID,
            points,
            nshards=4,
            page_capacity=4,
            buffer_frames=1,
            store_factory=factory,
            resilience=FAST,
        ) as store:
            clean = store.range_query(BOX).matches
            inj.rule("diskstore.page_read", "error")
            with trace("q") as t:
                result = store.range_query(BOX)
        assert [e.site for e in inj.fired] == ["diskstore.page_read"]
        assert result.matches == clean
        assert t.find("shard.scatter_gather").counters["shard.retries"] == 1

    def test_pinned_read_retries_like_the_live_read(self, tmp_path):
        # The same fault under a pinned snapshot: the view is the
        # store's own reads over per-shard views, so it retries too.
        inj = FaultInjector(seed=1)
        points = [((5 * i) % 32, (7 * i + 2) % 32) for i in range(400)]
        snapshots = SnapshotManager()

        def factory(i):
            return FilePageStore(
                str(tmp_path / f"shard{i}.zkd"),
                page_capacity=4,
                faults=inj if i == 1 else None,
            )

        with ShardedSpatialStore.build(
            GRID,
            points,
            nshards=4,
            page_capacity=4,
            buffer_frames=1,
            store_factory=factory,
            resilience=FAST,
        ) as store:
            store.attach_snapshots(snapshots)
            epoch = snapshots.pin()
            try:
                live = store.range_query(BOX)
                inj.rule("diskstore.page_read", "error")
                with trace("q") as t:
                    pinned = store.snapshot_view(epoch).range_query(BOX)
            finally:
                snapshots.unpin(epoch)
        assert [e.site for e in inj.fired] == ["diskstore.page_read"]
        assert pinned.matches == live.matches
        assert pinned.shards_hit == live.shards_hit
        assert t.find("shard.scatter_gather").counters["shard.retries"] == 1


class TestTraceCounters:
    def test_retry_counter_surfaces_in_trace(self, clean_matches):
        store = _build()
        store.shards[1].range_query = _flaky(store.shards[1].range_query, 1)
        with trace("q") as t:
            result = store.range_query(BOX)
        assert result.matches == clean_matches
        span = t.find("shard.scatter_gather")
        assert span is not None
        assert span.counters.get("shard.retries") == 1

    def test_clean_query_publishes_no_resilience_counters(self):
        # The committed trace-counter baseline must not change: the
        # counter exists only when a fault actually fired.
        store = _build()
        with trace("q") as t:
            store.range_query(BOX)
        assert "shard.retries" not in t.total_counters()


class TestPartialResultShape:
    def test_carries_failures_results_and_stats(self):
        stats = ScatterStats(retries=3)
        stats.failures[2] = IOError("boom")
        err = PartialResultError(
            dict(stats.failures), {0: "a", 1: "b"}, stats
        )
        assert "shard 2" in str(err)
        assert err.results == {0: "a", 1: "b"}
        assert err.stats.retries == 3
