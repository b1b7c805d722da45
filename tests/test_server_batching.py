"""Batched execution is byte-identical to per-request execution.

The server's batching layer rests on one identity: merging every
request's z-element intervals, scanning the union once, and slicing
each request's elements back out equals running ``range_query`` per
request.  This suite differential-tests that identity over live trees,
sharded stores, snapshot views and the semantic cache, plus the
interval-merge algebra and the :class:`QueryBatcher` coalescing
machinery (grouping by (index, epoch) key, serial degeneration,
exception propagation).
"""

from __future__ import annotations

import asyncio
import random
import time

import pytest

from repro.cache import QueryResultCache
from repro.core.geometry import Box, Grid
from repro.core.rangesearch import brute_force_search
from repro.db.database import SpatialDatabase
from repro.db.schema import Schema
from repro.db.types import INTEGER, OID
from repro.server import (
    QueryBatcher,
    batched_range_matches,
    merge_intervals,
)
from repro.shard import ShardedSpatialStore
from repro.storage.prefix_btree import ZkdTree
from repro.workloads.datasets import make_dataset


# ----------------------------------------------------------------------
# merge_intervals algebra
# ----------------------------------------------------------------------


def test_merge_intervals_empty():
    assert merge_intervals([]) == []


def test_merge_intervals_overlap_and_adjacency():
    # Overlap merges; adjacency merges ([a,b] + [b+1,c] == [a,c]);
    # a real gap stays split.
    assert merge_intervals([(0, 4), (2, 6)]) == [(0, 6)]
    assert merge_intervals([(0, 4), (5, 9)]) == [(0, 9)]
    assert merge_intervals([(0, 4), (6, 9)]) == [(0, 4), (6, 9)]


def test_merge_intervals_unsorted_and_contained():
    got = merge_intervals([(10, 12), (0, 20), (3, 5), (30, 30)])
    assert got == [(0, 20), (30, 30)]


def test_merge_intervals_is_disjoint_ascending():
    rng = random.Random(7)
    intervals = [
        tuple(sorted((rng.randrange(1000), rng.randrange(1000))))
        for _ in range(200)
    ]
    merged = merge_intervals(intervals)
    for (alo, ahi), (blo, bhi) in zip(merged, merged[1:]):
        assert ahi + 1 < blo  # disjoint with a true gap between
    covered = set()
    for lo, hi in merged:
        covered.update(range(lo, hi + 1))
    wanted = set()
    for lo, hi in intervals:
        wanted.update(range(lo, hi + 1))
    assert covered == wanted


# ----------------------------------------------------------------------
# batched_range_matches differential suite
# ----------------------------------------------------------------------

GRID = Grid(ndims=2, depth=7)


def _tree(npoints=2500, seed=0, grid=GRID):
    tree = ZkdTree(grid, page_capacity=16)
    tree.insert_many(make_dataset("C", grid, npoints, seed=seed).points)
    return tree


def _box_mix(grid, seed, count=12):
    """Fat, thin, degenerate, overlapping and out-of-bounds boxes."""
    rng = random.Random(seed)
    side = grid.side
    boxes = []
    for _ in range(count):
        x0, x1 = sorted(rng.randrange(side) for _ in range(2))
        y0, y1 = sorted(rng.randrange(side) for _ in range(2))
        boxes.append(Box(((x0, x1), (y0, y1))))
    p = rng.randrange(side)
    boxes.append(Box(((p, p), (p, p))))  # degenerate point box
    boxes.append(Box(((0, side - 1), (0, side - 1))))  # whole space
    boxes.append(Box(((0, side - 1), (side // 3, side // 3))))  # stripe
    boxes.append(Box(((side // 2, side * 2), (0, side // 2))))  # clipped
    # Heavy overlap: the shared-scan path must still answer each
    # request with exactly its own matches.
    base = boxes[0]
    boxes.append(base)
    boxes.append(
        Box(tuple((lo, min(hi + 3, side - 1)) for lo, hi in base.ranges))
    )
    return boxes


def _assert_identity(target, grid, boxes, **kwargs):
    got = batched_range_matches(target, grid, boxes, **kwargs)
    want = [
        target.range_query(box).matches for box in boxes
    ]
    assert got == want


def test_batched_matches_live_tree():
    tree = _tree()
    for seed in range(3):
        _assert_identity(tree, GRID, _box_mix(GRID, seed))


def test_batched_matches_sharded_store():
    points = make_dataset("C", GRID, 3000, seed=1).points
    store = ShardedSpatialStore.build(GRID, points, nshards=4)
    try:
        for seed in range(3):
            _assert_identity(store, GRID, _box_mix(GRID, seed + 10))
    finally:
        store.close()


def test_batched_matches_snapshot_views_per_epoch():
    db = SpatialDatabase(GRID, page_capacity=16)
    db.create_table(
        "points", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    points = make_dataset("C", GRID, 1200, seed=2).points
    db.insert_many(
        "points", [(f"p{i}", x, y) for i, (x, y) in enumerate(points)]
    )
    db.create_index("points_xy", "points", ("x", "y"))
    entry = db.catalog.index("points_xy")
    boxes = _box_mix(GRID, 42)
    whole = Box(((0, GRID.side - 1), (0, GRID.side - 1)))
    with db.session() as pinned:
        old_epoch = pinned.epoch
        old_view = entry.tree.snapshot_view(old_epoch)
        before = batched_range_matches(old_view, GRID, boxes)
        old_total = len(batched_range_matches(old_view, GRID, [whole])[0])
        with db.session() as writer:
            writer.insert("points", ("new", 3, 3))
            writer.commit()
        with db.session() as fresh:
            new_view = entry.tree.snapshot_view(fresh.epoch)
            _assert_identity(new_view, GRID, boxes)
            new_total = len(
                batched_range_matches(new_view, GRID, [whole])[0]
            )
            # The new epoch sees exactly one more point ...
            assert new_total == old_total + 1
        # ... while the pinned epoch answers exactly as before.
        _assert_identity(old_view, GRID, boxes)
        assert batched_range_matches(old_view, GRID, boxes) == before


def test_batched_with_cache_second_pass_hits_and_agrees():
    tree = _tree(npoints=1500, seed=3)
    cache = QueryResultCache(GRID)
    boxes = _box_mix(GRID, 5)
    expected = [
        tree.range_query(box).matches for box in boxes
    ]
    first = batched_range_matches(tree, GRID, boxes, cache=cache)
    assert first == expected
    hits_before = cache.stats.get("cache.hit", 0)
    second = batched_range_matches(tree, GRID, boxes, cache=cache)
    assert second == expected
    assert cache.stats.get("cache.hit", 0) > hits_before


def test_batched_agrees_with_brute_force():
    points = make_dataset("C", GRID, 800, seed=4).points
    tree = _tree(npoints=800, seed=4)
    boxes = _box_mix(GRID, 6, count=6)
    assert batched_range_matches(tree, GRID, boxes) == [
        tuple(brute_force_search(GRID, points, box))
        for box in boxes
    ]


# ----------------------------------------------------------------------
# QueryBatcher coalescing
# ----------------------------------------------------------------------


def test_batcher_groups_by_key_while_worker_busy():
    async def run():
        calls = []

        def execute(key, payloads):
            calls.append((key, list(payloads)))
            time.sleep(0.05)  # hold the worker so later submits coalesce
            return [f"{key}:{p}" for p in payloads]

        batcher = QueryBatcher(execute, max_batch=16)
        try:
            first = asyncio.ensure_future(batcher.submit("a", 0))
            await asyncio.sleep(0.02)  # first batch (size 1) dispatched
            rest = [
                asyncio.ensure_future(batcher.submit(key, i))
                for i, key in enumerate(("a", "b", "a", "b"), start=1)
            ]
            results = await asyncio.gather(first, *rest)
            assert results == ["a:0", "a:1", "b:2", "a:3", "b:4"]
            # One call for the lone first request, then one per key for
            # the coalesced burst: same-key requests shared a pass.
            assert calls[0] == ("a", [0])
            assert dict(calls[1:]) == {"a": [1, 3], "b": [2, 4]}
            assert batcher.stats["server.batches"] == 3
            assert batcher.stats["server.batched_requests"] == 5
            assert batcher.stats["server.batch_size_peak"] == 2
        finally:
            batcher.close()

    asyncio.run(run())


def test_batcher_max_batch_one_is_serial():
    async def run():
        sizes = []

        def execute(key, payloads):
            sizes.append(len(payloads))
            return list(payloads)

        batcher = QueryBatcher(execute, max_batch=1)
        try:
            results = await asyncio.gather(
                *[batcher.submit("k", i) for i in range(5)]
            )
            assert results == [0, 1, 2, 3, 4]
            assert sizes == [1, 1, 1, 1, 1]
            assert batcher.stats["server.batch_size_peak"] == 1
        finally:
            batcher.close()

    asyncio.run(run())


def test_batcher_propagates_executor_errors():
    async def run():
        def execute(key, payloads):
            raise ValueError("store exploded")

        batcher = QueryBatcher(execute, max_batch=8)
        try:
            with pytest.raises(ValueError, match="store exploded"):
                await batcher.submit("k", 1)
        finally:
            batcher.close()

    asyncio.run(run())
