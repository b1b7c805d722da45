"""Differential property suite: sharded engine vs single store.

The sharded engine's contract is *byte-identity*: for any workload,
``ShardedSpatialStore.range_query`` returns exactly the tuple the
single :class:`~repro.storage.prefix_btree.ZkdTree` returns, and
:func:`~repro.shard.join.sharded_spatial_join` returns exactly the rows
of the single-sweep kernel, in the same order — for every shard count,
partition policy, and executor.  These tests enforce it with the seeded
U/C/D workloads.

The quick sweep runs in tier-1; the heavy sweep (more shard counts ×
datasets × boxes, all executors, a 3-d grid) is marked ``slow`` for
nightly runs: ``PYTHONPATH=src python -m pytest -q -m slow``.
"""

import random

import pytest

from repro.core.decompose import Element, decompose
from repro.core.geometry import Box, Grid
from repro.core.rangesearch import range_search_bigmin
from repro.core.spatialjoin import spatial_join
from repro.db.types import SpatialObject
from repro.shard import (
    ShardedSpatialStore,
    ZRangePartitioner,
    sharded_spatial_join,
)
from repro.storage.btree import BTreeCursor
from repro.storage.prefix_btree import ZkdTree
from repro.workloads.datasets import make_dataset

from conftest import random_box


def _tagged_objects(grid, prefix, nobjects, seed, max_extent=6, depth=4):
    """Random boxes decomposed into tagged elements (the join's input)."""
    rng = random.Random(seed)
    out = []
    for i in range(nobjects):
        x = rng.randrange(grid.side - max_extent)
        y = rng.randrange(grid.side - max_extent)
        box = Box(
            (
                (x, x + rng.randrange(1, max_extent)),
                (y, y + rng.randrange(1, max_extent)),
            )
        )
        obj = SpatialObject.from_box(f"{prefix}{i}", box)
        for zvalue in decompose(grid, obj.classify, max_depth=depth):
            out.append((Element.of(zvalue, grid), f"{prefix}{i}"))
    return out


# ----------------------------------------------------------------------
# Tier-1 quick sweep
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dataset", ["U", "C", "D"])
@pytest.mark.parametrize("nshards", [2, 4])
def test_range_search_identity_quick(dataset, nshards):
    grid = Grid(ndims=2, depth=6)
    pts = make_dataset(dataset, grid, 800, seed=3).points
    single = ZkdTree(grid)
    single.bulk_load(pts)
    store = ShardedSpatialStore.build(grid, pts, nshards=nshards)
    rng = random.Random(100 + nshards)
    for _ in range(12):
        box = random_box(rng, grid)
        expected = single.range_query(box).matches
        assert store.range_query(box).matches == expected
        # Per-shard BIGMIN reference, concatenated in shard order.
        assert expected == tuple(
            point
            for shard in store.shards
            for point in range_search_bigmin(
                BTreeCursor(shard.tree), grid, box
            )
        )


@pytest.mark.parametrize("nshards", [1, 2, 3, 4])
def test_spatial_join_identity_quick(nshards):
    grid = Grid(ndims=2, depth=6)
    r = _tagged_objects(grid, "p", 20, seed=21)
    s = _tagged_objects(grid, "q", 20, seed=22)
    reference = list(spatial_join(list(r), list(s)))
    partitioner = ZRangePartitioner.equi_width(grid.total_bits, nshards)
    assert (
        sharded_spatial_join(list(r), list(s), partitioner) == reference
    )


def test_range_search_identity_balanced_partition():
    grid = Grid(ndims=2, depth=6)
    pts = make_dataset("C", grid, 700, seed=5).points
    single = ZkdTree(grid)
    single.bulk_load(pts)
    store = ShardedSpatialStore.build(
        grid, pts, nshards=4, partition="balanced"
    )
    rng = random.Random(55)
    for _ in range(10):
        box = random_box(rng, grid)
        assert (
            store.range_query(box).matches
            == single.range_query(box).matches
        )


def test_join_identity_thread_executor():
    grid = Grid(ndims=2, depth=6)
    r = _tagged_objects(grid, "p", 15, seed=31)
    s = _tagged_objects(grid, "q", 15, seed=32)
    reference = list(spatial_join(list(r), list(s)))
    partitioner = ZRangePartitioner.equi_width(grid.total_bits, 4)
    assert (
        sharded_spatial_join(
            list(r), list(s), partitioner, executor="thread"
        )
        == reference
    )


# ----------------------------------------------------------------------
# Nightly slow sweep
# ----------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("dataset", ["U", "C", "D"])
@pytest.mark.parametrize("nshards", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("partition", ["equi", "balanced"])
def test_range_search_identity_sweep(dataset, nshards, partition):
    grid = Grid(ndims=2, depth=8)
    pts = make_dataset(dataset, grid, 3000, seed=7).points
    single = ZkdTree(grid)
    single.bulk_load(pts)
    store = ShardedSpatialStore.build(
        grid, pts, nshards=nshards, partition=partition
    )
    rng = random.Random(1000 + 10 * nshards)
    for _ in range(40):
        box = random_box(rng, grid)
        expected = single.range_query(box).matches
        result = store.range_query(box)
        assert result.matches == expected
        assert (
            len(result.shards_hit) + result.shards_pruned
            == store.nshards
        )


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["serial", "thread", "process"])
def test_range_search_identity_executors_sweep(kind):
    grid = Grid(ndims=2, depth=8)
    pts = make_dataset("C", grid, 4000, seed=9).points
    single = ZkdTree(grid)
    single.bulk_load(pts)
    store = ShardedSpatialStore.build(
        grid, pts, nshards=4, executor=kind
    )
    try:
        rng = random.Random(77)
        for _ in range(25):
            box = random_box(rng, grid)
            assert (
                store.range_query(box).matches
                == single.range_query(box).matches
            )
    finally:
        store.close()


@pytest.mark.slow
@pytest.mark.parametrize("nshards", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("kind", ["serial", "thread", "process"])
def test_spatial_join_identity_sweep(nshards, kind):
    grid = Grid(ndims=2, depth=7)
    r = _tagged_objects(grid, "p", 60, seed=41, max_extent=10, depth=5)
    s = _tagged_objects(grid, "q", 60, seed=42, max_extent=10, depth=5)
    reference = list(spatial_join(list(r), list(s)))
    partitioner = ZRangePartitioner.equi_width(grid.total_bits, nshards)
    assert (
        sharded_spatial_join(
            list(r), list(s), partitioner, executor=kind
        )
        == reference
    )


@pytest.mark.slow
def test_range_search_identity_3d_sweep():
    grid = Grid(ndims=3, depth=5)
    rng = random.Random(13)
    pts = [
        tuple(rng.randrange(grid.side) for _ in range(3))
        for _ in range(2500)
    ]
    single = ZkdTree(grid)
    single.bulk_load(pts)
    for nshards in (2, 4, 7):
        store = ShardedSpatialStore.build(grid, pts, nshards=nshards)
        for _ in range(20):
            box = random_box(rng, grid)
            assert (
                store.range_query(box).matches
                == single.range_query(box).matches
            )
