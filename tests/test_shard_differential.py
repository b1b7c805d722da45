"""Differential property suite: sharded engine vs single store.

The sharded engine's contract is *byte-identity*: for any workload,
``ShardedSpatialStore.range_query`` returns exactly the tuple the
single :class:`~repro.storage.prefix_btree.ZkdTree` returns — for every
shard count and partition policy.  These tests enforce it with the
seeded U/C/D workloads.

The quick sweep runs in tier-1; the heavy sweep (more shard counts ×
datasets × boxes, a 3-d grid) is marked ``slow`` for nightly runs:
``PYTHONPATH=src python -m pytest -q -m slow``.
"""

import random

import pytest

from repro.core.geometry import Grid
from repro.core.rangesearch import range_search_bigmin
from repro.shard import ShardedSpatialStore
from repro.storage.btree import BTreeCursor
from repro.storage.prefix_btree import ZkdTree
from repro.workloads.datasets import make_dataset

from conftest import random_box


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
