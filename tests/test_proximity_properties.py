"""Property tests for the proximity operators.

Hypothesis-driven invariants over random catalogs:

* **zone invariant** — any pair within ``eps`` differs by at most one
  zone id for every legal zone height ``h >= eps``;
* **k-NN monotonicity** — the result for ``k`` is a byte-identical
  prefix of the result for ``k + 1`` (the tie-break makes the ranking
  a total order, so growing ``k`` only appends);
* **exactness under mutation** — the k-NN equals the oracle on a
  store grown incrementally, not just bulk-loaded.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.geometry import Grid
from repro.proximity import (
    ZonesIndex,
    nested_epsilon_join,
    zone_height_for,
    zones_epsilon_join,
)
from repro.storage.prefix_btree import ZkdTree

seeds = st.integers(0, 10**6)

GRID = Grid(ndims=2, depth=6)


def _scene(seed, n=80):
    rng = random.Random(seed)
    side = GRID.side
    points = set()
    while len(points) < n:
        points.add(tuple(rng.randrange(side) for _ in range(GRID.ndims)))
    center = tuple(rng.randrange(side) for _ in range(GRID.ndims))
    return sorted(points), center, rng


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_exact_mode_is_exact(seed):
    """The k-NN returns the true k nearest however loose the first
    probe box was."""
    points, center, rng = _scene(seed)
    tree = ZkdTree(GRID, page_capacity=8)
    tree.bulk_load(points)
    for k in (1, 4, 9):
        got = tree.nearest_neighbours(center, k)
        want = sorted(
            (
                sum((a - b) ** 2 for a, b in zip(p, center)),
                GRID.zvalue(p).bits,
                p,
            )
            for p in points
        )[:k]
        assert got == [p for _, _, p in want]


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_knn_k_is_prefix_of_k_plus_1(seed):
    points, center, rng = _scene(seed, n=40)
    tree = ZkdTree(GRID, page_capacity=8)
    tree.bulk_load(points)
    previous = []
    for k in range(1, 12):
        current = tree.nearest_neighbours(center, k)
        assert current[: len(previous)] == previous
        assert len(current) == min(k, len(points))
        previous = current


@settings(max_examples=30, deadline=None)
@given(seeds, st.floats(0.0, 8.0))
def test_zone_invariant_and_join_exactness(seed, eps):
    """Pairs within eps sit in adjacent zones for any h >= eps, and the
    zones join equals the nested loop at every (seed, eps)."""
    rng = random.Random(seed)
    side = GRID.side
    pts_a = [
        tuple(rng.randrange(side) for _ in range(GRID.ndims))
        for _ in range(40)
    ]
    pts_b = [
        tuple(rng.randrange(side) for _ in range(GRID.ndims))
        for _ in range(40)
    ]
    for height in (zone_height_for(eps), zone_height_for(eps) + 3):
        index = ZonesIndex(pts_b, height)
        limit = eps * eps
        for a in pts_a:
            for b in pts_b:
                if sum((x - y) ** 2 for x, y in zip(a, b)) <= limit:
                    assert abs(index.zone_of(a) - index.zone_of(b)) <= 1
        assert zones_epsilon_join(
            pts_a, pts_b, eps, zone_height=height
        ) == nested_epsilon_join(pts_a, pts_b, eps)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_exactness_survives_incremental_growth(seed):
    """Insert points one batch at a time; every batch is visible to
    the next k-NN, which must stay an oracle."""
    rng = random.Random(seed)
    side = GRID.side
    tree = ZkdTree(GRID, page_capacity=8)
    live = set()
    center = tuple(rng.randrange(side) for _ in range(GRID.ndims))
    for _ in range(4):
        batch = {
            tuple(rng.randrange(side) for _ in range(GRID.ndims))
            for _ in range(15)
        }
        for p in batch - live:
            tree.insert(p)
        live |= batch
        want = sorted(
            (
                sum((a - b) ** 2 for a, b in zip(p, center)),
                GRID.zvalue(p).bits,
                p,
            )
            for p in live
        )[:5]
        assert tree.nearest_neighbours(center, 5) == [p for _, _, p in want]
