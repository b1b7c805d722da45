"""Shard-count scaling: sharded range search vs the single tree.

Times the fixed-seed 100k-point range workload against a plain
:class:`~repro.storage.prefix_btree.ZkdTree` (the baseline) and
:class:`~repro.shard.store.ShardedSpatialStore` at 1/2/4 shards, and
reports the mean number of shards a query is dispatched to — what a
sharded index buys is z-range *pruning*, so the columns to read are
``x single`` and ``hit/query``.  Every configuration must return the
same matches (byte-identity is the differential suite's job; here we
cross-check match counts as a cheap tripwire), and a selective corner
box must show shard pruning (``shards_pruned >= 1``).

Runs two ways:

* as a pytest bench, writing ``benchmarks/results/sharding_scaling.txt``::

      PYTHONPATH=src python -m pytest benchmarks/bench_sharding.py -q

* as a standalone script for CI smoke runs::

      PYTHONPATH=src python benchmarks/bench_sharding.py --smoke
"""

import argparse
import os
import sys
import time

from repro.core.geometry import Box, Grid
from repro.shard import ShardedSpatialStore
from repro.storage.prefix_btree import ZkdTree
from repro.workloads.datasets import make_dataset
from repro.workloads.queries import query_workload

DEPTH = 10
NPOINTS = 100_000
SEED = 0
SHARD_COUNTS = (1, 2, 4)


def _build_workload(depth=DEPTH, npoints=NPOINTS, seed=SEED):
    grid = Grid(ndims=2, depth=depth)
    points = make_dataset("C", grid, npoints, seed=seed).points
    specs = query_workload(
        grid, volumes=(0.01, 0.03), aspects=(1.0, 2.0), locations=5,
        seed=seed + 1,
    )
    return grid, points, [spec.box for spec in specs]


def _time_queries(store, boxes, repeats=3):
    """Min-of-repeats wall time for the box sweep, buffers pre-warmed."""
    for box in boxes[:2]:
        store.range_query(box)
    best = float("inf")
    total = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = sum(store.range_query(box).nmatches for box in boxes)
        best = min(best, time.perf_counter() - t0)
    return best, total


def bench_pruning(store):
    """A selective corner box must skip shards before dispatch."""
    side = store.grid.side
    box = Box(((0, max(1, side // 8)), (0, max(1, side // 8))))
    result = store.range_query(box)
    return {
        "shards_hit": len(result.shards_hit),
        "shards_pruned": result.shards_pruned,
    }


def run(depth=DEPTH, npoints=NPOINTS, shard_counts=SHARD_COUNTS,
        seed=SEED, verbose=True):
    grid, points, boxes = _build_workload(depth, npoints, seed)
    single = ZkdTree(grid)
    single.bulk_load(points)
    single_s, single_matches = _time_queries(single, boxes)
    rows = []
    pruning = None
    for nshards in shard_counts:
        store = ShardedSpatialStore.build(grid, points, nshards=nshards)
        if nshards == max(shard_counts):
            pruning = bench_pruning(store)
        elapsed, matches = _time_queries(store, boxes)
        assert matches == single_matches, (
            f"shards={nshards}: {matches} matches, "
            f"single tree {single_matches}"
        )
        rows.append(
            {
                "nshards": nshards,
                "elapsed_s": elapsed,
                "over_single": elapsed / single_s if single_s else 0.0,
                "hit_per_query": sum(
                    len(store.range_query(box).shards_hit) for box in boxes
                ) / len(boxes),
            }
        )
    report = format_report(npoints, depth, boxes, single_s, rows, pruning)
    if verbose:
        print(report)
    return rows, pruning, report


def format_report(npoints, depth, boxes, single_s, rows, pruning):
    lines = [
        "# Sharded scatter–gather: range-search wall time by shard count",
        f"  {npoints:,} pts, depth {depth}, {len(boxes)} boxes, "
        f"{os.cpu_count() or 1} cpu(s)",
        "",
        f"  single tree  {single_s * 1e3:>8.1f} ms   1.00x single",
    ]
    for r in rows:
        lines.append(
            f"  shards={r['nshards']}     {r['elapsed_s'] * 1e3:>8.1f} ms   "
            f"{r['over_single']:.2f}x single   "
            f"{r['hit_per_query']:.2f} hit/query"
        )
    if pruning is not None:
        lines.append(
            f"  selective corner box: shards_hit={pruning['shards_hit']} "
            f"shards_pruned={pruning['shards_pruned']}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest entry point (writes the result artifact)
# ----------------------------------------------------------------------


def test_sharding_scaling(results_dir):
    from conftest import save_result

    rows, pruning, report = run(verbose=False)
    save_result(results_dir, "sharding_scaling.txt", report)
    assert pruning is not None and pruning["shards_pruned"] >= 1, report


# ----------------------------------------------------------------------
# CLI entry point (CI smoke)
# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload (identity + pruning checks either way)",
    )
    parser.add_argument("--points", type=int, default=NPOINTS)
    parser.add_argument("--depth", type=int, default=DEPTH)
    args = parser.parse_args(argv)
    npoints = 12_000 if args.smoke else args.points
    depth = 8 if args.smoke else args.depth
    from gates import gate

    _, pruning, _ = run(depth=depth, npoints=npoints)
    return gate(
        "sharding",
        [
            (
                pruning is not None and pruning["shards_pruned"] >= 1,
                "selective box pruned at least one shard",
            ),
            (True, "identity held across shard counts"),
        ],
    )


if __name__ == "__main__":
    sys.exit(main())
