"""Semantic result cache: hit rate and speedup on repeated workloads.

The cache's thesis is that real query streams revisit regions —
repeated dashboards, drill-downs into a previously fetched area — and
that in z space those revisits are prefix lookups over already
materialized runs.  This bench drives two seeded workloads against one
zkd index and measures the cache front-end
(:func:`repro.cache.cached_range_matches`) against plain
``tree.range_query`` on identical boxes:

* **repeat** — a pool of boxes queried round-robin many times: after
  the cold pass every lookup is a full hit;
* **drilldown** — each pool box followed by nested sub-boxes: the
  children never ran before, yet their decomposition elements extend
  the parent's z prefixes, so they are hits too (the cache's semantic,
  not syntactic, matching).

CI gates two floors (the pytest entry points below): **hit rate >= 80%**
and **speedup >= 2x** on the repeat workload.  Both are measured at the
index/matches level, where the cache acts — row materialization above
it costs the same on either path.

Runs as a pytest bench (the gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_prefix_cache.py -q

or standalone, printing the table and writing a results artifact::

    PYTHONPATH=src python benchmarks/bench_prefix_cache.py [--smoke]
"""

import argparse
import pathlib
import random
import sys
import time

from repro.cache import QueryResultCache, cached_range_matches
from repro.core.geometry import Box, Grid
from repro.storage.prefix_btree import ZkdTree
from repro.workloads.datasets import make_dataset

DEPTH = 8
NPOINTS = 20_000
POOL = 12
REPEATS = 16
DRILLDOWNS = 4
SEED = 0


def _build_tree(depth, npoints, seed):
    grid = Grid(ndims=2, depth=depth)
    tree = ZkdTree(grid, page_capacity=32)
    tree.insert_many(make_dataset("C", grid, npoints, seed=seed).points)
    return grid, tree


def _box_pool(grid, rng, count, frac=0.05):
    """Query boxes of ~``frac`` of each axis, scattered over the space."""
    extent = max(2, int(grid.side * frac))
    pool = []
    for _ in range(count):
        x = rng.randrange(grid.side - extent)
        y = rng.randrange(grid.side - extent)
        pool.append(Box(((x, x + extent), (y, y + extent))))
    return pool


def _sub_box(rng, box):
    ranges = []
    for lo, hi in box.ranges:
        mid = (lo + hi) // 2
        if rng.random() < 0.5:
            ranges.append((lo, mid))
        else:
            ranges.append((mid, hi))
    return Box(tuple(ranges))


def _workload(kind, grid, rng, pool):
    """The box sequence for one workload kind."""
    if kind == "repeat":
        return [box for _ in range(REPEATS) for box in pool]
    assert kind == "drilldown"
    seq = []
    for box in pool:
        seq.append(box)
        child = box
        for _ in range(DRILLDOWNS):
            child = _sub_box(rng, child)
            seq.append(child)
    return seq


def run_workload(kind, depth=DEPTH, npoints=NPOINTS, pool_size=POOL,
                 seed=SEED):
    """Measure one workload cached vs uncached; returns a stats dict.

    Timings use the best of three passes over the same sequence (the
    cache is rebuilt cold for each timed pass, so pass one's misses are
    in every measurement and the floors are honest about cold starts).
    """
    grid, tree = _build_tree(depth, npoints, seed)
    rng = random.Random(seed + 1)
    pool = _box_pool(grid, rng, pool_size)
    boxes = _workload(kind, grid, rng, pool)

    # Correctness on the side: identical matches box-by-box.
    check_cache = QueryResultCache(grid)
    for box in boxes:
        got = cached_range_matches(check_cache, tree, grid, box)
        want = tree.range_query(box).matches
        assert got == want, f"cache diverged on {box}"

    def timed(fn, repeats=3):
        return min(fn() for _ in range(repeats))

    def uncached_pass():
        t0 = time.perf_counter()
        for box in boxes:
            tree.range_query(box)
        return time.perf_counter() - t0

    stats_holder = {}

    def cached_pass():
        cache = QueryResultCache(grid)
        t0 = time.perf_counter()
        for box in boxes:
            cached_range_matches(cache, tree, grid, box)
        elapsed = time.perf_counter() - t0
        stats_holder.update(cache.stats)
        return elapsed

    uncached_s = timed(uncached_pass)
    cached_s = timed(cached_pass)
    lookups = len(boxes)
    hits = stats_holder.get("cache.hit", 0)
    return {
        "kind": kind,
        "queries": lookups,
        "hits": hits,
        "misses": stats_holder.get("cache.miss", 0),
        "partials": stats_holder.get("cache.partial", 0),
        "hit_rate": hits / lookups,
        "uncached_s": uncached_s,
        "cached_s": cached_s,
        "speedup": uncached_s / cached_s if cached_s else float("inf"),
    }


def _format(rows):
    header = (
        f"{'workload':<10} {'queries':>7} {'hits':>5} {'miss':>5} "
        f"{'partial':>7} {'hit rate':>8} {'uncached':>9} {'cached':>8} "
        f"{'speedup':>7}"
    )
    lines = [header, "-" * len(header)]
    for s in rows:
        lines.append(
            f"{s['kind']:<10} {s['queries']:>7} {s['hits']:>5} "
            f"{s['misses']:>5} {s['partials']:>7} {s['hit_rate']:>8.1%} "
            f"{s['uncached_s'] * 1e3:>7.1f}ms {s['cached_s'] * 1e3:>6.1f}ms "
            f"{s['speedup']:>6.1f}x"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest entry points (the CI floors)
# ----------------------------------------------------------------------


def test_repeat_workload_floors(results_dir):
    """The CI gate: >= 80% hits and >= 2x speedup on repeats."""
    stats = run_workload("repeat")
    drill = run_workload("drilldown")
    (results_dir / "prefix_cache.txt").write_text(
        _format([stats, drill]) + "\n"
    )
    assert stats["hit_rate"] >= 0.80, stats
    assert stats["speedup"] >= 2.0, stats


def test_drilldown_children_are_hits():
    """Nested sub-queries never ran before, yet they hit: matching is
    semantic (z-prefix containment), not query-text equality."""
    stats = run_workload("drilldown")
    # One miss per pool parent; every drill-down child is covered.
    assert stats["misses"] == POOL, stats
    assert stats["hits"] == POOL * DRILLDOWNS, stats


def test_smoke_scales_down():
    """The --smoke configuration stays correct (used by quick CI runs)."""
    stats = run_workload("repeat", depth=6, npoints=1500, pool_size=4)
    assert stats["hit_rate"] >= 0.80, stats


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small tree / short workload for quick checks",
    )
    parser.add_argument(
        "--out", metavar="PATH", help="also write the table to PATH"
    )
    args = parser.parse_args(argv)

    kwargs = (
        {"depth": 6, "npoints": 1500, "pool_size": 4} if args.smoke else {}
    )
    rows = [run_workload(k, **kwargs) for k in ("repeat", "drilldown")]
    table = _format(rows)
    print(table)
    if args.out:
        pathlib.Path(args.out).write_text(table + "\n")
        print(f"wrote {args.out}")
    from gates import gate

    repeat = rows[0]
    return gate(
        "prefix-cache",
        [
            (
                repeat["hit_rate"] >= 0.80,
                f"repeat hit rate {repeat['hit_rate']:.0%} (floor 80%)",
            ),
            (
                repeat["speedup"] >= 2.0,
                f"repeat speedup {repeat['speedup']:.2f}x (floor 2x)",
            ),
        ],
    )


if __name__ == "__main__":
    sys.exit(main())
