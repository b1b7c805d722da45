"""Microbenchmark: scalar reference z kernels vs the batched fast path.

Reports shuffle/unshuffle throughput (points per second), box
decomposition throughput (boxes per second: the integer box kernel vs
the generic object machinery on the same boxes) and leaf-scan throughput
(queries per second: ``ZkdTree.range_query``'s range-driven leaf scan vs
the per-record merge ``range_search(tree.cursor(), grid, box)`` on the
same tree and boxes) so the kernel speedups land in the perf trajectory.
The acceptance floors for this bench are a >= 3x batched shuffle speedup
on 100k 2-d points, a >= 3x box-kernel speedup over the generic
``decompose(grid, box_classifier(box))`` and a >= 1.5x leaf-scan speedup
over the merge — re-routing boxes through the generic machinery, or
range queries through the per-record merge, fails the gate.

Runs two ways:

* as a pytest bench (the repo's usual style), writing
  ``benchmarks/results/kernel_throughput.txt``::

      PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q

* as a standalone script for CI smoke runs::

      PYTHONPATH=src python benchmarks/bench_kernels.py --smoke
"""

import argparse
import random
import sys
import time

from repro.core import fastz
from repro.core.decompose import decompose, decompose_box
from repro.core.geometry import Box, Grid, box_classifier
from repro.core.interleave import deinterleave, interleave
from repro.core.rangesearch import MergeStats, range_search
from repro.storage.prefix_btree import ZkdTree

DEPTH = 16

#: Floor on box kernel vs generic decompose (measured 7-8x on these
#: random boxes, 11x on 100x100 ones); it holds in smoke mode too, being
#: a ratio of two loops over the same boxes.
BOX_KERNEL_FLOOR = 3.0

#: Floor on the leaf scan vs the per-record merge (measured 2.2-2.5x on
#: a 2 vcpu host: 20k points, boxes up to 300 pixels a side, ~450
#: matches each); a ratio of two loops over the same boxes, so smoke
#: mode holds it too.
LEAF_SCAN_FLOOR = 1.5


def _make_points(n, ndims, depth, seed=0xC0FFEE):
    rng = random.Random(seed)
    side = 1 << depth
    return [
        tuple(rng.randrange(side) for _ in range(ndims)) for _ in range(n)
    ]


def _make_boxes(n, grid, seed=0xB0C5):
    rng = random.Random(seed)
    boxes = []
    for _ in range(n):
        ranges = []
        for _ in range(grid.ndims):
            a = rng.randrange(grid.side)
            b = rng.randrange(grid.side)
            ranges.append((min(a, b), max(a, b)))
        boxes.append(Box(tuple(ranges)))
    return boxes


def _rate(n, seconds):
    return n / seconds if seconds > 0 else float("inf")


def bench_shuffle(npoints, ndims, depth=DEPTH):
    """Scalar reference vs batched interleave; returns a result dict."""
    points = _make_points(npoints, ndims, depth)
    t0 = time.perf_counter()
    reference = [interleave(p, depth) for p in points]
    t1 = time.perf_counter()
    fastz.interleave_many(points[:64], depth)  # warm the tables
    t2 = time.perf_counter()
    batched = fastz.interleave_many(points, depth)
    t3 = time.perf_counter()
    assert batched == reference, "fast path diverged from reference"
    scalar_s, batch_s = t1 - t0, t3 - t2
    return {
        "npoints": npoints,
        "ndims": ndims,
        "depth": depth,
        "scalar_pps": _rate(npoints, scalar_s),
        "batch_pps": _rate(npoints, batch_s),
        "speedup": scalar_s / batch_s if batch_s else float("inf"),
    }


def bench_unshuffle(npoints, ndims, depth=DEPTH):
    codes = fastz.interleave_many(_make_points(npoints, ndims, depth), depth)
    t0 = time.perf_counter()
    reference = [deinterleave(c, ndims, depth) for c in codes]
    t1 = time.perf_counter()
    fastz.deinterleave_many(codes[:64], ndims, depth)  # warm the tables
    t2 = time.perf_counter()
    batched = fastz.deinterleave_many(codes, ndims, depth)
    t3 = time.perf_counter()
    assert batched == reference, "fast path diverged from reference"
    scalar_s, batch_s = t1 - t0, t3 - t2
    return {
        "npoints": npoints,
        "ndims": ndims,
        "depth": depth,
        "scalar_pps": _rate(npoints, scalar_s),
        "batch_pps": _rate(npoints, batch_s),
        "speedup": scalar_s / batch_s if batch_s else float("inf"),
    }


def bench_box_kernel(nboxes, grid):
    """``decompose_box`` (the integer box kernel) vs the generic
    ``decompose`` over ``box_classifier`` on the same in-grid boxes."""
    boxes = _make_boxes(nboxes, grid)
    t0 = time.perf_counter()
    generic = [decompose(grid, box_classifier(box)) for box in boxes]
    t1 = time.perf_counter()
    kernel = [decompose_box(grid, box) for box in boxes]
    t2 = time.perf_counter()
    assert kernel == generic, "box kernel diverged from generic decompose"
    generic_s, kernel_s = t1 - t0, t2 - t1
    return {
        "nboxes": nboxes,
        "grid": f"{grid.ndims}d/depth{grid.depth}",
        "generic_bps": _rate(nboxes, generic_s),
        "kernel_bps": _rate(nboxes, kernel_s),
        "speedup": generic_s / kernel_s if kernel_s else float("inf"),
    }


def bench_leaf_scan(nboxes, grid, npoints=20_000, max_side=300):
    """``ZkdTree.range_query`` (the leaf scan) vs the per-record merge
    over ``tree.cursor()``, alternating box by box on one tree."""
    rng = random.Random(0x5CA7)
    tree = ZkdTree(grid, page_capacity=20, buffer_frames=1 << 14)
    tree.insert_many(_make_points(npoints, grid.ndims, grid.depth))
    boxes = []
    for _ in range(nboxes):
        ranges = []
        for _ in range(grid.ndims):
            width = rng.randrange(1, max_side + 1)
            lo = rng.randrange(grid.side - width + 1)
            ranges.append((lo, lo + width - 1))
        boxes.append(Box(tuple(ranges)))
    merge_s = scan_s = 0.0
    for box in boxes:
        t0 = time.perf_counter()
        merged = tuple(range_search(tree.cursor(), grid, box, MergeStats()))
        t1 = time.perf_counter()
        scanned = tree.range_query(box).matches
        t2 = time.perf_counter()
        assert scanned == merged, "leaf scan diverged from the merge"
        merge_s += t1 - t0
        scan_s += t2 - t1
    return {
        "nboxes": nboxes,
        "npoints": npoints,
        "merge_qps": _rate(nboxes, merge_s),
        "scan_qps": _rate(nboxes, scan_s),
        "speedup": merge_s / scan_s if scan_s else float("inf"),
    }


def format_report(shuffles, unshuffles, kernels, scans):
    lines = ["# Kernel throughput: scalar reference vs batched fast path", ""]
    lines.append("## shuffle (interleave)")
    for r in shuffles:
        lines.append(
            f"  {r['npoints']:>7} pts {r['ndims']}d depth {r['depth']}: "
            f"scalar {r['scalar_pps']:>12,.0f} pts/s   "
            f"batch {r['batch_pps']:>12,.0f} pts/s   "
            f"speedup {r['speedup']:.1f}x"
        )
    lines.append("## unshuffle (deinterleave)")
    for r in unshuffles:
        lines.append(
            f"  {r['npoints']:>7} pts {r['ndims']}d depth {r['depth']}: "
            f"scalar {r['scalar_pps']:>12,.0f} pts/s   "
            f"batch {r['batch_pps']:>12,.0f} pts/s   "
            f"speedup {r['speedup']:.1f}x"
        )
    lines.append("## decompose_box: box kernel vs generic decompose")
    for r in kernels:
        lines.append(
            f"  {r['nboxes']:>7} boxes on {r['grid']}: "
            f"generic {r['generic_bps']:>10,.0f} boxes/s   "
            f"kernel {r['kernel_bps']:>10,.0f} boxes/s   "
            f"speedup {r['speedup']:.1f}x"
        )
    lines.append("## range_query: leaf scan vs per-record merge")
    for r in scans:
        lines.append(
            f"  {r['nboxes']:>7} boxes on {r['npoints']} pts: "
            f"merge {r['merge_qps']:>10,.0f} q/s   "
            f"scan {r['scan_qps']:>10,.0f} q/s   "
            f"speedup {r['speedup']:.1f}x"
        )
    return "\n".join(lines)


def run(npoints=100_000, nboxes=150, verbose=True):
    shuffles = [
        bench_shuffle(npoints, 2),
        bench_shuffle(max(1000, npoints // 4), 3),
        bench_shuffle(max(1000, npoints // 4), 4),
    ]
    unshuffles = [bench_unshuffle(max(1000, npoints // 2), 2)]
    kernels = [bench_box_kernel(nboxes, Grid(ndims=2, depth=10))]
    scans = [bench_leaf_scan(nboxes, Grid(ndims=2, depth=10))]
    report = format_report(shuffles, unshuffles, kernels, scans)
    if verbose:
        print(report)
    return shuffles, unshuffles, kernels, scans, report


# ----------------------------------------------------------------------
# pytest entry point (writes the result artifact)
# ----------------------------------------------------------------------


def test_kernel_throughput(results_dir):
    from conftest import save_result

    shuffles, unshuffles, kernels, scans, report = run(verbose=False)
    save_result(results_dir, "kernel_throughput.txt", report)
    # The acceptance floor: batched 2-d shuffle of 100k points >= 3x.
    assert shuffles[0]["npoints"] == 100_000
    assert shuffles[0]["speedup"] >= 3.0, report
    # A box must never pay for the generic object machinery.
    assert kernels[0]["speedup"] >= BOX_KERNEL_FLOOR, report
    # Nor a range query for a record-at-a-time merge.
    assert scans[0]["speedup"] >= LEAF_SCAN_FLOOR, report


# ----------------------------------------------------------------------
# CLI entry point (CI smoke)
# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes + relaxed floor, for CI sanity checks",
    )
    parser.add_argument("--points", type=int, default=100_000)
    parser.add_argument("--boxes", type=int, default=150)
    args = parser.parse_args(argv)
    if args.smoke:
        npoints, nboxes, floor = 20_000, 40, 2.0
    else:
        npoints, nboxes, floor = args.points, args.boxes, 3.0
    from gates import gate

    shuffles, _, kernels, scans, _ = run(npoints=npoints, nboxes=nboxes)
    speedup = shuffles[0]["speedup"]
    box_speedup = kernels[0]["speedup"]
    scan_speedup = scans[0]["speedup"]
    return gate(
        "kernels",
        [
            (
                speedup >= floor,
                f"2-d batched shuffle speedup {speedup:.1f}x (floor {floor}x)",
            ),
            (
                box_speedup >= BOX_KERNEL_FLOOR,
                f"box kernel {box_speedup:.1f}x over generic decompose "
                f"(floor {BOX_KERNEL_FLOOR}x)",
            ),
            (
                scan_speedup >= LEAF_SCAN_FLOOR,
                f"leaf scan {scan_speedup:.1f}x over the per-record merge "
                f"(floor {LEAF_SCAN_FLOOR}x)",
            ),
        ],
    )


if __name__ == "__main__":
    sys.exit(main())
