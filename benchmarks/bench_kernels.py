"""Microbenchmark: scalar reference z kernels vs the batched fast path.

Reports shuffle/unshuffle throughput (points per second) and box
decomposition throughput (boxes per second: the integer box kernel vs
the generic object machinery on the same boxes) so the kernel speedups
land in the perf trajectory.  The acceptance floors for this bench are
a >= 3x batched shuffle speedup on 100k 2-d points and a >= 3x
box-kernel speedup over the generic ``decompose(grid,
box_classifier(box))`` — re-routing boxes through the generic machinery
fails the gate.

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

DEPTH = 16

#: Floor on box kernel vs generic decompose (measured 7-8x on these
#: random boxes, 11x on 100x100 ones); it holds in smoke mode too, being
#: a ratio of two loops over the same boxes.
BOX_KERNEL_FLOOR = 3.0


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


def format_report(shuffles, unshuffles, kernels):
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
    return "\n".join(lines)


def run(npoints=100_000, nboxes=150, verbose=True):
    shuffles = [
        bench_shuffle(npoints, 2),
        bench_shuffle(max(1000, npoints // 4), 3),
        bench_shuffle(max(1000, npoints // 4), 4),
    ]
    unshuffles = [bench_unshuffle(max(1000, npoints // 2), 2)]
    kernels = [bench_box_kernel(nboxes, Grid(ndims=2, depth=10))]
    report = format_report(shuffles, unshuffles, kernels)
    if verbose:
        print(report)
    return shuffles, unshuffles, kernels, report


# ----------------------------------------------------------------------
# pytest entry point (writes the result artifact)
# ----------------------------------------------------------------------


def test_kernel_throughput(results_dir):
    from conftest import save_result

    shuffles, unshuffles, kernels, report = run(verbose=False)
    save_result(results_dir, "kernel_throughput.txt", report)
    # The acceptance floor: batched 2-d shuffle of 100k points >= 3x.
    assert shuffles[0]["npoints"] == 100_000
    assert shuffles[0]["speedup"] >= 3.0, report
    # A box must never pay for the generic object machinery.
    assert kernels[0]["speedup"] >= BOX_KERNEL_FLOOR, report


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

    shuffles, _, kernels, _ = run(npoints=npoints, nboxes=nboxes)
    speedup = shuffles[0]["speedup"]
    box_speedup = kernels[0]["speedup"]
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
        ],
    )


if __name__ == "__main__":
    sys.exit(main())
