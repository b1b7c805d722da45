"""Serving benchmark: latency and throughput of the TCP query service.

Simulated client fleets (1, 16 and 64 closed-loop connections) fire
overlapping hot-region range queries at a :class:`repro.server.
QueryService` over real sockets, measuring per-request latency
(p50/p95) and aggregate qps at each concurrency level.

The headline gate is the batching dividend: at 16 clients the
coalescing dispatcher (concurrent queries against one index and epoch
share a single scatter-gather pass) must deliver at least ``1.7x`` the
qps of serial request-at-a-time dispatch (``max_batch=1`` through the
identical machinery).  Both sides run cache-less so the comparison
isolates batching itself: every request decomposes its own box
(~0.8 ms of bare ``box_intervals`` for these ~770-element boxes), a
cost batching cannot share and nothing remembers.  The floor was
``2x`` while a decomposition cache, warmed here before the clock
started, hid that cost: ``--smoke`` read 2.59-3.54x then (16-client
batched 1003-1218 qps, serial 337-387) and reads 2.03-2.15x now
(563-602 qps, serial ~293), so ``1.7x`` is the same gate with the
same kind of margin.

``--check benchmarks/baselines/server_latency.json`` additionally
enforces the committed serving floors (min qps, max p95) so CI fails
on serving regressions; ``--write-baseline`` re-pins them from a
fresh measurement with generous margins.
"""

import argparse
import asyncio
import gc
import json
import pathlib
import random
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repro.core.geometry import Box, Grid  # noqa: E402
from repro.db import INTEGER, OID, Schema, SpatialDatabase  # noqa: E402
from repro.server import QueryClient, QueryService, serve  # noqa: E402
from repro.shard.scatter import ResiliencePolicy  # noqa: E402
from repro.workloads.datasets import make_dataset  # noqa: E402

NPOINTS = 8_000
DEPTH = 11
CAPACITY = 20
SEED = 0
CLIENT_LEVELS = (1, 16, 64)
REQUESTS_PER_CLIENT = 12
SPEEDUP_FLOOR = 1.7
BASELINE = pathlib.Path(__file__).parent / "baselines" / "server_latency.json"


def build_database(npoints=NPOINTS, depth=DEPTH, seed=SEED, shards=6):
    grid = Grid(ndims=2, depth=depth)
    db = SpatialDatabase(grid, page_capacity=CAPACITY, cache=False)
    db.create_table(
        "points", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    dataset = make_dataset("C", grid, npoints, seed=seed)
    db.insert_many(
        "points",
        [(f"p{i}", x, y) for i, (x, y) in enumerate(dataset.points)],
    )
    # Sharded scatter-gather index: every interval_query pays a 6-way
    # fan-out, which the batched dispatcher amortizes across the group.
    db.create_index(
        "points_xy", "points", ("x", "y"), shards=shards,
    )
    return db


def workload_boxes(grid, count, seed=SEED):
    """Overlapping fat boxes jittered around one hot centre — the
    traffic shape batching exploits.  Overlapping squares share the
    large aligned z cells of their common interior, so the merged
    interval list covers the fleet's elements roughly once; jitter
    keeps the boxes distinct (no free cache-style identity).  The
    centre sits in a sparse region of the clustered dataset so scan
    work (elements, shard fan-outs) dominates over answer size."""
    side = grid.side
    rng = random.Random(seed + 17)
    extent = side // 4
    jitter = side // 24
    cx = cy = 13 * side // 16
    boxes = []
    for _ in range(count):
        x = max(0, min(side - 1 - extent, cx + rng.randrange(-jitter, jitter + 1)))
        y = max(0, min(side - 1 - extent, cy + rng.randrange(-jitter, jitter + 1)))
        boxes.append(Box(((x, x + extent), (y, y + extent))))
    return boxes


async def _client_loop(host, port, boxes, requests, latencies):
    policy = ResiliencePolicy(
        max_retries=6, backoff_base=0.05, backoff_factor=2.0, timeout=60.0
    )
    async with await QueryClient.connect(host, port, policy) as client:
        for i in range(requests):
            box = boxes[i % len(boxes)]
            start = time.perf_counter()
            # Every request carries a generous explicit deadline: the
            # qps/p95 floors therefore price in the armed-deadline path
            # (scope push, cooperative checks, bounded waits), not just
            # the unarmed fast path.
            await client.range_query(
                "points", ("x", "y"), box.ranges, deadline_ms=60_000
            )
            latencies.append(time.perf_counter() - start)


async def _run_level(db, nclients, requests, batching, use_boxes):
    service = QueryService(
        db,
        max_inflight=128,
        client_quota=max(4, requests),
        queue_limit=256,
        batching=batching,
        max_batch=64,
        request_timeout=60.0,
    )
    server = await serve(service)
    # Untimed warm-up through a connection held open for the whole
    # level: builds the service's shared snapshot view and per-epoch
    # row map so the timed fleet measures steady-state serving.
    warm = await QueryClient.connect(server.host, server.port)
    for box in use_boxes[0][:3]:
        await warm.range_query("points", ("x", "y"), box.ranges)
    latencies = []
    start = time.perf_counter()
    try:
        await asyncio.gather(*[
            _client_loop(
                server.host,
                server.port,
                use_boxes[c % len(use_boxes)],
                requests,
                latencies,
            )
            for c in range(nclients)
        ])
    finally:
        elapsed = time.perf_counter() - start
        snapshot = service.stats_snapshot()
        stats = snapshot["server"]
        breaker = snapshot.get("breaker", {})
        await warm.close()
        await server.close()
    total = nclients * requests
    latencies.sort()
    return {
        "clients": nclients,
        "batching": batching,
        "requests": total,
        "qps": total / elapsed,
        "p50_ms": statistics.median(latencies) * 1e3,
        "p95_ms": latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))]
        * 1e3,
        "batch_size_peak": stats["server.batch_size_peak"],
        "rejected": sum(
            v for k, v in stats.items() if k.startswith("server.rejected.")
        ),
        "deadline_armed": stats.get("server.deadline.armed", 0),
        "deadline_expired": stats.get("server.deadline.expired", 0),
        "breaker_visible": bool(breaker),
        "breaker_open_now": breaker.get("breaker.open_now", 0),
        "breaker_opened": breaker.get("breaker.opened", 0),
    }


def run(npoints=NPOINTS, depth=DEPTH, levels=CLIENT_LEVELS,
        requests=REQUESTS_PER_CLIENT, seed=SEED):
    """Measure every concurrency level batched, plus the 16-client
    serial baseline for the speedup gate."""
    db = build_database(npoints=npoints, depth=depth, seed=seed)
    # Each client cycles its own shuffled copy of a shared box pool, so
    # concurrent requests overlap without being identical.
    pool = workload_boxes(db.grid, 24, seed=seed)
    rng = random.Random(seed + 23)
    per_client = []
    for _ in range(max(levels)):
        shuffled = list(pool)
        rng.shuffle(shuffled)
        per_client.append(shuffled)

    rows = []
    for nclients in levels:
        rows.append(
            asyncio.run(
                _run_level(db, nclients, requests, True, per_client)
            )
        )
        gc.collect()
    # The dispatch gate pair runs back-to-back (best of two rounds each)
    # so the comparison is not polluted by whatever the larger latency
    # levels left behind in the allocator.
    serial_runs, batched_runs = [], []
    for _ in range(2):
        serial_runs.append(
            asyncio.run(_run_level(db, 16, requests, False, per_client))
        )
        gc.collect()
        batched_runs.append(
            asyncio.run(_run_level(db, 16, requests, True, per_client))
        )
        gc.collect()
    serial = max(serial_runs, key=lambda r: r["qps"])
    batched16 = max(batched_runs, key=lambda r: r["qps"])
    return rows, batched16, serial


def format_report(rows, batched16, serial):
    header = (
        f"{'clients':>8} {'dispatch':>10} {'qps':>9} "
        f"{'p50_ms':>8} {'p95_ms':>8} {'peak_batch':>10}"
    )
    lines = [header, "-" * len(header)]
    for row in rows + [batched16, serial]:
        dispatch = "batched" if row["batching"] else "serial"
        lines.append(
            f"{row['clients']:>8} {dispatch:>10} {row['qps']:>9.0f} "
            f"{row['p50_ms']:>8.2f} {row['p95_ms']:>8.2f} "
            f"{row['batch_size_peak']:>10}"
        )
    lines.append(
        f"\nbatching dividend at 16 clients: "
        f"{batched16['qps'] / serial['qps']:.2f}x qps"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest entry points (bench-marked smoke)
# ----------------------------------------------------------------------


def test_smoke_levels(results_dir):
    from conftest import save_result

    rows, batched16, serial = run(
        npoints=6_000, depth=8, levels=(1, 8), requests=6
    )
    report = format_report(rows, batched16, serial)
    save_result(results_dir, "server_latency_smoke.txt", report)
    assert all(
        r["rejected"] == 0 for r in rows + [batched16, serial]
    ), report
    assert all(r["requests"] == r["clients"] * 6 for r in rows), report
    # Concurrency must actually have produced multi-request batches.
    assert batched16["batch_size_peak"] > 1, report
    # Deadline + breaker paths were live (and quiet) for every request.
    assert all(
        r["deadline_armed"] == r["requests"] and r["breaker_visible"]
        for r in rows + [batched16, serial]
    ), report


# ----------------------------------------------------------------------
# CLI entry point (CI gate)
# ----------------------------------------------------------------------


def main(argv=None):
    from gates import gate

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller fleet and dataset with a relaxed speedup floor",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", nargs="?", const=str(BASELINE),
        help="enforce the committed qps/p95 serving floors",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="re-pin the serving floors from this measurement",
    )
    parser.add_argument("--points", type=int, default=NPOINTS)
    parser.add_argument("--depth", type=int, default=DEPTH)
    parser.add_argument(
        "--requests", type=int, default=REQUESTS_PER_CLIENT,
        help="closed-loop requests per client (default: 12)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        npoints, depth, levels, requests, floor = (
            NPOINTS, DEPTH, (1, 16), 10, SPEEDUP_FLOOR
        )
    else:
        npoints, depth, levels, requests, floor = (
            args.points, args.depth, CLIENT_LEVELS, args.requests,
            SPEEDUP_FLOOR,
        )
    rows, batched16, serial = run(
        npoints=npoints, depth=depth, levels=levels, requests=requests
    )
    print(format_report(rows, batched16, serial))
    speedup = batched16["qps"] / serial["qps"]

    checks = [
        (
            speedup >= floor,
            f"16-client batched dispatch {speedup:.2f}x serial qps "
            f"(floor {floor}x)",
        ),
        (
            all(
                r["rejected"] == 0 for r in rows + [batched16, serial]
            ),
            "no spurious rejections at any level",
        ),
        (
            all(
                r["deadline_armed"] == r["requests"]
                and r["deadline_expired"] == 0
                for r in rows + [batched16, serial]
            ),
            "every request armed a deadline; none spuriously expired",
        ),
        (
            all(
                r["breaker_visible"]
                and r["breaker_open_now"] == 0
                and r["breaker_opened"] == 0
                for r in rows + [batched16, serial]
            ),
            "breaker section observable in stats; all breakers stayed "
            "closed under healthy load",
        ),
    ]
    notes = []
    if args.write_baseline:
        baseline = {
            "bench": "server_latency",
            "workload": {
                "npoints": npoints, "depth": depth,
                "requests_per_client": requests, "levels": list(levels),
            },
            # Generous margins: floors catch collapses, not jitter.
            "floors": {
                str(r["clients"]): {
                    "qps_min": round(r["qps"] / 4.0, 1),
                    "p95_ms_max": round(r["p95_ms"] * 8.0, 2),
                }
                for r in rows
            },
            "speedup_16_min": floor,
        }
        BASELINE.parent.mkdir(parents=True, exist_ok=True)
        BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"baseline pinned at {BASELINE}")
    if args.check:
        pinned = json.loads(pathlib.Path(args.check).read_text())
        for row in rows:
            pin = pinned["floors"].get(str(row["clients"]))
            if pin is None:
                notes.append(
                    f"no pinned floor for {row['clients']} clients"
                )
                continue
            checks.append((
                row["qps"] >= pin["qps_min"],
                f"{row['clients']}-client qps {row['qps']:.0f} "
                f"(floor {pin['qps_min']})",
            ))
            checks.append((
                row["p95_ms"] <= pin["p95_ms_max"],
                f"{row['clients']}-client p95 {row['p95_ms']:.2f} ms "
                f"(ceiling {pin['p95_ms_max']} ms)",
            ))
    return gate("server", checks, notes)


if __name__ == "__main__":
    sys.exit(main())
