"""The perf-trajectory gate: deterministic trace counters vs baseline.

Runs a fixed-seed query workload (planned range queries through the zkd
index plus a Section-4 overlap join) under a :mod:`repro.obs` trace and
collects every counter the instrumented layers publish — elements
generated, pages accessed, node visits, buffer misses, merge advances,
rows in/out.  With fixed seeds these are *byte-stable*, so CI diffs
them against ``benchmarks/baselines/trace_counters.json`` and fails on
any difference, either way: a change that wall-clock timing would
bury in noise.

Runs three ways:

* as a pytest bench (determinism + gate self-check)::

      PYTHONPATH=src python -m pytest benchmarks/bench_trace_counters.py -q

* as the CI gate::

      PYTHONPATH=src python benchmarks/bench_trace_counters.py \
          --check benchmarks/baselines/trace_counters.json \
          --out BENCH_${SHA}.json

* to re-pin the baseline after an intentional change::

      PYTHONPATH=src python benchmarks/bench_trace_counters.py \
          --update-baseline benchmarks/baselines/trace_counters.json
"""

import argparse
import json
import pathlib
import random
import sys
import time

from repro.core.geometry import Box, Grid
from repro.db import INTEGER, OID, SPATIAL_OBJECT, Schema, SpatialDatabase
from repro.db.relation import Relation
from repro.db.spatial import overlap_query
from repro.db.types import SpatialObject
from repro.obs import compare_counters, trace
from repro.workloads.datasets import make_dataset
from repro.workloads.queries import query_workload

BASELINE_PATH = (
    pathlib.Path(__file__).parent / "baselines" / "trace_counters.json"
)

DEPTH = 7
NPOINTS = 1500
NOBJECTS = 30
CAPACITY = 20
SEED = 0


def _build_database(depth=DEPTH, npoints=NPOINTS, capacity=CAPACITY,
                    seed=SEED):
    grid = Grid(ndims=2, depth=depth)
    db = SpatialDatabase(grid, page_capacity=capacity)
    db.create_table(
        "points", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    dataset = make_dataset("C", grid, npoints, seed=seed)
    db.insert_many(
        "points",
        [(f"p{i}", x, y) for i, (x, y) in enumerate(dataset.points)],
    )
    db.create_index("points_xy", "points", ("x", "y"))
    return grid, db


def _object_relation(name, prefix, grid, count, rng):
    relation = Relation(
        name, Schema.of(("id@", OID), ("geom", SPATIAL_OBJECT))
    )
    extent = max(2, grid.side // 16)
    for i in range(count):
        x = rng.randrange(grid.side - extent)
        y = rng.randrange(grid.side - extent)
        box = Box(((x, x + extent), (y, y + extent)))
        relation.insert(
            (f"{prefix}{i}", SpatialObject.from_box(f"{prefix}{i}", box))
        )
    return relation


def _add_bare_table(db, grid, seed):
    """``bare``: 16k seeded points and no index."""
    db.create_table(
        "bare", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    rng = random.Random(seed + 5)
    db.insert_many(
        "bare",
        [
            (f"b{i}", rng.randrange(grid.side), rng.randrange(grid.side))
            for i in range(16_000)
        ],
    )


def collect_server(depth=DEPTH, capacity=CAPACITY, seed=SEED):
    """Deterministic request-lifecycle counters from the query service.

    The service runs on a *step clock* (every reading advances a fixed
    0.5 s), so deadline expiry and breaker transitions are pure
    functions of the request sequence — no wall clock anywhere.  The
    scripted lifecycle drives each counter family exactly once:

    * healthy armed requests (``server.deadline.armed``),
    * a budget that runs out mid row-scan — the cooperative abort
      (``server.deadline.expired`` + ``server.deadline.scan_aborts``),
    * injected dispatch faults that trip the backend breaker, one shed
      on the open circuit, then a clock jump past ``reset_timeout`` so
      the half-open probe closes it again (``breaker.opened`` /
      ``breaker.shed`` / ``breaker.probes`` / ``breaker.closed``).

    Only nonzero ``server.deadline.*`` / ``breaker.*`` values are
    returned: the baseline gates the lifecycle, not the zero padding.
    """
    import asyncio

    from repro.faults import FaultInjector
    from repro.server import QueryService

    grid = Grid(ndims=2, depth=depth)
    db = SpatialDatabase(grid, page_capacity=capacity)
    db.create_table(
        "points", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    dataset = make_dataset("C", grid, 500, seed=seed)
    db.insert_many(
        "points",
        [(f"p{i}", x, y) for i, (x, y) in enumerate(dataset.points)],
    )
    db.create_index("points_xy", "points", ("x", "y"))
    # Big enough that its row scan passes several cooperative deadline
    # checks (one per 1024 rows).
    _add_bare_table(db, grid, seed)

    ticks = [0.0]

    def clock():
        ticks[0] += 0.5
        return ticks[0]

    injector = FaultInjector(seed=seed)
    service = QueryService(
        db,
        batching=False,
        request_timeout=3600.0,
        faults=injector,
        clock=clock,
        breaker_options={
            "min_samples": 2,
            "failure_threshold": 0.5,
            "reset_timeout": 60.0,
        },
    )
    half = grid.side // 2
    box = [[0, half], [0, half]]

    async def drive():
        client = service.connect("bench")
        try:
            points_req = {
                "op": "range", "table": "points",
                "cols": ["x", "y"], "box": box,
            }
            # Healthy armed requests (budget capped at request_timeout).
            for i in range(3):
                resp = await service.handle_request(
                    client, dict(points_req, id=i, deadline_ms=7_200_000)
                )
                assert resp["ok"], resp
            # A 6 s budget is 12 clock steps: the bare-table row scan
            # reads the clock every 1024 rows, so the budget runs out
            # mid-scan and the cooperative abort fires.
            resp = await service.handle_request(
                client,
                {
                    "op": "range", "table": "bare", "cols": ["x", "y"],
                    "box": box, "id": 10, "deadline_ms": 6_000,
                },
            )
            assert resp["rejected"]["reason"] == "deadline", resp
            # Three dispatch faults: the window reaches 3 ok / 3 fail,
            # which is exactly the 0.5 failure threshold — trip.
            injector.rule("server.dispatch", "error", times=3)
            for i in (20, 21, 22):
                resp = await service.handle_request(
                    client, dict(points_req, id=i)
                )
                assert resp["error"]["type"] == "internal", resp
            # The open circuit sheds before any work is queued.
            resp = await service.handle_request(
                client, dict(points_req, id=23)
            )
            assert resp["rejected"]["reason"] == "breaker", resp
            # Past reset_timeout the half-open probe succeeds: closed.
            ticks[0] += 500.0
            resp = await service.handle_request(
                client, dict(points_req, id=24)
            )
            assert resp["ok"], resp
        finally:
            service.disconnect(client)
            service.close()

    asyncio.run(drive())
    snapshot = service.stats_snapshot()
    merged = {**snapshot["server"], **snapshot.get("breaker", {})}
    return {
        key: value
        for key, value in merged.items()
        if value
        and (key.startswith("server.deadline.") or key.startswith("breaker."))
    }


def collect(depth=DEPTH, npoints=NPOINTS, nobjects=NOBJECTS,
            capacity=CAPACITY, seed=SEED):
    """Every published counter, summed over the fixed workload.

    Range-query counters are prefixed ``range.``, overlap-join counters
    ``join.``, SQL statements ``sql.`` (including the ``planner.*``
    family), the attribute-only range ``attr.`` and the same range
    after one insert ``attr_after_write.``; all values are
    integers (``elapsed_s`` lives in span timings, not counters, so
    nothing here is wall-clock-dependent).
    """
    grid, db = _build_database(depth, npoints, capacity, seed)
    specs = query_workload(
        grid, volumes=(0.01, 0.05), aspects=(1.0, 4.0), locations=3,
        seed=seed + 1,
    )
    counters = {}

    def fold(prefix, totals):
        for key, value in totals.items():
            name = f"{prefix}.{key}"
            counters[name] = counters.get(name, 0) + value

    for spec in specs:
        with trace("range") as t:
            db.range_query("points", ("x", "y"), spec.box)
        fold("range", t.total_counters())

    rng = random.Random(seed + 2)
    p_objects = _object_relation("P", "p", grid, nobjects, rng)
    q_objects = _object_relation("Q", "q", grid, nobjects, rng)
    with trace("join") as t:
        overlap_query(
            p_objects, q_objects, "geom", "id@",
            grid=grid, max_depth=max(1, depth - 3),
        )
    fold("join", t.total_counters())

    # The SQL layer: one multi-conjunct single-table statement (z-window
    # access + reordered attribute/residual filters) and one OVERLAPS
    # join, so the planner.* counters and the per-filter cardinalities
    # gate alongside the raw operator counters.
    from repro.sql import execute_sql

    for table, source in (("pobjs", p_objects), ("qobjs", q_objects)):
        db.create_table(
            table, Schema.of(("id@", OID), ("geom", SPATIAL_OBJECT))
        )
        db.insert_many(table, list(source.rows))
    side = grid.side
    statements = (
        f"SELECT id@ FROM points "
        f"WHERE BOX({side // 8}, {5 * side // 8}, {side // 8}, "
        f"{5 * side // 8}) CONTAINS POINT(x, y) "
        f"AND x + y > {3 * side // 4} "
        f"AND x BETWEEN {side // 4} AND {side // 2} ORDER BY id@",
        "SELECT pobjs.id@, qobjs.id@ FROM pobjs "
        "JOIN qobjs ON OVERLAPS(pobjs.geom, qobjs.geom) "
        "WHERE pobjs.id@ != 'p0' ORDER BY pobjs.id@, qobjs.id@",
    )
    for statement in statements:
        with trace("sql") as t:
            execute_sql(db, statement)
        fold("sql", t.total_counters())

    # An attribute-only range on the index-less ``bare`` table reads
    # x's sorted order, so its filter sees only the covered rows: a
    # fall back to the table scan hands it all 16k and fails the gate.
    # After one insert the same statement still reads the order (then
    # rebuilt), not all 16k rows.
    _add_bare_table(db, grid, seed)
    attr = "SELECT id@ FROM bare WHERE x BETWEEN 10 AND 12"
    with trace("attr") as t:
        execute_sql(db, attr)
    fold("attr", t.total_counters())
    db.insert("bare", ("b-late", 11, 0))
    with trace("attr_after_write") as t:
        execute_sql(db, attr)
    fold("attr_after_write", t.total_counters())

    # The proximity operators: a k-NN sweep and one epsilon
    # cross-match.  Their counters already carry the ``knn.`` /
    # ``zones.`` prefixes, so they merge unprefixed — new baseline
    # sections, existing keys untouched.
    from repro.proximity import zones_epsilon_join
    from repro.storage.prefix_btree import ZkdTree
    from repro.workloads import cross_match_catalogs, knn_workload

    primary, secondary = cross_match_catalogs(grid, 400, seed=seed + 3)
    tree = ZkdTree(grid, page_capacity=capacity)
    tree.bulk_load(sorted(set(primary.points)))
    pts_a, pts_b = list(primary.points), list(secondary.points)
    with trace("proximity") as t:
        for center in knn_workload(grid, primary, 8, seed=seed + 4):
            tree.nearest_neighbours(center, 8)
        zones_epsilon_join(pts_a, pts_b, 2.5)
    for key, value in t.total_counters().items():
        # Keep only the operator families; the probe box queries
        # also publish raw storage counters, which the ``range.`` fold
        # already gates in its own workload.
        if key.startswith(("knn.", "zones.")):
            counters[key] = counters.get(key, 0) + value

    # The windowed eps-join: a window on the probes drives, and their
    # points seek the catalog's index at their z-cells.  Only the
    # join[eps-seek] span's own counters are kept; the window's range
    # scan publishes the storage counters the ``range.`` fold gates.
    db.create_table(
        "probes", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    db.insert_many(
        "probes",
        [(f"q{i}", x, y) for i, (x, y) in enumerate(secondary.points)],
    )
    db.create_index("probes_xy", "probes", ("x", "y"))
    with trace("xmatch") as t:
        execute_sql(
            db,
            "SELECT * FROM points JOIN probes "
            "ON POINT(points.x, points.y) WITHIN 2.5 OF POINT(probes.x, probes.y) "
            f"WHERE BOX(0, {side // 2}, 0, {side // 2}) "
            "CONTAINS POINT(probes.x, probes.y)",
        )
    fold("xmatch", t.find("join[eps-seek]").total_counters())
    # The window's plan walks it down to the probes index's leaves.
    nodes = t.total_counters()["planner.estimate_nodes"]
    fold("xmatch", {"planner.estimate_nodes": nodes})

    # The serving lifecycle on a step clock: deadline and breaker
    # counters land in the same baseline as the operator counters.
    counters.update(collect_server(depth=depth, capacity=capacity,
                                   seed=seed))
    return counters


def measure_overhead(repeats=3):
    """Wall time of the range workload with tracing off vs on.

    The disabled path costs one global load per query/operator; the
    ratio quantifies what the full span machinery adds when enabled.
    """
    grid, db = _build_database()
    specs = query_workload(
        grid, volumes=(0.01, 0.05), aspects=(1.0, 4.0), locations=3,
        seed=SEED + 1,
    )

    def run_workload(traced):
        t0 = time.perf_counter()
        for spec in specs:
            if traced:
                with trace("query(points)"):
                    db.range_query("points", ("x", "y"), spec.box)
            else:
                db.range_query("points", ("x", "y"), spec.box)
        return time.perf_counter() - t0

    run_workload(False)  # warm caches before timing
    disabled = min(run_workload(False) for _ in range(repeats))
    enabled = min(run_workload(True) for _ in range(repeats))
    return {
        "disabled_s": disabled,
        "enabled_s": enabled,
        "enabled_over_disabled": enabled / disabled if disabled else 0.0,
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


def test_counters_deterministic(results_dir):
    """Two independent collections must agree bit-for-bit — the property
    the CI gate stands on."""
    from conftest import save_result

    first = collect()
    second = collect()
    assert first == second
    assert first  # non-empty: the instrumentation actually published
    lines = [f"{k} {v}" for k, v in sorted(first.items())]
    save_result(results_dir, "trace_counters.txt", "\n".join(lines))


def test_counters_match_committed_baseline():
    """The committed baseline is what CI diffs against; drift means
    either a regression or a baseline that needs re-pinning."""
    baseline = json.loads(BASELINE_PATH.read_text())["counters"]
    report = compare_counters(collect(), baseline)
    assert report.ok, report.summary()


# ----------------------------------------------------------------------
# CLI entry point (CI gate)
# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", metavar="PATH",
        help="write the collected counters as a BENCH json artifact",
    )
    parser.add_argument(
        "--check", metavar="BASELINE",
        help="diff against a baseline json; exit 1 on any difference",
    )
    parser.add_argument(
        "--update-baseline", metavar="BASELINE",
        help="write the collected counters as the new baseline",
    )
    parser.add_argument(
        "--overhead", action="store_true",
        help="also time the workload traced vs untraced",
    )
    args = parser.parse_args(argv)

    counters = collect()
    payload = {
        "bench": "trace_counters",
        "workload": {
            "depth": DEPTH, "npoints": NPOINTS, "nobjects": NOBJECTS,
            "capacity": CAPACITY, "seed": SEED,
        },
        "counters": dict(sorted(counters.items())),
    }
    print(f"collected {len(counters)} deterministic counters")

    if args.overhead:
        overhead = measure_overhead()
        payload["overhead"] = overhead
        print(
            f"workload wall time: untraced {overhead['disabled_s'] * 1e3:.1f} ms, "
            f"traced {overhead['enabled_s'] * 1e3:.1f} ms "
            f"({overhead['enabled_over_disabled']:.2f}x)"
        )

    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.out}")

    if args.update_baseline:
        path = pathlib.Path(args.update_baseline)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"bench": "trace_counters", "counters": payload["counters"]},
                indent=2,
            )
            + "\n"
        )
        print(f"baseline pinned at {path}")

    from gates import gate

    checks = [(
        len(counters) > 0,
        f"{len(counters)} deterministic counters collected",
    )]
    if args.check:
        baseline = json.loads(pathlib.Path(args.check).read_text())[
            "counters"
        ]
        report = compare_counters(counters, baseline)
        print(report.summary())
        checks.append(
            (report.ok, "counters match the committed baseline")
        )
    return gate("trace-counters", checks)


if __name__ == "__main__":
    sys.exit(main())
