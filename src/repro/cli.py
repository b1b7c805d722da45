"""Command-line interface: reproduce the paper from a terminal.

    python -m repro figures                 # Figures 1-5
    python -m repro experiment U            # Section 5.3.2, experiment U
    python -m repro partition C             # Figure 6 for experiment C
    python -m repro compare D               # zkd vs kd tree vs grid vs scan
    python -m repro space 109 91            # Section 5.1: E(U,V), coarsening
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.analysis import (
    bit_span,
    coarsening_tradeoff,
    element_count_2d,
)
from repro.core.geometry import Grid
from repro.experiments.comparison import compare_structures, format_comparison
from repro.experiments.figures import (
    figure1_range_query,
    figure2_decomposition,
    figure3_consecutive_zvalues,
    figure4_zorder_curve,
    figure5_merge_trace,
    figure6_partition_map,
)
from repro.experiments.harness import (
    build_tree,
    check_findings,
    format_summary,
    run_ucd_experiment,
)
from repro.workloads.datasets import make_dataset
from repro.workloads.queries import query_workload

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Orenstein (SIGMOD 1986): spatial query "
            "processing with z-order approximate geometry."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures", help="print Figures 1-5 (the running example)")

    for name, help_text in (
        ("experiment", "run one of the Section 5.3.2 experiments"),
        ("partition", "render Figure 6's page partition for a dataset"),
        ("compare", "compare zkd B+-tree with the baselines"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "dataset", choices=["U", "C", "D"], help="point distribution"
        )
        cmd.add_argument(
            "--points", type=int, default=5000, help="dataset size"
        )
        cmd.add_argument(
            "--depth", type=int, default=8, help="grid depth (side = 2**depth)"
        )
        cmd.add_argument(
            "--capacity", type=int, default=20, help="points per data page"
        )
        cmd.add_argument("--seed", type=int, default=0)
        if name == "experiment":
            cmd.add_argument(
                "--locations", type=int, default=5,
                help="random query locations per shape/volume cell",
            )
        if name == "partition":
            cmd.add_argument(
                "--side", type=int, default=64, help="rendered map side"
            )

    space = sub.add_parser(
        "space", help="Section 5.1 analysis of a U x V box decomposition"
    )
    space.add_argument("width", type=int)
    space.add_argument("height", type=int)
    space.add_argument("--depth", type=int, default=10)

    query = sub.add_parser(
        "query",
        help=(
            "run a demo range query and spatial join on a seeded "
            "database, optionally with EXPLAIN ANALYZE tracing"
        ),
    )
    query.add_argument("--points", type=int, default=2000)
    query.add_argument("--objects", type=int, default=40)
    query.add_argument("--depth", type=int, default=8)
    query.add_argument("--capacity", type=int, default=20)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument(
        "--sessions",
        type=int,
        default=0,
        metavar="N",
        help=(
            "open N concurrent snapshot-isolated sessions running the "
            "window query against a hot writer; each session must see "
            "a stable snapshot (with --explain-analyze the snapshot "
            "query's span tree and snapshot.*/cow.* counters print)"
        ),
    )
    query.add_argument(
        "--explain-analyze",
        action="store_true",
        help=(
            "execute with tracing and print the measured span tree "
            "(estimated vs actual rows and pages)"
        ),
    )
    query.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="also write both traces as JSON (implies --explain-analyze)",
    )

    sql = sub.add_parser(
        "sql",
        help=(
            "run one SQL statement against a seeded demo database: "
            "'points' (id@, x, y; zkd-indexed C-cluster) plus "
            "'regions' and 'zones' (id@, geom spatial objects) for "
            "OVERLAPS joins; EXPLAIN / EXPLAIN ANALYZE print the "
            "multi-predicate plan"
        ),
    )
    sql.add_argument(
        "query", help="the SQL text, or - to read it from stdin"
    )
    sql.add_argument("--points", type=int, default=2000)
    sql.add_argument(
        "--objects", type=int, default=40,
        help="rows per spatial-object table (regions, zones)",
    )
    sql.add_argument("--depth", type=int, default=8)
    sql.add_argument("--capacity", type=int, default=20)
    sql.add_argument("--seed", type=int, default=0)
    sql.add_argument(
        "--sessions", type=int, default=0, metavar="N",
        help=(
            "run the statement inside N snapshot-isolated sessions "
            "(opened before a burst of writes) and assert every "
            "session sees identical rows"
        ),
    )
    sql.add_argument(
        "--no-reorder", action="store_true",
        help="keep WHERE conjuncts in written order (naive baseline)",
    )
    sql.add_argument(
        "--explain-analyze", action="store_true",
        help=(
            "execute with tracing and print the measured span tree "
            "(same as prefixing the statement with EXPLAIN ANALYZE)"
        ),
    )
    sql.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="also write the result (columns/rows or plan text) as JSON",
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "stand up the asyncio TCP/JSON-line query service over a "
            "seeded database (admission control + request batching); "
            "Ctrl-C prints the SERVER trace section"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default: 0, pick a free one)",
    )
    serve.add_argument("--points", type=int, default=20000)
    serve.add_argument("--depth", type=int, default=8)
    serve.add_argument("--capacity", type=int, default=20)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--max-inflight", type=int, default=16,
        help="global in-flight query limit (default: 16)",
    )
    serve.add_argument(
        "--quota", type=int, default=8,
        help="per-client in-flight quota (default: 8)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="bounded admission queue length (default: 64)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="max coalesced queries per shared scan (default: 64)",
    )
    serve.add_argument(
        "--no-batch", action="store_true",
        help="serial request-at-a-time dispatch (the benchmark baseline)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=5.0,
        help="per-query timeout before a typed rejection (default: 5s)",
    )
    serve.add_argument(
        "--duration", type=float, default=0.0,
        help="serve for N seconds then exit (default: until Ctrl-C)",
    )
    serve.add_argument(
        "--chaos",
        type=int,
        default=None,
        metavar="SEED",
        help=(
            "instead of serving, run one seeded chaos episode (fault "
            "storm + concurrent clients) and print the report; exits "
            "nonzero unless availability, byte-identity and zero-leak "
            "all hold — the same episode the nightly chaos-serve CI "
            "job sweeps over many seeds"
        ),
    )
    serve.add_argument(
        "--chaos-episodes",
        type=int,
        default=1,
        metavar="N",
        help="with --chaos, sweep N consecutive seeds starting at SEED",
    )

    report = sub.add_parser(
        "report", help="run the whole evaluation and emit a markdown report"
    )
    report.add_argument("--points", type=int, default=5000)
    report.add_argument("--depth", type=int, default=8)
    report.add_argument("--capacity", type=int, default=20)
    report.add_argument("--locations", type=int, default=5)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "-o", "--output", default="-", help="file path, or - for stdout"
    )

    return parser


def _cmd_figures(out) -> None:
    out.write("Figure 1: the range query 1<=X<=3 & 0<=Y<=4\n")
    out.write(figure1_range_query() + "\n\n")
    labels, drawing = figure2_decomposition()
    out.write("Figure 2: decomposition of the box\n")
    out.write(drawing + "\n\n")
    _, fig3 = figure3_consecutive_zvalues()
    out.write("Figure 3: consecutive z values inside an element\n")
    out.write(fig3 + "\n\n")
    _, fig4 = figure4_zorder_curve()
    out.write("Figure 4: z-order ranks ([3,5] -> 27)\n")
    out.write(fig4 + "\n\n")
    _, fig5 = figure5_merge_trace()
    out.write("Figure 5: the range-search merge\n")
    out.write(fig5 + "\n")


def _cmd_experiment(args, out) -> None:
    grid = Grid(ndims=2, depth=args.depth)
    _, rows = run_ucd_experiment(
        grid,
        args.dataset,
        npoints=args.points,
        page_capacity=args.capacity,
        locations=args.locations,
        seed=args.seed,
    )
    out.write(format_summary(rows) + "\n\n")
    findings = check_findings(rows)
    out.write(f"pages grow with volume:       {findings.pages_grow_with_volume}\n")
    out.write(
        "narrow costlier than square:  "
        f"{findings.narrow_costs_more_than_square}\n"
    )
    out.write(
        "prediction is an upper bound: "
        f"{findings.prediction_upper_bound_fraction:.0%} of cells\n"
    )
    out.write(
        "efficiency grows with volume: "
        f"{findings.efficiency_grows_with_volume}\n"
    )
    out.write(f"most efficient aspects:       {findings.best_aspects}\n")


def _cmd_partition(args, out) -> None:
    grid = Grid(ndims=2, depth=args.depth)
    dataset = make_dataset(args.dataset, grid, args.points, args.seed)
    tree = build_tree(dataset, args.capacity)
    out.write(
        f"experiment {args.dataset}: {len(tree)} points on "
        f"{tree.npages} data pages\n"
    )
    out.write(figure6_partition_map(tree, max_side=args.side) + "\n")


def _cmd_compare(args, out) -> None:
    grid = Grid(ndims=2, depth=args.depth)
    dataset = make_dataset(args.dataset, grid, args.points, args.seed)
    specs = query_workload(grid, locations=3, seed=args.seed + 1)
    rows = compare_structures(dataset, specs, args.capacity)
    out.write(format_comparison(rows) + "\n")


def _cmd_query(args, out) -> None:
    """The observability demo: a planned range query and a Section-4
    overlap query, run over a seeded database — with ``--explain-analyze``
    each prints its measured span tree (estimated vs actual)."""
    import random

    from repro.core.geometry import Box
    from repro.db import OID, SPATIAL_OBJECT, INTEGER, Schema, SpatialDatabase
    from repro.db.relation import Relation
    from repro.db.spatial import overlap_query
    from repro.db.types import SpatialObject
    from repro.obs import QueryTrace, format_trace, trace

    grid = Grid(ndims=2, depth=args.depth)
    side = grid.side
    db = SpatialDatabase(grid, page_capacity=args.capacity)
    db.create_table(
        "points",
        Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER)),
    )
    dataset = make_dataset("C", grid, args.points, seed=args.seed)
    db.insert_many(
        "points",
        [(f"p{i}", x, y) for i, (x, y) in enumerate(dataset.points)],
    )
    db.create_index("points_xy", "points", ("x", "y"))
    window = Box(((side // 8, 3 * side // 8), (side // 8, 3 * side // 8)))

    if getattr(args, "sessions", 0) > 0:
        _run_concurrent_sessions(db, window, args, out)
        return

    rng = random.Random(args.seed + 1)

    def random_objects(name: str, prefix: str) -> Relation:
        relation = Relation(
            name, Schema.of(("id@", OID), ("geom", SPATIAL_OBJECT))
        )
        extent = max(2, side // 16)
        for i in range(args.objects):
            x = rng.randrange(side - extent)
            y = rng.randrange(side - extent)
            box = Box(((x, x + extent), (y, y + extent)))
            relation.insert(
                (f"{prefix}{i}", SpatialObject.from_box(f"{prefix}{i}", box))
            )
        return relation

    p_objects = random_objects("P", "p")
    q_objects = random_objects("Q", "q")
    join_depth = max(1, args.depth - 3)

    join_kwargs = dict(grid=grid, max_depth=join_depth)

    if not (args.explain_analyze or args.json_path):
        rows = len(db.range_query("points", ("x", "y"), window))
        out.write(f"range query {window}: {rows} rows\n")
        pairs = overlap_query(
            p_objects, q_objects, "geom", "id@", **join_kwargs
        )
        out.write(f"overlap join P x Q: {len(pairs)} pairs\n")
        return

    with trace("query(points)") as range_trace:
        db.range_query("points", ("x", "y"), window)
    assert range_trace is not None
    out.write("=== EXPLAIN ANALYZE: range query ===\n")
    out.write(format_trace(range_trace) + "\n\n")

    with trace("overlap_query(P,Q)") as join_trace:
        overlap_query(
            p_objects, q_objects, "geom", "id@", **join_kwargs
        )
    assert join_trace is not None
    out.write("=== EXPLAIN ANALYZE: spatial join ===\n")
    out.write(format_trace(join_trace) + "\n")

    if args.json_path:
        import json

        # Round-trip both traces through to_json (what the benchmarks
        # consume) and persist the parsed forms under one document.
        payload = {}
        for key, t in (
            ("range_query", range_trace),
            ("spatial_join", join_trace),
        ):
            text = t.to_json()
            restored = QueryTrace.from_json(text)
            assert restored.total_counters() == t.total_counters()
            payload[key] = json.loads(text)
        with open(args.json_path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        out.write(f"traces written to {args.json_path}\n")


def _cmd_sql(args, out) -> int:
    """``python -m repro sql "SELECT ..."``: parse, bind, plan and run
    one statement against a seeded demo database.  Parse/bind errors
    print a caret-annotated source excerpt and exit 2."""
    import json
    import random

    from repro.core.geometry import Box
    from repro.db import (
        INTEGER,
        OID,
        SPATIAL_OBJECT,
        Schema,
        SpatialDatabase,
    )
    from repro.db.types import SpatialObject
    from repro.sql import SqlError, compile_sql

    source = args.query
    if source == "-":
        source = sys.stdin.read()

    grid = Grid(ndims=2, depth=args.depth)
    side = grid.side
    db = SpatialDatabase(grid, page_capacity=args.capacity)
    db.create_table(
        "points", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    dataset = make_dataset("C", grid, args.points, seed=args.seed)
    db.insert_many(
        "points",
        [(f"p{i}", x, y) for i, (x, y) in enumerate(dataset.points)],
    )
    db.create_index("points_xy", "points", ("x", "y"))
    rng = random.Random(args.seed + 1)
    extent = max(2, side // 16)
    for table, prefix in (("regions", "r"), ("zones", "z")):
        db.create_table(
            table, Schema.of(("id@", OID), ("geom", SPATIAL_OBJECT))
        )
        db.insert_many(
            table,
            [
                (
                    f"{prefix}{i}",
                    SpatialObject.from_box(
                        f"{prefix}{i}",
                        Box(((x, x + extent), (y, y + extent))),
                    ),
                )
                for i in range(args.objects)
                for x in (rng.randrange(side - extent),)
                for y in (rng.randrange(side - extent),)
            ],
        )
    # A second point catalog — a displaced re-observation of ``points``
    # — so the WITHIN epsilon-join examples have a partner table.
    db.create_table(
        "points2", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    db.insert_many(
        "points2",
        [
            (
                f"q{i}",
                min(side - 1, max(0, x + rng.randint(-2, 2))),
                min(side - 1, max(0, y + rng.randint(-2, 2))),
            )
            for i, (x, y) in enumerate(dataset.points)
        ],
    )
    db.create_index("points2_xy", "points2", ("x", "y"))

    def run_one(target=None):
        """→ (mode, relation-or-None, text-or-None)."""
        compiled = compile_sql(db, source, reorder=not args.no_reorder)
        mode = compiled.statement.mode
        if args.explain_analyze and mode is None:
            mode = "analyze"
        if mode == "explain":
            return "explain", None, compiled.explain(target)
        if mode == "analyze":
            return "analyze", None, compiled.explain_analyze(target)
        return "rows", compiled.run(target), None

    try:
        if args.sessions > 0:
            sessions = [db.session() for _ in range(args.sessions)]
            try:
                # A burst of writes after the snapshots are taken: every
                # session must still see identical rows.
                db.insert_many(
                    "points",
                    [
                        (f"late{i}", i % side, (3 * i) % side)
                        for i in range(64)
                    ],
                )
                results = [run_one(s) for s in sessions]
            finally:
                for s in sessions:
                    s.close()
            mode, relation, text = results[0]
            if mode == "rows":
                rows = relation.rows
                for i, (_, other, _) in enumerate(results[1:], 1):
                    if other.rows != rows:
                        raise AssertionError(
                            f"session {i} disagreed with session 0"
                        )
                out.write(
                    f"{args.sessions} snapshot sessions agreed "
                    f"({len(rows)} row(s) each, writer ignored)\n"
                )
        else:
            mode, relation, text = run_one()
    except SqlError as err:
        out.write(err.annotate(source) + "\n")
        return 2

    if mode == "rows":
        out.write("  ".join(relation.schema.names) + "\n")
        for row in relation.rows:
            out.write("  ".join(str(value) for value in row) + "\n")
        out.write(f"({len(relation)} row(s))\n")
    else:
        out.write(text + "\n")

    if args.json_path:
        payload = {
            "mode": mode,
            "columns": list(relation.schema.names) if relation else [],
            "rows": [list(row) for row in relation.rows] if relation else [],
            "text": text or "",
        }
        with open(args.json_path, "w") as handle:
            json.dump(
                payload, handle, indent=2, sort_keys=True, default=str
            )
        out.write(f"result written to {args.json_path}\n")
    return 0


def _run_concurrent_sessions(db, window, args, out) -> None:
    """``query --sessions N``: N snapshot-isolated readers racing one
    hot writer.  Every session reads the window query twice and both
    reads must be identical — the live table keeps changing underneath.
    """
    import random
    import threading

    from repro.obs import format_trace, trace

    side = db.grid.side
    results = [None] * args.sessions
    errors: list = []
    stop = threading.Event()

    def writer() -> None:
        rnd = random.Random(args.seed + 42)
        serial = 0
        while not stop.is_set():
            serial += 1
            db.insert(
                "points",
                (f"w{serial}", rnd.randrange(side), rnd.randrange(side)),
            )

    def reader(i: int) -> None:
        try:
            with db.session() as session:
                first = session.range_query(
                    "points", ("x", "y"), window
                ).rows
                second = session.range_query(
                    "points", ("x", "y"), window
                ).rows
                if first != second:
                    raise AssertionError(
                        f"session {i} saw an unstable snapshot"
                    )
                results[i] = (session.epoch, len(first))
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    hot = threading.Thread(target=writer)
    hot.start()
    readers = [
        threading.Thread(target=reader, args=(i,))
        for i in range(args.sessions)
    ]
    for t in readers:
        t.start()
    for t in readers:
        t.join()
    stop.set()
    hot.join()
    if errors:
        raise errors[0]
    out.write(
        f"{args.sessions} snapshot sessions vs 1 hot writer "
        "(each session read the window twice):\n"
    )
    for i, (epoch, nrows) in enumerate(results):
        out.write(
            f"  session {i}: epoch {epoch}, {nrows} rows in window, "
            "stable\n"
        )
    counters = db.snapshots.counters()
    leaks = db.snapshots.leak_stats()
    out.write(
        "snapshot counters: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        + "\n"
    )
    out.write(
        "leak check: "
        + ", ".join(f"{k}={v}" for k, v in sorted(leaks.items()))
        + "\n"
    )
    if args.explain_analyze or args.json_path:
        with db.session() as session, trace(
            f"session(epoch={db.snapshots.current_epoch}) range query"
        ) as t:
            session.range_query("points", ("x", "y"), window)
        assert t is not None
        out.write("=== EXPLAIN ANALYZE: snapshot range query ===\n")
        out.write(format_trace(t) + "\n")
        if args.json_path:
            import json

            with open(args.json_path, "w") as handle:
                json.dump(
                    {"snapshot_range_query": json.loads(t.to_json())},
                    handle,
                    indent=2,
                    sort_keys=True,
                )
            out.write(f"trace written to {args.json_path}\n")


def _cmd_serve(args, out) -> int:
    """Serve a seeded database over TCP until Ctrl-C (or --duration),
    then print the SERVER trace section: admission and batching
    counters plus one compact line per remembered client.

    With ``--chaos SEED`` no server is exposed: instead the seeded
    chaos sweep runs N self-contained episodes (storm of faulty
    clients against an in-process server under injected faults) and
    the exit code reports whether every episode held its invariants.
    """
    import asyncio

    from repro.db import INTEGER, OID, Schema, SpatialDatabase
    from repro.obs import format_trace
    from repro.server import QueryService, serve

    if args.chaos is not None:
        from repro.server.chaos import run_chaos_sweep

        seeds = range(args.chaos, args.chaos + args.chaos_episodes)
        reports = run_chaos_sweep(seeds, out=out)
        failed = [r for r in reports if not r.passed]
        out.write(
            f"chaos sweep: {len(reports) - len(failed)}/{len(reports)} "
            "episodes passed\n"
        )
        return 1 if failed else 0

    grid = Grid(ndims=2, depth=args.depth)
    db = SpatialDatabase(grid, page_capacity=args.capacity)
    db.create_table(
        "points", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    dataset = make_dataset("C", grid, args.points, seed=args.seed)
    db.insert_many(
        "points",
        [(f"p{i}", x, y) for i, (x, y) in enumerate(dataset.points)],
    )
    db.create_index("points_xy", "points", ("x", "y"))

    service = QueryService(
        db,
        max_inflight=args.max_inflight,
        client_quota=args.quota,
        queue_limit=args.queue_limit,
        batching=not args.no_batch,
        max_batch=args.max_batch,
        request_timeout=args.request_timeout,
    )

    async def run() -> None:
        server = await serve(service, args.host, args.port)
        mode = (
            "request-at-a-time"
            if args.no_batch
            else f"batching<= {args.max_batch}"
        )
        out.write(
            f"serving 'points' ({args.points} C-cluster points, "
            f"index points_xy) on {server.host}:{server.port} "
            f"[{mode}, inflight<={args.max_inflight}, "
            f"quota<={args.quota}]\n"
        )
        if hasattr(out, "flush"):
            out.flush()
        try:
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    out.write("\n" + format_trace(service.trace_section()) + "\n")
    return 0


def _cmd_space(args, out) -> None:
    u, v = args.width, args.height
    count = element_count_2d(u, v, args.depth)
    out.write(f"E({u}, {v}) at depth {args.depth}: {count} elements\n")
    out.write(f"bit span of U|V: {bit_span(u | v)}\n")
    out.write(
        f"cyclicity check: E({2 * u}, {2 * v}) = "
        f"{element_count_2d(2 * u, 2 * v, args.depth + 1)}\n\n"
    )
    out.write("coarsening trade-off (zeroing the last m bits):\n")
    out.write(
        f"{'m':>2} {'U_prime':>8} {'V_prime':>8} {'elements':>9} "
        f"{'reduction':>10} {'area_err':>9}\n"
    )
    for m in range(0, min(8, args.depth)):
        t = coarsening_tradeoff((u, v), args.depth, m)
        out.write(
            f"{m:>2} {t.coarsened_sizes[0]:>8} {t.coarsened_sizes[1]:>8} "
            f"{t.elements_after:>9} {t.element_reduction:>10.2%} "
            f"{t.volume_error:>9.2%}\n"
        )


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "figures":
        _cmd_figures(out)
    elif args.command == "experiment":
        _cmd_experiment(args, out)
    elif args.command == "partition":
        _cmd_partition(args, out)
    elif args.command == "compare":
        _cmd_compare(args, out)
    elif args.command == "query":
        _cmd_query(args, out)
    elif args.command == "sql":
        return _cmd_sql(args, out)
    elif args.command == "serve":
        return _cmd_serve(args, out)
    elif args.command == "space":
        _cmd_space(args, out)
    elif args.command == "report":
        from repro.experiments.report import write_report

        if args.output == "-":
            write_report(
                out,
                npoints=args.points,
                depth=args.depth,
                page_capacity=args.capacity,
                locations=args.locations,
                seed=args.seed,
            )
        else:
            with open(args.output, "w") as handle:
                write_report(
                    handle,
                    npoints=args.points,
                    depth=args.depth,
                    page_capacity=args.capacity,
                    locations=args.locations,
                    seed=args.seed,
                )
            out.write(f"report written to {args.output}\n")
    return 0
