"""The per-layer suite (``--trace 1``).

One suite, the same whichever ``--workload`` is named: the benchmark
contract wants every per-layer metric from every traced run, so the
suite replays a fixed count of each workload's stream (fixed, so the
count metrics repeat exactly for a seed) with the harness's spans
around every call into a layer, and replays the same inputs one layer
down so a layer's self time is its span minus its child's.

Nothing under ``src/`` is instrumented.  Every probe beyond the
long-lived public surface is feature-detected: when its API is gone it
reads ``None`` (``null`` in the ledger) and nothing raises.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import statistics
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Type

from repro.sql import execute_sql
from repro.storage import ZkdTree
from repro.workloads.queries import query_workload

from harness import (
    Timed,
    bytes_written,
    median_ms,
    optional,
    percentile,
    stream_rng,
)
from spans import Recorder, Span
from workloads import (
    OUT_DIR,
    PAGE_CAPACITY,
    WORKLOADS,
    DiskChurn,
    ServeMixed,
    SqlMix,
    SqlOps,
    TreeUcd,
    Workload,
    as_box,
)

#: (name, unit, better) of every per-layer metric, in ledger order.
#: BENCHMARK.json lists the same names; test_ledger.py keeps them equal.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sql.execute_ms", "ms", "lower"),
    ("sql.parse_ms", "ms", "lower"),
    ("sql.bind_ms", "ms", "lower"),
    ("sql.plan_ms", "ms", "lower"),
    ("sql.run_ms", "ms", "lower"),
    ("sql.between_ms", "ms", "lower"),
    ("sql.attr_ms", "ms", "lower"),
    ("sql.knn_ms", "ms", "lower"),
    ("sql.xmatch_ms", "ms", "lower"),
    ("db.range_query_ms", "ms", "lower"),
    ("db.rejoin_ms", "ms", "lower"),
    ("db.stats_build_ms", "ms", "lower"),
    ("db.sql_over_tree", "ratio", "lower"),
    ("db.table_scaling", "ratio", "lower"),
    ("db.rows_examined_per_result", "ratio", "lower"),
    ("db.insert_us", "us", "lower"),
    ("db.create_index_s", "s", "lower"),
    ("core.decompose_cold_ms", "ms", "lower"),
    ("core.decompose_warm_ms", "ms", "lower"),
    ("core.elements_per_box", "count", "lower"),
    ("core.shuffle_us_per_point", "us", "lower"),
    ("core.fast_over_scalar", "ratio", "lower"),
    ("storage.range_ms", "ms", "lower"),
    ("storage.pages_per_query.U", "count", "lower"),
    ("storage.pages_per_query.C", "count", "lower"),
    ("storage.pages_per_query.D", "count", "lower"),
    ("storage.efficiency.U", "ratio", "higher"),
    ("storage.efficiency.C", "ratio", "higher"),
    ("storage.efficiency.D", "ratio", "higher"),
    ("storage.bulk_load_s", "s", "lower"),
    ("storage.txn_commit_ms", "ms", "lower"),
    ("storage.churn_range_ms", "ms", "lower"),
    ("storage.buffer_hit_rate", "ratio", "higher"),
    ("storage.page_writes_per_txn", "count", "lower"),
    ("storage.bytes_per_txn", "bytes", "lower"),
    ("storage.wal_bytes_per_txn", "bytes", "lower"),
    ("storage.write_amp", "ratio", "lower"),
    ("storage.file_bytes_per_point", "bytes", "lower"),
    ("storage.recover_s", "s", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.partial_rate", "ratio", "higher"),
    ("cache.invalidations", "count", "lower"),
    ("cache.hit_ms", "ms", "lower"),
    ("cache.miss_ms", "ms", "lower"),
    ("shard.range_ms", "ms", "lower"),
    ("shard.over_single", "ratio", "lower"),
    ("shard.shards_hit_per_query", "count", "lower"),
    ("concurrency.pin_us", "us", "lower"),
    ("concurrency.session_range_ms", "ms", "lower"),
    ("concurrency.commit_ms", "ms", "lower"),
    ("server.ping_rtt_ms", "ms", "lower"),
    ("server.wire_range_ms", "ms", "lower"),
    ("server.wire_over_inproc", "ratio", "lower"),
    ("server.range_p50_ms", "ms", "lower"),
    ("server.sql_p50_ms", "ms", "lower"),
    ("server.write_p50_ms", "ms", "lower"),
    ("server.read_p95_ms", "ms", "lower"),
    ("server.write_p95_ms", "ms", "lower"),
    ("server.batch_size_mean", "count", "higher"),
    ("server.batch_size_peak", "count", "higher"),
    ("server.rejected", "count", "lower"),
    ("proximity.knn_cold_ms", "ms", "lower"),
    ("proximity.knn_ms", "ms", "lower"),
    ("proximity.epsjoin_ms", "ms", "lower"),
] + [(f"trace_overhead_pct.{name}", "%", "lower") for name in WORKLOADS]


def timed_ms(call: Callable[[], Any]) -> float:
    start = time.perf_counter()
    call()
    return (time.perf_counter() - start) * 1e3


def ratio(top: Optional[float], bottom: Optional[float]) -> Optional[float]:
    return top / bottom if top is not None and bottom else None


def _obs_trace() -> Callable[..., Any]:
    from repro.obs import trace

    return trace


def _decompose_box() -> Callable[..., Any]:
    from repro.core.decompose import decompose_box

    return decompose_box


class Suite:
    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.rec = Recorder()
        self.values: Dict[str, Optional[float]] = {}
        self.outcome = Timed()

    def count(self, full: int, small: int) -> int:
        return small if self.smoke else full

    def verify(self, ok: bool, what: str) -> None:
        self.outcome.attempted += 1
        if not ok:
            self.outcome.fail(what)

    # -- traced vs untraced ----------------------------------------------

    def overhead(
        self, cls: Type[Workload], workload: Workload, stream: Iterator[Any]
    ) -> None:
        """Alternate plain and traced groups of one stream and compare
        the time each side took in total; a group holds one full cycle
        of the stream's mix, so both sides run the same composition.
        Traced means a harness span plus the program's ``obs.trace``."""
        obs_trace = optional(_obs_trace)
        name, group = cls.name, cls.trace_group
        plain = traced = 0.0
        ops = 2 * self.count(cls.trace_ops, group)
        for i, op in enumerate(itertools.islice(stream, ops)):
            if (i // group) % 2 == 0:
                plain += timed_ms(lambda: workload.execute(op))
                continue
            tracing = obs_trace(name) if obs_trace else contextlib.nullcontext()
            with self.rec.span(f"{name}.op", request=i) as span, tracing:
                workload.execute(op)
            traced += span.duration * 1e3
        self.values[f"trace_overhead_pct.{name}"] = (traced / plain - 1) * 100

    # -- sql / db / core / proximity -------------------------------------

    def _sql_stages(self, db: Any, text: str, root: Span) -> Span:
        """parse, bind, plan and run as sibling spans under ``root``."""
        from repro.sql import CompiledQuery, bind, parse

        rec = self.rec
        with rec.span("sql.parse", parent=root):
            statement = parse(text)
        with rec.span("sql.bind", parent=root):
            bound = bind(db, statement, text)
        with rec.span("sql.plan", parent=root):
            compiled = CompiledQuery(db, statement, bound)
            compiled.plan()
        with rec.span("sql.run", parent=root) as run:
            compiled.run()
        return run

    def sql_stack(self) -> None:
        rec, values = self.rec, self.values
        wl = SqlMix(self.seed, self.smoke)
        db, grid = wl.db, wl.grid
        tree = db.catalog.index("points_xy").tree
        decompose_box = optional(_decompose_box)
        stream = wl.statements("box")
        ops = list(itertools.islice(stream, self.count(40, 4)))
        elements: List[int] = []
        for i, op in enumerate(ops):
            _, bounds, text = op
            box = as_box(bounds)
            with rec.span("sql.execute", request=i) as root:
                out = execute_sql(db, text)
            run = optional(lambda: self._sql_stages(db, text, root))
            with rec.span("db.range_query", parent=run or root) as facade:
                rows = db.range_query("points", ("x", "y"), box)
            with rec.span("storage.range_query", parent=facade) as scan:
                found = tree.range_query(box)
            if decompose_box is not None:
                with rec.span("core.decompose", parent=scan):
                    elements.append(len(decompose_box(grid, box)))
            self.verify(
                wl.check_one(op, out)
                and sorted(r[:3] for r in rows.rows) == sorted(map(tuple, out.rows))
                and set(found.matches) == {tuple(r[1:3]) for r in out.rows},
                f"sql/db/tree disagree on {bounds!r}",
            )
        for stage in ("execute", "parse", "bind", "plan", "run"):
            values[f"sql.{stage}_ms"] = rec.median_ms(f"sql.{stage}")
        values["db.range_query_ms"] = rec.median_ms("db.range_query")
        values["db.rejoin_ms"] = rec.median_ms("db.range_query", self_time=True)
        values["storage.range_ms"] = rec.median_ms("storage.range_query")
        values["core.decompose_cold_ms"] = rec.median_ms("core.decompose")
        values["core.elements_per_box"] = (
            statistics.mean(elements) if elements else None
        )
        values["db.sql_over_tree"] = ratio(
            values["sql.execute_ms"], values["storage.range_ms"]
        )
        values["db.create_index_s"] = wl.create_index_s

        def warm_decompose() -> float:
            from repro.core.fastz import decompose_box_cached

            boxes = [as_box(op[1]) for op in ops]
            for box in boxes:
                decompose_box_cached(grid, box)
            return statistics.median(
                timed_ms(lambda: decompose_box_cached(grid, box)) for box in boxes
            )

        values["core.decompose_warm_ms"] = optional(warm_decompose)

        def shuffle() -> float:
            from repro.core.fastz import interleave_many

            points = [r[1:3] for r in wl.rows]
            ms = timed_ms(lambda: interleave_many(points, grid.depth, grid.ndims))
            return ms * 1e3 / len(points)

        values["core.shuffle_us_per_point"] = optional(shuffle)

        def fast_over_scalar() -> float:
            # fresh boxes: the store's decompose cache has seen none of them
            boxes = [
                as_box(op[1]) for op in itertools.islice(stream, self.count(40, 4))
            ]
            scalar = [timed_ms(lambda: tree.range_query(box)) for box in boxes]
            fast = [
                timed_ms(lambda: tree.range_query(box, use_fast=True)) for box in boxes
            ]
            return statistics.median(fast) / statistics.median(scalar)

        values["core.fast_over_scalar"] = optional(fast_over_scalar)

        def stats_build() -> float:
            from repro.db.statistics import ZHistogram

            return statistics.median(
                timed_ms(lambda: ZHistogram.of_tree(tree)) for _ in range(5)
            )

        values["db.stats_build_ms"] = optional(stats_build)

        def rows_examined() -> Optional[float]:
            from repro import obs

            scanned = results = 0
            for op in ops[:10]:
                with obs.trace("ledger") as trace:
                    execute_sql(db, op[2])
                counters = trace.total_counters()
                scanned += counters["records_scanned"]
                results += counters["result_rows"]
            return scanned / results if results else None

        values["db.rows_examined_per_result"] = optional(rows_examined)

        # time should follow result size, not table size: a quarter of
        # the rows under boxes of four times the area
        small = SqlMix(
            self.seed, self.smoke, nrows=len(wl.rows) // 4, box_side=2 * wl.box_side
        )
        small_ms = statistics.median(
            timed_ms(lambda: small.run(op))
            for op in itertools.islice(small.statements("box"), self.count(20, 2))
        )
        values["db.table_scaling"] = ratio(values["sql.execute_ms"], small_ms)

        def knn() -> None:
            centres = [
                op[1]
                for op in itertools.islice(wl.statements("knn"), self.count(20, 2))
            ]
            samples = [
                timed_ms(lambda: db.knn_query("points", ("x", "y"), centre, wl.K))
                for centre in centres
            ]
            values["proximity.knn_cold_ms"] = samples[0]
            values["proximity.knn_ms"] = statistics.median(samples[1:])

        values["proximity.knn_cold_ms"] = values["proximity.knn_ms"] = None
        optional(knn)
        values["proximity.epsjoin_ms"] = optional(
            lambda: statistics.median(
                timed_ms(
                    lambda: db.epsilon_join(
                        "points", ("x", "y"), "probes", ("x", "y"), wl.EPS
                    )
                )
                for _ in range(self.count(3, 1))
            )
        )
        for kind in ("between", "attr", "knn", "xmatch"):
            values[f"sql.{kind}_ms"] = statistics.median(
                timed_ms(lambda: wl.run(op))
                for op in itertools.islice(wl.statements(kind), self.count(10, 2))
            )
        for cls in WORKLOADS.values():
            if issubclass(cls, SqlOps):
                self.overhead(cls, wl, wl.stream(cls.kinds))
        # last: the inserts leave wl.rows behind the table
        rng = stream_rng(self.seed, "layers", "inserts")
        side = grid.side
        values["db.insert_us"] = 1e3 * statistics.median(
            timed_ms(
                lambda: db.insert(
                    "points",
                    (10**9 + i, rng.randrange(side), rng.randrange(side), 0),
                )
            )
            for i in range(self.count(200, 5))
        )

    # -- the paper's page counts -----------------------------------------

    def tree_paper(self) -> None:
        wl = TreeUcd(self.seed, self.smoke)
        specs = query_workload(wl.grid, seed=self.seed)
        for letter in "UCD":
            results = [wl.execute((letter, spec.box)) for spec in specs]
            self.verify(
                all(
                    wl.check((letter, spec.box), result)
                    for spec, result in list(zip(specs, results))[::20]
                ),
                f"tree_ucd {letter} disagrees with the heap scan",
            )
            self.values[f"storage.pages_per_query.{letter}"] = statistics.mean(
                r.pages_accessed for r in results
            )
            self.values[f"storage.efficiency.{letter}"] = ratio(
                float(sum(len(r.matches) for r in results)),
                float(sum(r.records_on_pages for r in results)),
            )

        def bulk_load() -> float:
            tree = ZkdTree(wl.grid, page_capacity=PAGE_CAPACITY, buffer_frames=1024)
            return timed_ms(lambda: tree.bulk_load(wl.points["C"])) / 1e3

        self.values["storage.bulk_load_s"] = optional(bulk_load)
        self.overhead(TreeUcd, wl, wl.stream())

    # -- the write path --------------------------------------------------

    def disk(self) -> None:
        values = self.values
        wl = DiskChurn(self.seed, self.smoke)
        try:
            stream = wl.stream()
            txns = self.count(200, 10)
            before = bytes_written()
            writes_before = getattr(wl.store, "writes", None)
            for i, op in enumerate(itertools.islice(stream, txns)):
                with self.rec.span("storage.churn", request=i):
                    out = wl.execute(op)
                if i % 20 == 0:
                    self.verify(wl.check(op, out), f"disk_churn range {i} is wrong")
            after = bytes_written()
            values["storage.txn_commit_ms"] = median_ms(wl.txn_latencies)
            values["storage.churn_range_ms"] = median_ms(wl.range_latencies)
            values["storage.buffer_hit_rate"] = ratio(
                float(wl.buffer_hits), float(wl.buffer_hits + wl.buffer_misses)
            )
            per_txn = None if before is None else (after - before) / txns
            values["storage.bytes_per_txn"] = per_txn
            # 16 bytes of user data per key: two 8-byte coordinates
            values["storage.write_amp"] = ratio(
                per_txn, 16.0 * (wl.inserted + wl.deleted) / txns
            )
            page_writes = optional(lambda: (wl.store.writes - writes_before) / txns)
            values["storage.page_writes_per_txn"] = page_writes
            # derived: what is not an in-place page image went to the log
            values["storage.wal_bytes_per_txn"] = optional(
                lambda: per_txn - page_writes * wl.store.page_size
            )
            values["storage.file_bytes_per_point"] = os.path.getsize(wl.path) / len(
                wl.live
            )
            self.overhead(DiskChurn, wl, stream)
            values["storage.recover_s"], intact = wl.crash_and_recover()
            self.verify(intact, "recovered tree differs from the committed model")
        finally:
            wl.close()

    # -- cache / shard / concurrency / server ----------------------------

    def serving(self) -> None:
        values = self.values
        wl = ServeMixed(self.seed, self.smoke)
        try:
            self._serve_replay(wl)
            self._serve_probes(wl)
            self.overhead(ServeMixed, wl, wl.stream())
        finally:
            wl.close()
        for name in ("cache.hit_rate", "cache.partial_rate", "cache.invalidations"):
            values.setdefault(name, None)

    def _serve_replay(self, wl: ServeMixed) -> None:
        """A fixed count of the mixed stream, 16 in flight, then /stats."""
        values = self.values
        stream = wl.stream()
        wl.warm_up(stream, self.outcome)
        wl.kind_latencies.clear()
        wl.drive(
            itertools.islice(stream, self.count(300, 30)),
            None,
            stream_rng(self.seed, "layers", "checks"),
            self.outcome,
        )
        by_kind = wl.kind_latencies
        ranges = by_kind.get("hot", []) + by_kind.get("fresh", [])
        reads = ranges + by_kind.get("sql", []) + by_kind.get("point", [])
        writes = by_kind.get("write", [])
        values["server.range_p50_ms"] = median_ms(ranges)
        values["server.sql_p50_ms"] = median_ms(by_kind.get("sql", []))
        values["server.write_p50_ms"] = median_ms(writes)
        values["server.read_p95_ms"] = percentile(reads, 0.95) * 1e3 if reads else None
        values["server.write_p95_ms"] = (
            percentile(writes, 0.95) * 1e3 if writes else None
        )
        stats = wl.loop.run_until_complete(wl.clients[0].stats())
        server = stats["server"]
        values["server.batch_size_mean"] = ratio(
            float(server["server.batched_requests"]), float(server["server.batches"])
        )
        values["server.batch_size_peak"] = server["server.batch_size_peak"]
        values["server.rejected"] = sum(
            v for k, v in server.items() if k.startswith("server.rejected.")
        )
        cache = stats.get("cache")
        if cache:
            lookups = cache["cache.hit"] + cache["cache.miss"] + cache["cache.partial"]
            values["cache.hit_rate"] = ratio(float(cache["cache.hit"]), float(lookups))
            values["cache.partial_rate"] = ratio(
                float(cache["cache.partial"]), float(lookups)
            )
            values["cache.invalidations"] = cache["cache.invalidate"]

    def _serve_probes(self, wl: ServeMixed) -> None:
        values = self.values
        db = wl.db
        rng = stream_rng(self.seed, "layers", "serve")
        cols = ("x", "y")
        # boxes on data: a uniform box on clustered points is mostly empty
        bounds = [
            wl._centred(*rng.choice(wl.rows)[1:]) for _ in range(self.count(20, 2))
        ]
        boxes = [as_box(b) for b in bounds]
        query = lambda box: db.range_query("points", cols, box)  # noqa: E731
        values["cache.miss_ms"] = statistics.median(
            timed_ms(lambda: query(box)) for box in boxes
        )
        values["cache.hit_ms"] = statistics.median(
            timed_ms(lambda: query(box)) for box in boxes
        )
        index = db.catalog.index("points_xy").tree
        found = [index.range_query(box) for box in boxes]
        values["shard.range_ms"] = statistics.median(
            timed_ms(lambda: index.range_query(box)) for box in boxes
        )
        single = ZkdTree(wl.grid, page_capacity=PAGE_CAPACITY)
        single.insert_many(r[1:] for r in wl._visible(max(wl.commits, default=0)))
        values["shard.over_single"] = ratio(
            values["shard.range_ms"],
            statistics.median(timed_ms(lambda: single.range_query(box)) for box in boxes),
        )
        self.verify(
            all(
                sorted(a.matches) == sorted(single.range_query(box).matches)
                for a, box in zip(found, boxes)
            ),
            "sharded index disagrees with a single tree",
        )
        values["shard.shards_hit_per_query"] = optional(
            lambda: statistics.mean(len(r.shards_hit) for r in found)
        )

        def pin() -> float:
            start = time.perf_counter()
            db.session().close()
            return (time.perf_counter() - start) * 1e6

        values["concurrency.pin_us"] = statistics.median(
            pin() for _ in range(self.count(200, 5))
        )
        commits: List[float] = []
        with db.session() as session:
            values["concurrency.session_range_ms"] = statistics.median(
                timed_ms(lambda: session.range_query("points", cols, box))
                for box in boxes
            )
            side = wl.grid.side
            for _ in range(self.count(10, 2)):
                row = (next(wl._next_id), rng.randrange(side), rng.randrange(side))
                session.insert("points", row)
                start = time.perf_counter()
                epoch = session.commit()
                commits.append(time.perf_counter() - start)
                wl.commits[epoch] = row
        values["concurrency.commit_ms"] = median_ms(commits)

        async def pings() -> List[float]:
            samples = []
            for _ in range(self.count(200, 5)):
                start = time.perf_counter()
                await wl.clients[0].ping()
                samples.append(time.perf_counter() - start)
            return samples

        values["server.ping_rtt_ms"] = median_ms(wl.loop.run_until_complete(pings()))
        wl.execute(("fresh", bounds[0]))  # build this epoch's view once
        values["server.wire_range_ms"] = statistics.median(
            timed_ms(lambda: wl.execute(("fresh", b))) for b in bounds
        )
        values["server.wire_over_inproc"] = ratio(
            values["server.wire_range_ms"], values["concurrency.session_range_ms"]
        )


def run_suite(seed: int, smoke: bool, workload: str) -> Dict[str, Any]:
    suite = Suite(seed, smoke)
    suite.sql_stack()
    suite.tree_paper()
    suite.disk()
    suite.serving()
    os.makedirs(OUT_DIR, exist_ok=True)
    suite.rec.write(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl"))
    return {
        "attempted": suite.outcome.attempted,
        "failed": suite.outcome.failed,
        "metrics": {
            name: {"value": suite.values[name], "unit": unit}
            for name, unit, _ in PER_LAYER
        },
    }
