"""The ledger's workloads.

Every workload is a class whose constructor *is* the set-up (data
generation, load, index build, server start), whose ``stream()`` draws
operations lazily from the seed (a faster build sees new inputs, never
a replay), whose ``execute`` is the timed call into the program and
whose ``check`` compares an output with an oracle that shares no code
with the layer under test.  Timed paths use only the long-lived public
surface: ``execute_sql``, ``SpatialDatabase`` DDL/DML/``range_query``,
``ZkdTree`` ctor/``insert_many``/``transaction``/``range_query``,
``FilePageStore`` and ``QueryService``/``serve``/``QueryClient``.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import random
import shutil
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.baselines.linearscan import HeapFile
from repro.core.geometry import Box, Grid
from repro.db import INTEGER, OID, Schema, SpatialDatabase
from repro.server import QueryClient, QueryService, serve
from repro.sql import execute_sql
from repro.storage import ZkdTree
from repro.storage.diskstore import FilePageStore
from repro.workloads.datasets import make_dataset
from repro.workloads.queries import query_workload

from harness import CHECK_RATE, SLICES, Timed, closed_loop, stream_rng

DEPTH = 10
PAGE_CAPACITY = 20
#: Scratch files live inside the checkout (the benchmark may write
#: nowhere else); the directory is listed in the root .gitignore.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

Row = Tuple[Any, ...]


def square(rng: random.Random, grid_side: int, side: int) -> Tuple[int, int, int, int]:
    """(xlo, xhi, ylo, yhi) of a side x side box at a uniform location."""
    x = rng.randrange(grid_side - side + 1)
    y = rng.randrange(grid_side - side + 1)
    return x, x + side - 1, y, y + side - 1


def as_box(bounds: Tuple[int, int, int, int]) -> Box:
    xlo, xhi, ylo, yhi = bounds
    return Box(((xlo, xhi), (ylo, yhi)))


def inside(bounds: Tuple[int, int, int, int], x: int, y: int) -> bool:
    xlo, xhi, ylo, yhi = bounds
    return xlo <= x <= xhi and ylo <= y <= yhi


class Workload:
    """Set-up in ``__init__``; a closed loop of ``execute`` calls."""

    name = ""
    why = ""
    #: set-ups per run; ``setup_s`` is their median
    setups = 5
    #: untimed operations before the timed phase, every one checked
    warmup_ops = 10
    #: operations per side of the traced-vs-untraced comparison, and
    #: how many consecutive ones make one full cycle of the mix
    trace_ops = 20
    trace_group = 1

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.grid = Grid(ndims=2, depth=DEPTH)

    def stream(self) -> Iterator[Any]:
        raise NotImplementedError

    def execute(self, op: Any) -> Any:
        raise NotImplementedError

    def check(self, op: Any, out: Any) -> bool:
        raise NotImplementedError

    def warm_up(self, stream: Iterator[Any], timed: Timed) -> None:
        for op in itertools.islice(stream, self.warmup_ops):
            timed.attempted += 1
            if not self.check(op, self.execute(op)):
                timed.fail(f"wrong output in warm-up for {op!r}")

    def measure(self, seconds: float, check_rng: random.Random) -> Timed:
        stream = self.stream()
        warm = Timed()
        self.warm_up(stream, warm)
        for samples in self.extras().values():
            samples.clear()
        timed = closed_loop(stream, self.execute, self.check, seconds, check_rng)
        timed.attempted += warm.attempted
        timed.failed += warm.failed
        return timed

    def finish(self, timed: Timed) -> None:
        """End-of-run output checks that need a quiescent system."""

    def extras(self) -> Dict[str, List[float]]:
        """Per-class latencies (seconds) of a mixed operation, reported
        beside the end-to-end metrics but not gated."""
        return {}

    def close(self) -> None:
        """Release what the constructor opened."""


# ----------------------------------------------------------------------
# tree_ucd
# ----------------------------------------------------------------------


class TreeUcd(Workload):
    name = "tree_ucd"
    why = (
        "the paper's Section 5.3.2 experiment straight into ZkdTree.range_query:"
        " core+storage do all the work, sql/db/server none"
    )
    setups = 9
    warmup_ops = 84
    trace_ops = 168
    trace_group = 84

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        npoints = 500 if smoke else 5000
        self.points: Dict[str, Tuple[Tuple[int, ...], ...]] = {}
        self.trees: Dict[str, ZkdTree] = {}
        self._heaps: Dict[str, HeapFile] = {}
        for letter in "UCD":
            data = make_dataset(letter, self.grid, npoints, seed=seed)
            # frames >= pages: this is the workload that fits the buffer
            tree = ZkdTree(
                self.grid, page_capacity=PAGE_CAPACITY, buffer_frames=1024
            )
            tree.insert_many(data.points)
            self.points[letter] = data.points
            self.trees[letter] = tree

    def stream(self) -> Iterator[Tuple[str, Box]]:
        """The paper's shapes x volumes, each at one fresh location per
        round, against U, C and D in turn."""
        rng = stream_rng(self.seed, self.name, "ops")
        while True:
            specs = query_workload(
                self.grid, locations=1, seed=rng.getrandbits(32)
            )
            for spec in specs:
                for letter in "UCD":
                    yield letter, spec.box

    def execute(self, op: Tuple[str, Box]) -> Any:
        letter, box = op
        return self.trees[letter].range_query(box)

    def check(self, op: Tuple[str, Box], out: Any) -> bool:
        letter, box = op
        heap = self._heaps.get(letter)
        if heap is None:
            heap = self._heaps[letter] = HeapFile(self.grid, PAGE_CAPACITY)
            heap.insert_many(self.points[letter])
        return sorted(out.matches) == sorted(heap.range_query(box).matches)


# ----------------------------------------------------------------------
# sql_mix, sql_attr
# ----------------------------------------------------------------------

Statement = Tuple[str, Tuple[int, ...], str]


class SqlOps(Workload):
    """In-process ``execute_sql`` on ``points(id@, x, y, v)`` (uniform,
    indexed on (x, y)) with a ``probes`` partner table: 80% jittered
    copies of catalogue points, 20% random.  One operation is one round:
    one statement of each kind in ``kinds``, so the timed mix is exact
    and a kind's share of the round is its share of the time."""

    kinds: Tuple[str, ...] = ()
    NROWS = 50_000
    BOX_SIDE = 100
    WINDOW_SIDE = 256
    EPS = 3
    K = 10
    warmup_ops = 3

    def __init__(
        self,
        seed: int,
        smoke: bool = False,
        nrows: Optional[int] = None,
        box_side: Optional[int] = None,
    ) -> None:
        super().__init__(seed, smoke)
        nrows = nrows or (2_000 if smoke else self.NROWS)
        nprobes = max(10, nrows // 10)
        self.box_side = box_side or self.BOX_SIDE
        side = self.grid.side
        rng = stream_rng(seed, "sql", "rows")
        self.rows: List[Row] = [
            (i, rng.randrange(side), rng.randrange(side), rng.randrange(100_000))
            for i in range(nrows)
        ]
        self.probes: List[Row] = []
        for j in range(nprobes):
            if rng.random() < 0.8:
                _, x, y, _ = self.rows[rng.randrange(nrows)]
                x = min(side - 1, max(0, x + rng.randint(-2, 2)))
                y = min(side - 1, max(0, y + rng.randint(-2, 2)))
            else:
                x, y = rng.randrange(side), rng.randrange(side)
            self.probes.append((j, x, y))
        self.db = SpatialDatabase(self.grid, page_capacity=PAGE_CAPACITY)
        self.db.create_table(
            "points",
            Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER), ("v", INTEGER)),
        )
        self.db.insert_many("points", self.rows)
        started = time.perf_counter()
        self.db.create_index("points_xy", "points", ("x", "y"))
        self.create_index_s = time.perf_counter() - started
        self.db.create_table(
            "probes", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
        )
        self.db.insert_many("probes", self.probes)
        self.db.create_index("probes_xy", "probes", ("x", "y"))
        self.kind_latencies: Dict[str, List[float]] = {}
        self._cells: Optional[Dict[Tuple[int, int], List[Row]]] = None

    def text(self, kind: str, p: Tuple[int, ...]) -> str:
        if kind == "box":
            return (
                "SELECT id@, x, y FROM points "
                f"WHERE BOX({p[0]}, {p[1]}, {p[2]}, {p[3]}) CONTAINS POINT(x, y)"
            )
        if kind == "between":
            return (
                "SELECT id@, x, y FROM points "
                f"WHERE x BETWEEN {p[0]} AND {p[1]} AND y BETWEEN {p[2]} AND {p[3]}"
            )
        if kind == "attr":
            return f"SELECT id@, v FROM points WHERE v BETWEEN {p[0]} AND {p[1]}"
        if kind == "knn":
            return (
                f"SELECT id@, x, y FROM points NEAREST {self.K} "
                f"TO POINT({p[0]}, {p[1]}) BY POINT(x, y)"
            )
        if kind == "xmatch":
            return (
                "SELECT * FROM points JOIN probes "
                "ON POINT(points.x, points.y) "
                f"WITHIN {self.EPS} OF POINT(probes.x, probes.y) "
                f"WHERE BOX({p[0]}, {p[1]}, {p[2]}, {p[3]}) "
                "CONTAINS POINT(probes.x, probes.y)"
            )
        raise ValueError(f"unknown sql kind {kind!r}")

    def statements(self, kind: str) -> Iterator[Statement]:
        """Fresh statements of one kind; ``box`` and ``between`` draw
        the same boxes for one seed."""
        side = self.grid.side
        tag = "box" if kind == "between" else kind
        rng = stream_rng(self.seed, "sql", tag, "ops")
        while True:
            if kind in ("box", "between"):
                params: Tuple[int, ...] = square(rng, side, self.box_side)
            elif kind == "attr":
                low = rng.randrange(100_000 - 99)
                params = (low, low + 99)
            elif kind == "knn":
                params = (rng.randrange(side), rng.randrange(side))
            else:
                params = square(rng, side, min(side, self.WINDOW_SIDE))
            yield kind, params, self.text(kind, params)

    def stream(
        self, kinds: Optional[Tuple[str, ...]] = None
    ) -> Iterator[Tuple[Statement, ...]]:
        return zip(*[self.statements(kind) for kind in kinds or self.kinds])

    def run(self, statement: Statement) -> Any:
        return execute_sql(self.db, statement[2])

    def execute(self, op: Tuple[Statement, ...]) -> List[Any]:
        outs = []
        for statement in op:
            start = time.perf_counter()
            outs.append(self.run(statement))
            self.kind_latencies.setdefault(statement[0], []).append(
                time.perf_counter() - start
            )
        return outs

    def check(self, op: Tuple[Statement, ...], outs: List[Any]) -> bool:
        return all(self.check_one(s, out) for s, out in zip(op, outs))

    def check_one(self, statement: Statement, out: Any) -> bool:
        kind, p, _ = statement
        if kind in ("box", "between"):
            want = [r[:3] for r in self.rows if inside(p, r[1], r[2])]
        elif kind == "attr":
            want = [(r[0], r[3]) for r in self.rows if p[0] <= r[3] <= p[1]]
        elif kind == "knn":
            # documented order: distance, then z code, then row order;
            # only rows as near as the K-th can appear, so rank those
            def distance(r: Row) -> int:
                return (r[1] - p[0]) ** 2 + (r[2] - p[1]) ** 2

            reach = sorted(map(distance, self.rows))[self.K - 1]
            ranked = sorted(
                (r for r in self.rows if distance(r) <= reach),
                key=lambda r: (distance(r), self.grid.zvalue((r[1], r[2])).bits),
            )
            return [tuple(r) for r in out.rows] == [r[:3] for r in ranked[: self.K]]
        else:
            want = self._cross_match(p)
        return sorted(tuple(r) for r in out.rows) == sorted(want)

    def _cross_match(self, window: Tuple[int, ...]) -> List[Row]:
        """Hash-grid epsilon join of the probes inside ``window``."""
        cell = self.EPS + 1
        if self._cells is None:
            self._cells = {}
            for row in self.rows:
                key = (row[1] // cell, row[2] // cell)
                self._cells.setdefault(key, []).append(row)
        want = []
        for probe in self.probes:
            _, px, py = probe
            if not inside(window, px, py):
                continue
            for cx in range(px // cell - 1, px // cell + 2):
                for cy in range(py // cell - 1, py // cell + 2):
                    for row in self._cells.get((cx, cy), ()):
                        if (row[1] - px) ** 2 + (row[2] - py) ** 2 <= self.EPS**2:
                            want.append(row + probe)
        return want

    def extras(self) -> Dict[str, List[float]]:
        return {f"{kind}_p50_ms": v for kind, v in self.kind_latencies.items()}


class SqlMix(SqlOps):
    name = "sql_mix"
    kinds = ("box", "between", "knn", "xmatch")
    why = (
        "one round of the four statements whose plan can use the (x, y) index"
        " - box, the same box as two BETWEENs, 10-NN, windowed eps-join - on 50k"
        " rows: sql+db dominate, the seam repair's target"
    )
    trace_ops = 8


class SqlAttr(SqlOps):
    name = "sql_attr"
    kinds = ("attr",)
    why = (
        "v BETWEEN a AND a+99 with no spatial conjunct bypasses the index:"
        " the control for seam work (prediction: unchanged), the target for"
        " columnar scans"
    )


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------

ServeOp = Tuple[str, Any]
SELECT_BOX = "SELECT id@, x, y FROM points WHERE BOX({}, {}, {}, {}) CONTAINS POINT(x, y)"


class ServeMixed(Workload):
    name = "serve_mixed"
    why = (
        "wire traffic, 16 in flight: hot-pool and fresh ranges, SQL, points and"
        " insert+commit on a sharded cached snapshot db; reads and writers share a run"
    )
    CONNECTIONS = 2
    WINDOW = 8
    NROWS = 50_000
    HOT_POOL = 24
    BOX_SIDE = 40
    #: operations per block of 20; each block is shuffled by the seed,
    #: so the mix is exact over any 20 draws, not binomial over the run
    MIX = (("hot", 10), ("fresh", 5), ("sql", 2), ("point", 1), ("write", 2))
    warmup_ops = 40
    trace_ops = 100
    trace_group = 20

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        nrows = 2_000 if smoke else self.NROWS
        data = make_dataset("C", self.grid, nrows, seed=seed)
        self.rows: List[Row] = [(i, x, y) for i, (x, y) in enumerate(data.points)]
        self.db = SpatialDatabase(
            self.grid, page_capacity=PAGE_CAPACITY, concurrency=True, cache=True
        )
        self.db.create_table(
            "points", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
        )
        self.db.insert_many("points", self.rows)
        try:
            self.db.create_index(
                "points_xy", "points", ("x", "y"), shards=4, executor="serial"
            )
            self.sharded = True
        except TypeError:  # shards= gone: a plain index serves the same rows
            self.db.create_index("points_xy", "points", ("x", "y"))
            self.sharded = False
        #: commit epoch -> the row that commit inserted
        self.commits: Dict[int, Row] = {}
        self._next_id = itertools.count(10 * nrows)
        self.kind_latencies: Dict[str, List[float]] = {}
        self.loop = asyncio.new_event_loop()
        self.service = QueryService(self.db, request_timeout=30.0)
        self.server = self.loop.run_until_complete(serve(self.service))
        self.clients = [
            self.loop.run_until_complete(
                QueryClient.connect(self.server.host, self.server.port)
            )
            for _ in range(self.CONNECTIONS)
        ]

    def close(self) -> None:
        async def shutdown() -> None:
            for client in self.clients:
                await client.close()
            await self.server.close()

        self.loop.run_until_complete(shutdown())
        self.loop.close()

    # -- inputs ----------------------------------------------------------

    def _centred(self, x: int, y: int) -> Tuple[int, int, int, int]:
        limit = self.grid.side - self.BOX_SIDE
        xlo = max(0, min(limit, x - self.BOX_SIDE // 2))
        ylo = max(0, min(limit, y - self.BOX_SIDE // 2))
        return xlo, xlo + self.BOX_SIDE - 1, ylo, ylo + self.BOX_SIDE - 1

    def stream(self) -> Iterator[ServeOp]:
        rng = stream_rng(self.seed, self.name, "ops")
        side = self.grid.side
        hot = [
            self._centred(*rng.choice(self.rows)[1:]) for _ in range(self.HOT_POOL)
        ]
        block = [kind for kind, count in self.MIX for _ in range(count)]
        while True:
            rng.shuffle(block)
            for kind in block:
                if kind == "hot":
                    yield kind, rng.choice(hot)
                elif kind in ("fresh", "sql"):
                    yield kind, square(rng, side, self.BOX_SIDE)
                elif kind == "point":
                    yield kind, rng.choice(self.rows)[1:]
                else:
                    yield kind, (
                        next(self._next_id), rng.randrange(side), rng.randrange(side)
                    )

    # -- one request -----------------------------------------------------

    async def _request(self, client: QueryClient, op: ServeOp) -> Dict[str, Any]:
        """One operation's round trip(s); returns the last response.
        A write is insert + commit + refresh, so the writer reads its
        own row afterwards and its reads move to the new epoch."""
        kind, arg = op
        if kind in ("hot", "fresh"):
            return await client.request(
                {
                    "op": "range",
                    "table": "points",
                    "cols": ["x", "y"],
                    "box": [[arg[0], arg[1]], [arg[2], arg[3]]],
                }
            )
        if kind == "sql":
            return await client.request(
                {"op": "sql", "query": SELECT_BOX.format(*arg)}
            )
        if kind == "point":
            return await client.request(
                {"op": "point", "table": "points", "cols": ["x", "y"], "point": list(arg)}
            )
        await client.request({"op": "insert", "table": "points", "row": list(arg)})
        committed = await client.request({"op": "commit"})
        self.commits[committed["epoch"]] = tuple(arg)
        refreshed = await client.request({"op": "refresh"})
        return dict(refreshed, committed=committed["epoch"])

    def execute(self, op: ServeOp) -> Dict[str, Any]:
        """One operation alone on the first connection (warm-up and the
        traced replay; the timed phase pipelines instead)."""
        return self.loop.run_until_complete(self._request(self.clients[0], op))

    def _visible(self, epoch: int) -> List[Row]:
        return self.rows + [
            row for at, row in sorted(self.commits.items()) if at <= epoch
        ]

    def check(self, op: ServeOp, out: Dict[str, Any]) -> bool:
        kind, arg = op
        if kind == "write":
            return bool(out.get("ok")) and out["epoch"] >= out["committed"]
        if kind == "point":
            arg = (arg[0], arg[0], arg[1], arg[1])
        want = [r for r in self._visible(out["epoch"]) if inside(arg, r[1], r[2])]
        return [tuple(r) for r in out["rows"]] == want

    # -- the pipelined closed loop ---------------------------------------

    async def _connection(
        self,
        client: QueryClient,
        stream: Iterator[ServeOp],
        deadline: Optional[float],
        latencies: List[float],
        sampled: List[Tuple[ServeOp, Dict[str, Any]]],
        timed: Timed,
        check_rng: random.Random,
    ) -> None:
        async def one(op: ServeOp) -> None:
            timed.attempted += 1
            start = time.perf_counter()
            try:
                out = await self._request(client, op)
            except Exception as exc:  # error response, rejection, lost link
                timed.fail(f"{op!r}: {exc!r}")
                return
            finally:
                elapsed = time.perf_counter() - start
                latencies.append(elapsed)
                self.kind_latencies.setdefault(op[0], []).append(elapsed)
            if check_rng.random() < CHECK_RATE:
                sampled.append((op, out))

        pending: set = set()
        while deadline is None or time.perf_counter() < deadline:
            op = next(stream, None)
            if op is None:
                break
            if op[0] == "write":
                # refresh re-pins the connection's snapshot: only legal
                # once its own reads have drained
                if pending:
                    await asyncio.wait(pending)
                    pending = set()
                await one(op)
                continue
            pending.add(asyncio.ensure_future(one(op)))
            if len(pending) >= self.WINDOW:
                _, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
        if pending:
            await asyncio.wait(pending)

    def drive(
        self,
        stream: Iterator[ServeOp],
        seconds: Optional[float],
        check_rng: random.Random,
        timed: Timed,
    ) -> Tuple[List[float], float]:
        """Every connection draws from the one stream, ``WINDOW`` reads
        in flight each, for ``seconds`` or until the stream ends;
        sampled outputs are checked once the wire is quiet.  Returns
        the request latencies and the wall time they shared."""
        latencies: List[float] = []
        sampled: List[Tuple[ServeOp, Dict[str, Any]]] = []
        start = time.perf_counter()
        deadline = None if seconds is None else start + seconds

        async def all_connections() -> None:
            await asyncio.gather(
                *[
                    self._connection(
                        client, stream, deadline, latencies, sampled, timed, check_rng
                    )
                    for client in self.clients
                ]
            )

        self.loop.run_until_complete(all_connections())
        elapsed = time.perf_counter() - start
        for op, out in sampled:
            if not self.check(op, out):
                timed.fail(f"wrong output for {op!r}")
        return latencies, elapsed

    def measure(self, seconds: float, check_rng: random.Random) -> Timed:
        stream = self.stream()
        timed = Timed()
        self.warm_up(stream, timed)
        self.kind_latencies.clear()
        for _ in range(SLICES):
            gc.collect()
            latencies, elapsed = self.drive(stream, seconds / SLICES, check_rng, timed)
            timed.latencies.append(latencies)
            timed.clocks.append(elapsed)
        return timed

    def extras(self) -> Dict[str, List[float]]:
        by_kind = self.kind_latencies
        return {
            "range_p50_ms": by_kind.get("hot", []) + by_kind.get("fresh", []),
            "sql_p50_ms": by_kind.get("sql", []),
            "write_p50_ms": by_kind.get("write", []),
        }

    def finish(self, timed: Timed) -> None:
        """Quiescent cross-check: wire range = wire SQL = db = tree =
        brute force on a few hot boxes, after every connection has
        refreshed to the last commit."""
        for client in self.clients:
            self.loop.run_until_complete(client.request({"op": "refresh"}))
        index = self.db.catalog.index("points_xy").tree
        for _, bounds in itertools.islice(
            (op for op in self.stream() if op[0] == "hot"), 3
        ):
            timed.attempted += 1
            wire = self.execute(("fresh", bounds))
            wire_sql = self.execute(("sql", bounds))
            in_db = self.db.range_query("points", ("x", "y"), as_box(bounds))
            in_tree = index.range_query(as_box(bounds))
            want = [r for r in self._visible(wire["epoch"]) if inside(bounds, r[1], r[2])]
            same = (
                [tuple(r) for r in wire["rows"]] == want
                and [tuple(r) for r in wire_sql["rows"]] == want
                and sorted(in_db.rows) == sorted(want)
                and set(in_tree.matches) == {r[1:] for r in want}
            )
            if not same:
                timed.fail(f"wire/sql/db/tree disagree on {bounds!r}")


# ----------------------------------------------------------------------
# disk_churn
# ----------------------------------------------------------------------

ChurnOp = Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...], Box]


class DiskChurn(Workload):
    name = "disk_churn"
    why = (
        "WAL+checksummed file store, 64 buffer frames against ~1000 pages:"
        " transactions of 10 inserts + 2 deletes beside 60x60 range queries"
    )
    NPOINTS = 20_000
    FRAMES = 64
    INSERTS = 10
    DELETES = 2
    BOX_SIDE = 60
    warmup_ops = 20
    trace_ops = 100

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        npoints = 1_000 if smoke else self.NPOINTS
        data = make_dataset("C", self.grid, npoints, seed=seed)
        #: the model: every point a committed transaction left in the tree
        self.live = list(dict.fromkeys(data.points))
        self._live_set = set(self.live)
        os.makedirs(OUT_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="churn-", dir=OUT_DIR)
        self.path = os.path.join(self.dir, "tree.db")
        # fsync_on_commit=False: crash-consistent, not power-loss durable;
        # sandbox latencies are the page cache's, not a device's
        self.store = FilePageStore(
            self.path,
            page_capacity=PAGE_CAPACITY,
            wal=True,
            checksums=True,
            fsync_on_commit=False,
        )
        self.tree = ZkdTree(
            self.grid,
            page_capacity=PAGE_CAPACITY,
            buffer_frames=self.FRAMES,
            store=self.store,
        )
        self.tree.insert_many(self.live)
        self.inserted = 0
        self.deleted = 0
        self.txn_latencies: List[float] = []
        self.range_latencies: List[float] = []
        self.buffer_hits = 0
        self.buffer_misses = 0

    def close(self) -> None:
        self.store.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def stream(self) -> Iterator[ChurnOp]:
        """Draws against the model, which assumes every drawn operation
        is executed, in order."""
        rng = stream_rng(self.seed, self.name, "ops")
        side = self.grid.side
        while True:
            inserts = []
            while len(inserts) < self.INSERTS:
                point = (rng.randrange(side), rng.randrange(side))
                if point not in self._live_set:
                    self._live_set.add(point)
                    self.live.append(point)
                    inserts.append(point)
            deletes = []
            for _ in range(self.DELETES):
                at = rng.randrange(len(self.live))
                self.live[at], self.live[-1] = self.live[-1], self.live[at]
                point = self.live.pop()
                self._live_set.discard(point)
                deletes.append(point)
            box = as_box(square(rng, side, self.BOX_SIDE))
            yield tuple(inserts), tuple(deletes), box

    def execute(self, op: ChurnOp) -> Any:
        inserts, deletes, box = op
        start = time.perf_counter()
        with self.tree.transaction():
            for point in inserts:
                self.tree.insert(point)
            for point in deletes:
                self.tree.delete(point)
        committed = time.perf_counter()
        result = self.tree.range_query(box)
        self.txn_latencies.append(committed - start)
        self.range_latencies.append(time.perf_counter() - committed)
        self.inserted += len(inserts)
        self.deleted += len(deletes)
        stats = getattr(result, "buffer_stats", None) or {}
        self.buffer_hits += int(stats.get("hits", 0))
        self.buffer_misses += int(stats.get("misses", 0))
        return result

    def check(self, op: ChurnOp, out: Any) -> bool:
        box = op[2]
        return sorted(out.matches) == sorted(
            p for p in self.live if box.contains_point(p)
        )

    def crash_and_recover(self) -> Tuple[float, bool]:
        """kill -9 the store, reopen the path, read everything back:
        (recovery seconds, every committed point and no deleted one)."""
        self.store.simulate_crash()
        start = time.perf_counter()
        self.store = FilePageStore(self.path)
        self.tree = ZkdTree.open(self.grid, self.store, buffer_frames=self.FRAMES)
        elapsed = time.perf_counter() - start
        found = self.tree.range_query(self.grid.whole_space()).matches
        return elapsed, sorted(found) == sorted(self.live)

    def extras(self) -> Dict[str, List[float]]:
        return {
            "txn_p50_ms": self.txn_latencies,
            "range_p50_ms": self.range_latencies,
        }

    def finish(self, timed: Timed) -> None:
        timed.attempted += 1
        _, intact = self.crash_and_recover()
        if not intact:
            timed.fail("recovered tree differs from the committed model")


WORKLOADS = {
    cls.name: cls
    for cls in (
        TreeUcd,
        SqlMix,
        SqlAttr,
        ServeMixed,
        DiskChurn,
    )
}
