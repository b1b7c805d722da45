"""End-to-end TCP service tests: protocol shapes, query identity,
snapshot semantics per connection, and batched-vs-serial equivalence.

Each test spins up a real :class:`QueryServer` on a loopback socket and
drives it with :class:`QueryClient` — the same stack the serving
benchmark measures — inside ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import random
import threading

import pytest

from repro.core.geometry import Box, Grid
from repro.db.database import SpatialDatabase
from repro.db.schema import Schema
from repro.db.types import INTEGER, OID
from repro.server import (
    QueryClient,
    QueryService,
    ServerError,
    serve,
)
from repro.workloads.datasets import make_dataset

GRID = Grid(ndims=2, depth=7)
NPOINTS = 1500


def _build_db(seed=0):
    db = SpatialDatabase(GRID, page_capacity=16)
    db.create_table(
        "points", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    points = make_dataset("C", GRID, NPOINTS, seed=seed).points
    db.insert_many(
        "points", [(f"p{i}", x, y) for i, (x, y) in enumerate(points)]
    )
    db.create_index("points_xy", "points", ("x", "y"))
    return db


def _boxes(seed, count=10):
    rng = random.Random(seed)
    side = GRID.side
    out = []
    for _ in range(count):
        x0, x1 = sorted(rng.randrange(side) for _ in range(2))
        y0, y1 = sorted(rng.randrange(side) for _ in range(2))
        out.append(((x0, x1), (y0, y1)))
    return out


def test_ping_and_stats_shapes():
    async def run():
        db = _build_db()
        service = QueryService(db)
        server = await serve(service)
        try:
            async with await QueryClient.connect(
                *server.address
            ) as client:
                pong = await client.ping()
                assert pong["pong"] is True
                assert isinstance(pong["epoch"], int)
                await client.range_query(
                    "points", ("x", "y"), [[0, 10], [0, 10]]
                )
                stats = await client.stats()
                assert stats["server"]["server.connections"] >= 1
                assert stats["server"]["server.served"] >= 1
                assert stats["server"]["server.admitted"] >= 1
                assert "snapshots" in stats
                assert "leaks" in stats
        finally:
            await server.close()

    asyncio.run(run())


def test_range_and_point_queries_match_database():
    async def run():
        db = _build_db()
        service = QueryService(db)
        server = await serve(service)
        try:
            async with await QueryClient.connect(
                *server.address
            ) as client:
                for ranges in _boxes(seed=1):
                    got = await client.range_query(
                        "points", ("x", "y"), ranges
                    )
                    want = db.range_query(
                        "points", ("x", "y"), Box(ranges)
                    ).rows
                    assert got == want  # rows AND their order
                # A point query is a degenerate box.
                x, y = db.catalog.relation("points").rows[0][1:3]
                got = await client.point_query(
                    "points", ("x", "y"), (x, y)
                )
                want = db.range_query(
                    "points", ("x", "y"), Box(((x, x), (y, y)))
                ).rows
                assert got == want and got
        finally:
            await server.close()

    asyncio.run(run())


def test_pipelined_batched_equals_serial_dispatch():
    """The acceptance identity, end to end: concurrent pipelined
    queries through a batching service answer byte-identically to the
    same queries through request-at-a-time dispatch."""

    async def gather_rows(batching):
        db = _build_db()
        service = QueryService(db, max_inflight=32, client_quota=32,
                               batching=batching)
        server = await serve(service)
        try:
            async with await QueryClient.connect(
                *server.address
            ) as client:
                boxes = _boxes(seed=2, count=16)
                results = await asyncio.gather(
                    *[
                        client.range_query("points", ("x", "y"), ranges)
                        for ranges in boxes
                    ]
                )
            stats = service.stats_snapshot()["server"]
            return boxes, results, stats
        finally:
            await server.close()

    async def run():
        boxes, batched, batched_stats = await gather_rows(batching=True)
        boxes2, serial, serial_stats = await gather_rows(batching=False)
        assert boxes == boxes2
        assert batched == serial
        # And both equal the database's own answers.
        db = _build_db()
        for ranges, rows in zip(boxes, batched):
            assert rows == db.range_query(
                "points", ("x", "y"), Box(ranges)
            ).rows
        # The batched run actually coalesced; the serial run never did.
        assert batched_stats["server.batch_size_peak"] > 1
        assert serial_stats["server.batch_size_peak"] == 1

    asyncio.run(run())


def test_insert_commit_refresh_snapshot_semantics():
    async def run():
        db = _build_db()
        service = QueryService(db)
        server = await serve(service)
        try:
            reader = await QueryClient.connect(*server.address)
            writer = await QueryClient.connect(*server.address)
            probe = [[3, 3], [3, 3]]
            before = await reader.range_query("points", ("x", "y"), probe)
            ack = await writer.insert("points", ["fresh", 3, 3])
            assert ack["buffered"] == 1
            # Uncommitted: invisible to everyone, the writer included.
            assert await reader.range_query(
                "points", ("x", "y"), probe
            ) == before
            epoch = await writer.commit()
            assert isinstance(epoch, int)
            # Committed: the reader's pinned snapshot still predates it.
            assert await reader.range_query(
                "points", ("x", "y"), probe
            ) == before
            new_epoch = await reader.refresh()
            assert new_epoch >= epoch
            after = await reader.range_query("points", ("x", "y"), probe)
            assert len(after) == len(before) + 1
            assert ("fresh", 3, 3) in after
            await reader.close()
            await writer.close()
        finally:
            await server.close()

    asyncio.run(run())


def test_pipelined_refresh_keeps_reads_at_their_snapshot():
    """Reads queued behind a busy batch, then a ``refresh`` on the same
    connection: every read answers ``ok`` with exactly the rows
    committed at the epoch its response names — the one the connection
    was pinned at when the read arrived — and teardown leaves no pin,
    capture or page version behind."""

    async def run():
        db = _build_db()
        service = QueryService(db)
        real_execute = service._execute_batch
        # Holds each round's first batch on the worker thread until this
        # connection's reads are queued behind it and its refresh has
        # been answered; every later batch finds it open.
        gate = threading.Event()

        def busy_execute(key, boxes):
            assert gate.wait(timeout=30), "gate never opened"
            return real_execute(key, boxes)

        service.batcher._execute = busy_execute
        server = await serve(service)
        boxes = _boxes(seed=4, count=4)
        oracle = {}

        def record():
            rows = db.table("points").rows
            oracle[db.snapshots.current_epoch] = [
                [r for r in rows if Box(ranges).contains_point(r[1:])]
                for ranges in boxes
            ]

        def range_request(ranges):
            return {
                "op": "range",
                "table": "points",
                "cols": ["x", "y"],
                "box": [list(r) for r in ranges],
            }

        stats = service.batcher.stats

        async def until(condition):
            for _ in range(2000):
                if condition():
                    return
                await asyncio.sleep(0.001)
            raise AssertionError("condition never held")

        record()
        try:
            async with await QueryClient.connect(
                *server.address
            ) as client, await QueryClient.connect(
                *server.address
            ) as writer:
                pinned = (await client.ping())["epoch"]
                for round_ in range(4):
                    # One new row inside every box, so each epoch's
                    # answers differ from the last.
                    for i, ((x0, _), (y0, _)) in enumerate(boxes):
                        await writer.insert(
                            "points", [f"w{round_}.{i}", x0, y0]
                        )
                    await writer.commit()
                    record()
                    # Another connection's batch keeps the worker busy
                    # while this connection's reads queue behind it.
                    gate.clear()
                    batches = stats["server.batches"]
                    busy = asyncio.ensure_future(
                        writer.request(range_request(boxes[0]))
                    )
                    await until(lambda: stats["server.batches"] > batches)
                    reads = [
                        asyncio.ensure_future(
                            client.request(range_request(ranges), retry=False)
                        )
                        for ranges in boxes
                    ]
                    await until(
                        lambda: service.batcher.counters()[
                            "server.batch_queue_depth"
                        ]
                        == len(boxes)
                    )
                    refreshed = await client.refresh()
                    gate.set()
                    responses = await asyncio.gather(*reads)
                    await busy
                    assert refreshed == db.snapshots.current_epoch
                    for i, response in enumerate(responses):
                        assert response["ok"], response
                        assert response["epoch"] == pinned
                        rows = [tuple(row) for row in response["rows"]]
                        assert rows == oracle[pinned][i]
                    pinned = refreshed
        finally:
            gate.set()
            await server.close()
        assert all(v == 0 for v in db.snapshots.leak_stats().values())

    asyncio.run(run())


def test_protocol_and_lookup_errors_are_typed():
    async def run():
        db = _build_db()
        service = QueryService(db)
        server = await serve(service)
        try:
            async with await QueryClient.connect(
                *server.address
            ) as client:
                with pytest.raises(ServerError) as excinfo:
                    await client.request({"op": "explode"})
                # An unknown op never named a meaningful operation:
                # that is an envelope-level (protocol) error, not a
                # bad operand.
                assert excinfo.value.error_type == "protocol_error"
                with pytest.raises(ServerError) as excinfo:
                    await client.range_query(
                        "nope", ("x", "y"), [[0, 1], [0, 1]]
                    )
                assert excinfo.value.error_type == "not_found"
                with pytest.raises(ServerError) as excinfo:
                    await client.request(
                        {
                            "op": "range",
                            "table": "points",
                            "cols": ["x", "y"],
                            "box": [[0, 1]],  # wrong dimensionality
                        }
                    )
                assert excinfo.value.error_type == "bad_request"
                # The connection survives every error answer.
                assert (await client.ping())["pong"] is True
                errors = (await client.stats())["server"][
                    "server.errors"
                ]
                assert errors >= 3
        finally:
            await server.close()

    asyncio.run(run())


def test_unindexed_table_falls_back_to_row_scan():
    async def run():
        db = _build_db()
        db.create_table(
            "bare", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
        )
        rng = random.Random(9)
        db.insert_many(
            "bare",
            [
                (f"b{i}", rng.randrange(GRID.side), rng.randrange(GRID.side))
                for i in range(200)
            ],
        )
        service = QueryService(db)
        server = await serve(service)
        try:
            async with await QueryClient.connect(
                *server.address
            ) as client:
                for ranges in _boxes(seed=3, count=5):
                    got = await client.range_query(
                        "bare", ("x", "y"), ranges
                    )
                    want = db.range_query(
                        "bare", ("x", "y"), Box(ranges)
                    ).rows
                    assert got == want
        finally:
            await server.close()

    asyncio.run(run())


def test_trace_section_renders_server_counters():
    async def run():
        db = _build_db()
        service = QueryService(db)
        server = await serve(service)
        try:
            async with await QueryClient.connect(
                *server.address
            ) as client:
                await client.range_query(
                    "points", ("x", "y"), [[0, 10], [0, 10]]
                )
        finally:
            await server.close()
        from repro.obs.explain import format_trace

        rendered = format_trace(service.trace_section())
        assert "SERVER" in rendered
        assert "server.served" in rendered
        assert "client[" in rendered

    asyncio.run(run())


def test_sql_op_rows_explain_and_errors():
    async def run():
        db = _build_db()
        service = QueryService(db)
        server = await serve(service)
        query = (
            "SELECT id@, x FROM points "
            "WHERE BOX(0, 40, 0, 40) CONTAINS POINT(x, y) "
            "AND x > 5 ORDER BY id@ LIMIT 8"
        )
        try:
            async with await QueryClient.connect(
                *server.address
            ) as client:
                response = await client.sql(query)
                assert response["mode"] == "rows"
                assert response["columns"] == ["id@", "x"]
                assert response["count"] == len(response["rows"]) <= 8

                explain = await client.sql("EXPLAIN " + query)
                assert explain["mode"] == "explain"
                assert "filters" in explain["text"]

                analyze = await client.sql("EXPLAIN ANALYZE " + query)
                assert analyze["mode"] == "analyze"
                assert "plan.multi" in analyze["text"]

                with pytest.raises(ServerError) as info:
                    await client.sql("SELECT bogus FROM points")
                assert info.value.error_type == "bind_error"
                assert "^" in str(info.value)

                with pytest.raises(ServerError) as info:
                    await client.sql("SELEC nope")
                assert info.value.error_type == "parse_error"

                stats = await client.stats()
                assert stats["planner"]["planner.plans"] >= 2
        finally:
            await server.close()

    asyncio.run(run())


def test_sql_rows_match_range_op_and_snapshot_pins():
    async def run():
        db = _build_db()
        service = QueryService(db)
        server = await serve(service)
        query = (
            "SELECT id@, x, y FROM points "
            "WHERE BOX(10, 60, 10, 60) CONTAINS POINT(x, y)"
        )
        try:
            async with await QueryClient.connect(
                *server.address
            ) as client:
                raw = await client.range_query(
                    "points", ("x", "y"), [[10, 60], [10, 60]]
                )
                response = await client.sql(query)
                assert sorted(
                    tuple(row) for row in response["rows"]
                ) == sorted(raw)

                # The SQL op reads the connection's pinned snapshot:
                # a commit on another connection must stay invisible.
                before = response["count"]
                async with await QueryClient.connect(
                    *server.address
                ) as writer:
                    await writer.insert("points", ["w1", 20, 20])
                    await writer.commit()
                after = await client.sql(query)
                assert after["count"] == before
                await client.refresh()
                refreshed = await client.sql(query)
                assert refreshed["count"] == before + 1
        finally:
            await server.close()

    asyncio.run(run())
