"""Admission control under load: typed rejections, slot accounting,
and the no-residue teardown guarantee.

The asyncio controller is tested directly (quota, backpressure,
admission timeout, slot transfer) and through the service/TCP stack
(slow-query timeout frees the slot; a killed socket releases the
snapshot pin with zero COW residue).  Everything runs on plain
``asyncio.run`` — no async test plugin required.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.geometry import Box, Grid
from repro.db.database import SpatialDatabase
from repro.db.schema import Schema
from repro.db.types import INTEGER, OID
from repro.server import (
    AdmissionController,
    AdmissionTimeout,
    Overloaded,
    QueryClient,
    QueryService,
    QuotaExceeded,
    serve,
)
from repro.shard.scatter import ResiliencePolicy
from repro.workloads.datasets import make_dataset

GRID = Grid(ndims=2, depth=6)

FAST_POLICY = ResiliencePolicy(
    max_retries=2, backoff_base=0.01, backoff_factor=2.0, timeout=0.05
)


def _build_db(npoints=600):
    db = SpatialDatabase(GRID, page_capacity=16)
    db.create_table(
        "points", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    points = make_dataset("C", GRID, npoints, seed=0).points
    db.insert_many(
        "points", [(f"p{i}", x, y) for i, (x, y) in enumerate(points)]
    )
    db.create_index("points_xy", "points", ("x", "y"))
    return db


# ----------------------------------------------------------------------
# The controller itself
# ----------------------------------------------------------------------


def test_quota_exhaustion_is_a_typed_rejection():
    async def run():
        ctl = AdmissionController(
            max_inflight=8, client_quota=2, queue_limit=8
        )
        await ctl.acquire("greedy")
        await ctl.acquire("greedy")
        with pytest.raises(QuotaExceeded) as excinfo:
            await ctl.acquire("greedy")
        assert excinfo.value.reason == "quota"
        assert excinfo.value.retry_after >= 0.0
        # The quota is per client: others are unaffected.
        await ctl.acquire("polite")
        ctl.release("polite")
        ctl.release("greedy")
        ctl.release("greedy")
        assert ctl.inflight == 0
        assert ctl.held_by("greedy") == 0
        assert ctl.stats["server.rejected.quota"] == 1

    asyncio.run(run())


def test_bounded_queue_sheds_burst_overflow():
    async def run():
        ctl = AdmissionController(
            max_inflight=2,
            client_quota=10,
            queue_limit=2,
            policy=ResiliencePolicy(
                max_retries=0, backoff_base=0.01,
                backoff_factor=2.0, timeout=5.0,
            ),
        )
        await ctl.acquire("a")
        await ctl.acquire("b")
        queued = [
            asyncio.ensure_future(ctl.acquire(name))
            for name in ("c", "d")
        ]
        await asyncio.sleep(0)  # let both park in the wait queue
        assert ctl.queue_depth == 2
        # The burst beyond the queue bound is shed, not buffered.
        with pytest.raises(Overloaded) as excinfo:
            await ctl.acquire("e")
        assert excinfo.value.reason == "overload"
        assert ctl.held_by("e") == 0
        # Releases hand slots straight to the waiters.
        ctl.release("a")
        ctl.release("b")
        await asyncio.gather(*queued)
        assert ctl.inflight == 2
        assert ctl.queue_depth == 0
        ctl.release("c")
        ctl.release("d")
        assert ctl.inflight == 0
        assert ctl.stats["server.rejected.overload"] == 1
        assert ctl.stats["server.queue_peak"] == 2

    asyncio.run(run())


def test_admission_timeout_when_saturated():
    async def run():
        ctl = AdmissionController(
            max_inflight=1, client_quota=4, queue_limit=4,
            policy=FAST_POLICY,
        )
        await ctl.acquire("holder")
        t0 = time.perf_counter()
        with pytest.raises(AdmissionTimeout) as excinfo:
            await ctl.acquire("waiter")
        assert excinfo.value.reason == "timeout"
        assert time.perf_counter() - t0 >= 0.04
        # The timed-out waiter charges nothing and leaves no ghost
        # entry in the queue.
        assert ctl.held_by("waiter") == 0
        assert ctl.queue_depth == 0
        ctl.release("holder")
        assert ctl.inflight == 0
        assert ctl.stats["server.rejected.timeout"] == 1

    asyncio.run(run())


def test_slot_context_manager_releases_on_error():
    async def run():
        ctl = AdmissionController(max_inflight=1, client_quota=2)
        with pytest.raises(RuntimeError):
            async with ctl.slot("c"):
                assert ctl.inflight == 1
                raise RuntimeError("handler blew up")
        assert ctl.inflight == 0
        assert ctl.held_by("c") == 0

    asyncio.run(run())


# ----------------------------------------------------------------------
# Through the service: slow queries and dead sockets
# ----------------------------------------------------------------------


def test_slow_query_times_out_and_frees_its_slot():
    async def run():
        db = _build_db()
        service = QueryService(
            db, max_inflight=2, request_timeout=0.05, batching=True
        )
        real_execute = service._execute_batch

        def slow_execute(key, requests):
            time.sleep(0.3)
            return real_execute(key, requests)

        service.batcher._execute = slow_execute
        client = service.connect()
        try:
            request = {
                "op": "range",
                "table": "points",
                "cols": ["x", "y"],
                "box": [[0, 20], [0, 20]],
                "id": 1,
            }
            response = await service.handle_request(client, request)
            assert response.get("ok") is False
            assert response["rejected"]["reason"] == "timeout"
            assert response["id"] == 1
            # The slot came back even though the worker is still
            # grinding: the slow client cannot wedge the server.
            assert service.admission.inflight == 0
            # After the worker drains, the service answers normally.
            await asyncio.sleep(0.4)
            service.batcher._execute = real_execute
            service.request_timeout = 5.0
            response = await service.handle_request(
                client, dict(request, id=2)
            )
            assert response.get("ok") is True
            expected = db.range_query(
                "points", ("x", "y"), Box(((0, 20), (0, 20)))
            ).rows
            assert [tuple(r) for r in response["rows"]] == expected
        finally:
            service.disconnect(client)
            service.close()

    asyncio.run(run())


def test_killed_connection_releases_pin_without_residue():
    async def run():
        db = _build_db()
        service = QueryService(db)
        server = await serve(service)
        try:
            reader = await QueryClient.connect(*server.address)
            writer = await QueryClient.connect(*server.address)
            rows = await reader.range_query(
                "points", ("x", "y"), [[0, 30], [0, 30]]
            )
            assert rows  # the pinned snapshot actually served reads
            assert list(db.snapshots.pinned_epochs)
            # Churn epochs while the reader's pin retains old versions.
            for i in range(3):
                await writer.insert("points", [f"w{i}", 1 + i, 1])
                await writer.commit()
            assert await reader.range_query(
                "points", ("x", "y"), [[0, 30], [0, 30]]
            ) == rows  # still the pinned snapshot
            await writer.close()
            reader.kill()  # no goodbye: simulated client crash
            for _ in range(200):
                if service.stats["server.disconnects"] >= 2:
                    break
                await asyncio.sleep(0.01)
            assert service.stats["server.disconnects"] >= 2
            db.snapshots.reclaim()
            assert not list(db.snapshots.pinned_epochs)
            leaks = db.snapshots.leak_stats()
            assert all(v == 0 for v in leaks.values()), leaks
        finally:
            await server.close()

    asyncio.run(run())


def test_quota_rejection_over_the_wire_then_retry_succeeds():
    async def run():
        db = _build_db()
        service = QueryService(
            db,
            max_inflight=4,
            client_quota=1,
            queue_limit=4,
            request_timeout=5.0,
        )
        real_execute = service._execute_batch

        def slow_execute(key, requests):
            time.sleep(0.2)
            return real_execute(key, requests)

        service.batcher._execute = slow_execute
        server = await serve(service)
        try:
            client = await QueryClient.connect(*server.address)
            box = [[0, 20], [0, 20]]
            first = asyncio.ensure_future(
                client.range_query("points", ("x", "y"), box)
            )
            await asyncio.sleep(0.05)  # first holds the client's slot
            # retry=False surfaces the typed rejection directly.
            from repro.server import ServerRejected

            with pytest.raises(ServerRejected) as excinfo:
                await client.range_query(
                    "points", ("x", "y"), box, retry=False
                )
            assert excinfo.value.reason == "quota"
            # retry=True sleeps out the retry_after hint and succeeds.
            second = await client.range_query("points", ("x", "y"), box)
            assert await first == second
            await client.close()
        finally:
            await server.close()

    asyncio.run(run())
