"""Deadline propagation: saturating budgets, cooperative scan aborts,
admission shedding, and the no-peer-poisoning batch invariant.

The unit half exercises :mod:`repro.core.deadline` on fake clocks; the
service half drives ``deadline_ms`` end to end through admission, the
batcher and the scan path, asserting that an expired request frees
its slot, answers a typed ``deadline`` rejection, and never fails the
patient members of its batch.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.deadline import (
    MAX_BUDGET,
    Deadline,
    DeadlineExceeded,
    ResiliencePolicy,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.core.geometry import Box, Grid
from repro.db.database import SpatialDatabase
from repro.db.schema import Schema
from repro.db.types import INTEGER, OID
from repro.server import (
    AdmissionController,
    DeadlineExpired,
    QueryService,
)

GRID = Grid(ndims=2, depth=6)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def _build_db(npoints=400):
    from repro.workloads.datasets import make_dataset

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
# Deadline arithmetic
# ----------------------------------------------------------------------


def test_deadline_basic_lifecycle_on_fake_clock():
    clock = FakeClock()
    d = Deadline(1.0, clock=clock)
    assert d.remaining() == 1.0
    assert not d.expired()
    clock.now = 0.75
    assert d.remaining() == pytest.approx(0.25)
    clock.now = 1.0
    assert d.expired()
    assert d.remaining() == 0.0
    with pytest.raises(DeadlineExceeded) as excinfo:
        d.check("unit.site")
    assert excinfo.value.site == "unit.site"
    clock.now = 99.0
    assert d.remaining() == 0.0  # floors, never negative


def test_deadline_saturates_hostile_budgets():
    clock = FakeClock()
    for budget in (-5.0, 0.0, float("nan"), -float("inf")):
        d = Deadline(budget, clock=clock)
        assert d.budget == 0.0
        assert d.expired()
    d = Deadline(float("inf"), clock=clock)
    assert d.budget == MAX_BUDGET
    assert not d.expired()
    assert d.remaining() == MAX_BUDGET


def test_deadline_scope_nests_and_restores():
    assert current_deadline() is None
    check_deadline("unarmed")  # no-op, never raises
    clock = FakeClock()
    outer = Deadline(10.0, clock=clock)
    inner = Deadline(1.0, clock=clock)
    with deadline_scope(outer):
        assert current_deadline() is outer
        with deadline_scope(inner):
            assert current_deadline() is inner
            with deadline_scope(None):
                assert current_deadline() is None
                check_deadline("disarmed inside scope")
            assert current_deadline() is inner
        assert current_deadline() is outer
        clock.now = 11.0
        with pytest.raises(DeadlineExceeded):
            check_deadline("outer expired")
    assert current_deadline() is None


def test_scan_intervals_aborts_cooperatively():
    """An expired scope stops the interval scan instead of finishing
    the full pass (and an unarmed scan is unaffected)."""
    from repro.core.rangesearch import (
        SortedPointCursor,
        build_point_sequence,
        scan_intervals,
    )

    records = build_point_sequence(
        GRID, [(x, y) for x in range(40) for y in range(40)]
    )
    intervals = [(0, records[-1].z)]
    with deadline_scope(Deadline(0.0, clock=FakeClock(0.0))):
        with pytest.raises(DeadlineExceeded) as excinfo:
            scan_intervals(SortedPointCursor(records), intervals)
    assert excinfo.value.site == "scan_intervals"
    out = scan_intervals(SortedPointCursor(records), intervals)
    assert sum(len(m) for m in out) == len(records)


# ----------------------------------------------------------------------
# Admission under a budget
# ----------------------------------------------------------------------


def test_admission_rejects_pre_expired_deadline():
    async def run():
        ctl = AdmissionController(max_inflight=4)
        clock = FakeClock()
        dead = Deadline(0.0, clock=clock)
        with pytest.raises(DeadlineExpired) as excinfo:
            await ctl.acquire("c", dead)
        assert excinfo.value.reason == "deadline"
        assert ctl.inflight == 0
        assert ctl.held_by("c") == 0
        assert ctl.stats["server.rejected.deadline"] == 1

    asyncio.run(run())


def test_admission_queue_wait_bounded_by_deadline():
    """Saturated server + tight client budget: the queued request is
    cut loose when *its* budget (shorter than the policy timeout)
    expires, with the ``deadline`` reason — and leaves no ghost
    entry."""

    async def run():
        ctl = AdmissionController(
            max_inflight=1,
            queue_limit=4,
            policy=ResiliencePolicy(
                max_retries=0, backoff_base=0.01,
                backoff_factor=2.0, timeout=30.0,
            ),
        )
        await ctl.acquire("holder")
        t0 = time.perf_counter()
        with pytest.raises(DeadlineExpired):
            await ctl.acquire("eager", Deadline(0.05))
        assert time.perf_counter() - t0 < 5.0  # not the policy's 30s
        assert ctl.queue_depth == 0
        assert ctl.held_by("eager") == 0
        ctl.release("holder")
        assert ctl.inflight == 0

    asyncio.run(run())


# ----------------------------------------------------------------------
# End to end through the service
# ----------------------------------------------------------------------


def test_deadline_ms_rejection_frees_slot_and_counts():
    async def run():
        db = _build_db()
        service = QueryService(db, request_timeout=5.0)
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
                "box": [[0, 30], [0, 30]],
                "deadline_ms": 40,
                "id": 7,
            }
            response = await service.handle_request(client, request)
            assert response.get("ok") is False
            assert response["rejected"]["reason"] == "deadline"
            assert response["id"] == 7
            assert service.admission.inflight == 0
            assert service.stats["server.deadline.armed"] == 1
            assert service.stats["server.deadline.expired"] == 1
            # An invalid budget is a bad operand, not a deadline event.
            bad = await service.handle_request(
                client, dict(request, deadline_ms=-3, id=8)
            )
            assert bad["error"]["type"] == "bad_request"
            # After the worker drains, a budgeted request that *fits*
            # succeeds and arms the counter without expiring.
            await asyncio.sleep(0.35)
            service.batcher._execute = real_execute
            response = await service.handle_request(
                client, dict(request, deadline_ms=4000, id=9)
            )
            assert response.get("ok") is True
            assert service.stats["server.deadline.armed"] == 2
            assert service.stats["server.deadline.expired"] == 1
        finally:
            service.disconnect(client)
            service.close()

    asyncio.run(run())


def test_expired_member_does_not_poison_batch_peers():
    """Two requests share one batch; the impatient one is rejected with
    ``deadline`` while the patient one gets byte-identical rows."""

    async def run():
        db = _build_db()
        service = QueryService(
            db, max_inflight=8, request_timeout=5.0, batching=True
        )
        real_execute = service._execute_batch

        def slow_execute(key, requests):
            time.sleep(0.25)
            return real_execute(key, requests)

        service.batcher._execute = slow_execute
        impatient = service.connect()
        patient = service.connect()
        try:
            box = [[0, 30], [0, 30]]
            base = {
                "op": "range",
                "table": "points",
                "cols": ["x", "y"],
                "box": box,
            }
            results = await asyncio.gather(
                service.handle_request(
                    impatient, dict(base, deadline_ms=50, id=1)
                ),
                service.handle_request(patient, dict(base, id=2)),
            )
            rejected, served = results
            assert rejected["rejected"]["reason"] == "deadline"
            assert served.get("ok") is True
            expected = db.range_query(
                "points", ("x", "y"), Box(((0, 30), (0, 30)))
            ).rows
            assert [tuple(r) for r in served["rows"]] == expected
            assert service.admission.inflight == 0
        finally:
            service.disconnect(impatient)
            service.disconnect(patient)
            service.close()
            db.snapshots.reclaim()
            leaks = db.snapshots.leak_stats()
            assert all(v == 0 for v in leaks.values()), leaks

    asyncio.run(run())
