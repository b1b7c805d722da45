"""Circuit breaking and overload control: the state machine on a fake
clock, honest retry-after math, and the end-to-end path
where a failing dispatch backend trips the breaker, sheds with the
typed ``breaker`` reason, and surfaces in ``/stats``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.geometry import Grid
from repro.db.database import SpatialDatabase
from repro.db.schema import Schema
from repro.db.types import INTEGER, OID
from repro.faults import FaultInjector
from repro.server import QueryService
from repro.server.breaker import (
    BreakerOpen,
    CircuitBreaker,
    HealthWindow,
    OverloadController,
)
from repro.shard.scatter import ResiliencePolicy

GRID = Grid(ndims=2, depth=6)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def _build_db(npoints=300):
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
# HealthWindow
# ----------------------------------------------------------------------


def test_health_window_rolls_and_scores():
    window = HealthWindow(size=4)
    assert window.error_rate == 0.0
    assert window.mean_latency == 0.0
    for latency in (0.1, 0.2, 0.3, 0.4):
        window.record(True, latency)
    assert window.samples == 4
    assert window.mean_latency == pytest.approx(0.25)
    window.record(False, 1.0)  # rolls the 0.1 sample out
    assert window.samples == 4
    assert window.error_rate == pytest.approx(0.25)
    assert window.mean_latency == pytest.approx((0.2 + 0.3 + 0.4 + 1.0) / 4)
    window.reset()
    assert window.samples == 0


# ----------------------------------------------------------------------
# CircuitBreaker state machine
# ----------------------------------------------------------------------


def test_breaker_trips_probes_and_recovers():
    clock = FakeClock()
    breaker = CircuitBreaker(
        "idx",
        min_samples=4,
        failure_threshold=0.5,
        reset_timeout=1.0,
        half_open_probes=2,
        clock=clock,
    )
    assert breaker.state == "closed"
    # Below min_samples nothing trips, however bad the rate.
    breaker.record(False, 0.1)
    breaker.record(False, 0.1)
    assert breaker.state == "closed"
    breaker.record(True, 0.1)
    breaker.record(False, 0.1)  # 3/4 failures >= 0.5 at min_samples
    assert breaker.state == "open"
    assert breaker.counters_["breaker.opened"] == 1
    assert not breaker.allow()  # timer not lapsed
    clock.now = 1.5
    assert breaker.allow()  # flips to half_open, probe 1
    assert breaker.state == "half_open"
    assert breaker.allow()  # probe 2
    assert not breaker.allow()  # probes bounded
    breaker.record(True, 0.05)  # one probe success closes
    assert breaker.state == "closed"
    assert breaker.consecutive_opens == 0
    assert breaker.counters_["breaker.closed"] == 1
    assert breaker.counters_["breaker.probes"] == 2


def test_breaker_reopens_on_probe_failure():
    clock = FakeClock()
    breaker = CircuitBreaker(
        "idx", min_samples=2, reset_timeout=1.0, clock=clock
    )
    breaker.record(False, 0.1)
    breaker.record(False, 0.1)
    assert breaker.state == "open"
    clock.now = 1.1
    assert breaker.allow()
    breaker.record(False, 0.1)  # probe fails: straight back to open
    assert breaker.state == "open"
    assert breaker.consecutive_opens == 2
    assert breaker.counters_["breaker.reopened"] == 1
    assert not breaker.allow()  # timer restarted at the re-open


# ----------------------------------------------------------------------
# OverloadController
# ----------------------------------------------------------------------


def test_controller_sheds_with_honest_retry_after():
    clock = FakeClock()
    policy = ResiliencePolicy(
        max_retries=2, backoff_base=0.05, backoff_factor=2.0, timeout=1.0
    )
    ctl = OverloadController(
        policy=policy,
        max_inflight=4,
        min_samples=2,
        reset_timeout=10.0,
        clock=clock,
        max_retry_after=5.0,
    )
    ctl.check("idx")  # closed: passes
    # 0.5s mean latency, then trip it.
    ctl.record("idx", False, 0.5)
    ctl.record("idx", False, 0.5)
    with pytest.raises(BreakerOpen) as excinfo:
        ctl.check("idx", queue_depth=7)
    assert excinfo.value.reason == "breaker"
    # Freshly tripped: nothing serves before reset_timeout, so the
    # hint is the full cooldown — the drain-estimate cap must not
    # shrink it below the time the client would provably waste.
    assert excinfo.value.retry_after == pytest.approx(10.0)
    assert ctl.stats["breaker.shed"] == 1
    # Partway through the cooldown the hint tracks what remains.
    clock.now += 4.0
    with pytest.raises(BreakerOpen) as excinfo:
        ctl.check("idx", queue_depth=0)
    assert excinfo.value.retry_after == pytest.approx(6.0)
    # With measured latency in a live window the hint scales with the
    # backlog: (depth+1) * worst_mean / max_inflight.
    ctl.record("other", True, 2.0)
    assert ctl.retry_after(queue_depth=7) == pytest.approx(
        min(8 * 2.0 / 4, 5.0)
    )
    assert ctl.retry_after(queue_depth=0) >= policy.backoff(1)
    counters = ctl.counters()
    assert counters["breaker.state.idx"] == 1
    assert counters["breaker.state.other"] == 0
    assert counters["breaker.open_now"] == 1
    assert ctl.open_now() == ["idx"]


# ----------------------------------------------------------------------
# End to end: a sick dispatch backend
# ----------------------------------------------------------------------


def test_dispatch_faults_trip_breaker_and_shed_typed():
    async def run():
        db = _build_db()
        faults = FaultInjector(seed=3)
        # Every dispatch hit fails: the backend is definitively sick.
        faults.rule("server.dispatch", "error", at=1, times=-1)
        faults.verify()
        service = QueryService(
            db,
            request_timeout=5.0,
            faults=faults,
            breaker_options={
                "min_samples": 2,
                "failure_threshold": 0.5,
                "reset_timeout": 60.0,
            },
        )
        client = service.connect()
        try:
            request = {
                "op": "range",
                "table": "points",
                "cols": ["x", "y"],
                "box": [[0, 20], [0, 20]],
            }
            # First failures surface as internal errors and feed the
            # health window...
            for _ in range(2):
                response = await service.handle_request(client, request)
                assert response["error"]["type"] == "internal"
            # ...then the circuit opens and requests shed instantly
            # with the typed reason (no worker time spent).
            response = await service.handle_request(client, request)
            assert response.get("ok") is False
            assert response["rejected"]["reason"] == "breaker"
            assert response["rejected"]["retry_after"] > 0.0
            stats = service.stats_snapshot()
            assert stats["breaker"]["breaker.opened"] == 1
            assert stats["breaker"]["breaker.state.points_xy"] == 1
            assert stats["breaker"]["breaker.shed"] == 1
            assert service.admission.inflight == 0
            # The SERVER trace section carries the same counters.
            rendered = service.trace_section().root
            assert rendered.counters.get("breaker.opened") == 1
        finally:
            service.disconnect(client)
            service.close()

    asyncio.run(run())


def test_breaker_recovery_after_backend_heals():
    async def run():
        db = _build_db()
        faults = FaultInjector(seed=5)
        faults.rule("server.dispatch", "error", at=1, times=2)
        clock = FakeClock()
        service = QueryService(
            db,
            request_timeout=5.0,
            faults=faults,
            clock=clock,
            breaker_options={
                "min_samples": 2,
                "reset_timeout": 1.0,
            },
        )
        client = service.connect()
        try:
            request = {
                "op": "range",
                "table": "points",
                "cols": ["x", "y"],
                "box": [[0, 20], [0, 20]],
            }
            for _ in range(2):
                response = await service.handle_request(client, request)
                assert response["error"]["type"] == "internal"
            assert service.overload.breaker("points_xy").state == "open"
            # Reset timer lapses on the fake clock; the rule is spent,
            # so the probe succeeds and the circuit closes.
            clock.now = 1.5
            response = await service.handle_request(client, request)
            assert response.get("ok") is True
            assert service.overload.breaker("points_xy").state == "closed"
            stats = service.stats_snapshot()
            assert stats["breaker"]["breaker.closed"] == 1
            assert stats["breaker"]["breaker.open_now"] == 0
        finally:
            service.disconnect(client)
            service.close()

    asyncio.run(run())


def test_breaker_disabled_stays_out_of_the_path():
    """breaker=False keeps the whole subsystem out of the path (and
    out of /stats)."""

    async def run():
        db = _build_db(npoints=50)
        service = QueryService(db, breaker=False)
        client = service.connect()
        try:
            response = await service.handle_request(
                client,
                {
                    "op": "range",
                    "table": "points",
                    "cols": ["x", "y"],
                    "box": [[0, 20], [0, 20]],
                },
            )
            assert response.get("ok") is True
            assert service.overload is None
            assert "breaker" not in service.stats_snapshot()
        finally:
            service.disconnect(client)
            service.close()

    asyncio.run(run())
