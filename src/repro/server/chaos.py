"""The chaos-serve harness: seeded fault storms against a live server.

One **episode** builds a small spatial database, computes reference
answers for a seeded set of range queries *before* any serving starts,
then drives concurrent clients — readers, a writer churning commits, a
killer that drops its socket mid-flight, and a vandal sending byte soup
and oversized frames — against a :class:`~repro.server.tcp.QueryServer`
whose transport and dispatch failpoints are armed with a seeded
schedule (``repro.faults``).  The episode then asserts the three
serving-under-failure invariants:

1. **Availability** — after the storm a fresh client connects and gets
   a correct answer; the process never died, the accept loop never
   wedged.
2. **Byte-identity** — every request that *was* answered ``ok`` carries
   exactly the reference rows.  Rejections, typed errors, timeouts and
   dropped connections are all legal outcomes under chaos; a wrong
   answer never is.  (The writer inserts only outside the query boxes,
   so the invariant holds at every pinned epoch.)
3. **Zero residue** — after teardown no snapshot pin, COW page
   version, admission slot, or queue entry survives
   (``SnapshotManager.leak_stats`` and the admission gauges are all
   zero).

The fault schedule deliberately excludes ``bit_flip``: a flipped bit
can turn one valid JSON number into another, silently mutating a query
or an answer, and a checksum-free wire protocol cannot detect that —
so under corruption the byte-identity oracle would be unsound.
Corruption *detection* (garbled frames answered as
``protocol_error``) is covered deterministically in
``tests/test_server_protocol.py``.

Everything is derived from ``seed`` — dataset, query boxes, fault
rules, per-client traffic — so a failing episode replays exactly:
``python -m repro serve --chaos SEED``.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.geometry import Box, Grid
from repro.faults import FaultInjector
from repro.server.client import (
    QueryClient,
    ServerError,
    ServerRejected,
)
from repro.server.protocol import MAX_FRAME
from repro.server.service import SITE_DISPATCH, QueryService
from repro.server.tcp import SITE_FRAME_READ, SITE_FRAME_WRITE, serve
from repro.shard.scatter import ResiliencePolicy

__all__ = ["ChaosReport", "run_chaos_episode", "run_chaos_sweep"]

#: (site, kind) pairs a schedule may draw from.  No ``bit_flip`` — see
#: the module docstring for why silent corruption has no sound oracle.
FAULT_MENU: Tuple[Tuple[str, str], ...] = (
    (SITE_FRAME_READ, "error"),
    (SITE_FRAME_READ, "crash"),
    (SITE_FRAME_READ, "short_read"),
    (SITE_FRAME_READ, "latency"),
    (SITE_FRAME_WRITE, "error"),
    (SITE_FRAME_WRITE, "crash"),
    (SITE_FRAME_WRITE, "torn_write"),
    (SITE_FRAME_WRITE, "latency"),
    (SITE_DISPATCH, "error"),
    (SITE_DISPATCH, "crash"),
    (SITE_DISPATCH, "latency"),
)

_GRID = Grid(ndims=2, depth=6)


@dataclass
class ChaosReport:
    """What one episode observed, and every invariant it violated."""

    seed: int
    requests: int = 0
    ok: int = 0
    rejected: int = 0
    errors: int = 0
    timeouts: int = 0
    disconnects: int = 0
    mismatches: int = 0
    faults_armed: int = 0
    faults_fired: int = 0
    fault_sites: Dict[str, int] = field(default_factory=dict)
    breaker_opens: int = 0
    leaks: Dict[str, int] = field(default_factory=dict)
    available: bool = False
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"CHAOS {verdict} seed={self.seed}: "
            f"{self.ok}/{self.requests} ok, "
            f"{self.rejected} rejected, {self.errors} errors, "
            f"{self.timeouts} timeouts, {self.disconnects} drops, "
            f"{self.faults_fired}/{self.faults_armed} faults fired, "
            f"{self.breaker_opens} breaker opens"
        ]
        for site in sorted(self.fault_sites):
            lines.append(f"  fired {site}: {self.fault_sites[site]}")
        for failure in self.failures:
            lines.append(f"  FAILURE: {failure}")
        return "\n".join(lines)


def _build_schedule(
    rng: random.Random, injector: FaultInjector, nrules: int
) -> int:
    """Arm ``nrules`` seeded rules over :data:`FAULT_MENU`; returns the
    number armed.  ``at`` spreads firings across the storm so early and
    late traffic both see weather."""
    for _ in range(nrules):
        site, kind = rng.choice(FAULT_MENU)
        injector.rule(
            site,
            kind,
            at=rng.randint(1, 60),
            times=rng.randint(1, 3),
            delay=0.02 if kind == "latency" else 0.0,
        )
    injector.verify()
    return nrules


def _build_fixture(
    seed: int, npoints: int, nboxes: int
) -> Tuple[Any, List[Box], List[List[Tuple[Any, ...]]]]:
    """The database plus reference answers, computed before serving."""
    from repro.db.database import SpatialDatabase
    from repro.db.schema import Schema
    from repro.db.types import INTEGER, OID
    from repro.workloads.datasets import make_dataset

    rng = random.Random(seed ^ 0x5EED)
    db = SpatialDatabase(_GRID, page_capacity=16)
    db.create_table(
        "points",
        Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER)),
    )
    points = make_dataset("C", _GRID, npoints, seed=seed % 997).points
    # Keep the seeded data inside [0, 40): the storm's writer inserts
    # at >= 48, so every query box below sees identical rows at every
    # epoch and byte-identity is checkable across reconnects.
    db.insert_many(
        "points",
        [
            (f"p{i}", x % 40, y % 40)
            for i, (x, y) in enumerate(points)
        ],
    )
    db.create_index("points_xy", "points", ("x", "y"))
    boxes: List[Box] = []
    for _ in range(nboxes):
        lows = [rng.randrange(0, 30) for _ in range(2)]
        spans = [rng.randrange(2, 12) for _ in range(2)]
        boxes.append(
            Box(tuple((lo, lo + sp) for lo, sp in zip(lows, spans)))
        )
    reference = [
        db.range_query("points", ("x", "y"), box).rows for box in boxes
    ]
    return db, boxes, reference


async def _reader_storm(
    address: Tuple[str, int],
    boxes: Sequence[Box],
    reference: Sequence[List[Tuple[Any, ...]]],
    seed: int,
    nrequests: int,
    report: ChaosReport,
) -> None:
    """One reader: issue seeded range queries (some with a deadline so
    tight it must expire), tolerate every *typed* failure, reconnect
    after drops, and flag any ``ok`` answer that is not byte-identical
    to the reference."""
    rng = random.Random(seed)
    policy = ResiliencePolicy(
        max_retries=0, backoff_base=0.01, backoff_factor=2.0, timeout=3.0
    )
    client: Optional[QueryClient] = None
    try:
        for _ in range(nrequests):
            if client is None:
                try:
                    client = await QueryClient.connect(*address, policy)
                except (OSError, ConnectionError) as exc:
                    report.failures.append(
                        f"reader could not connect mid-storm: {exc}"
                    )
                    return
            index = rng.randrange(len(boxes))
            roll = rng.random()
            deadline_ms: Optional[float] = None
            if roll < 0.15:
                deadline_ms = 0.01  # must expire: exercises shedding
            elif roll < 0.3:
                deadline_ms = 2000.0  # generous: must not interfere
            report.requests += 1
            try:
                rows = await client.range_query(
                    "points",
                    ("x", "y"),
                    [list(pair) for pair in boxes[index].ranges],
                    retry=False,
                    deadline_ms=deadline_ms,
                )
                if rows == reference[index]:
                    report.ok += 1
                else:
                    report.mismatches += 1
                    report.failures.append(
                        f"byte-identity violated for box {index}: "
                        f"{len(rows)} rows != "
                        f"{len(reference[index])} expected"
                    )
            except ServerRejected:
                report.rejected += 1
            except ServerError:
                report.errors += 1
            except asyncio.TimeoutError:
                report.timeouts += 1
            except (ConnectionError, OSError):
                report.disconnects += 1
                with contextlib.suppress(Exception):
                    await client.close()
                client = None
            await asyncio.sleep(rng.random() * 0.01)
    except asyncio.CancelledError:
        raise
    except Exception as exc:  # untyped failure: an invariant breach
        report.failures.append(
            f"reader raised {type(exc).__name__}: {exc}"
        )
    finally:
        if client is not None:
            with contextlib.suppress(Exception):
                await client.close()


async def _writer_storm(
    address: Tuple[str, int], seed: int, ncommits: int
) -> None:
    """Churn commit epochs during the storm (inserts land outside the
    query boxes, so reference answers stay valid at every epoch)."""
    rng = random.Random(seed)
    policy = ResiliencePolicy(
        max_retries=0, backoff_base=0.01, backoff_factor=2.0, timeout=2.0
    )
    client: Optional[QueryClient] = None
    try:
        client = await QueryClient.connect(*address, policy)
        for i in range(ncommits):
            await client.insert(
                "points",
                [f"w{seed}-{i}", 48 + rng.randrange(12),
                 48 + rng.randrange(12)],
            )
            await client.commit()
            await asyncio.sleep(rng.random() * 0.02)
    except (ConnectionError, OSError, asyncio.TimeoutError,
            ServerRejected, ServerError):
        pass  # the writer is load, not an oracle
    finally:
        if client is not None:
            with contextlib.suppress(Exception):
                await client.close()


async def _killer_client(
    address: Tuple[str, int], boxes: Sequence[Box]
) -> None:
    """Connect, fire pipelined queries, vanish without a goodbye —
    teardown must release the pin and any batch memberships."""
    policy = ResiliencePolicy(
        max_retries=0, backoff_base=0.01, backoff_factor=2.0, timeout=2.0
    )
    try:
        client = await QueryClient.connect(*address, policy)
    except (OSError, ConnectionError):
        return
    pending = [
        asyncio.ensure_future(
            client.range_query(
                "points",
                ("x", "y"),
                [list(pair) for pair in box.ranges],
                retry=False,
            )
        )
        for box in list(boxes)[:3]
    ]
    await asyncio.sleep(0.02)
    client.kill()
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)


async def _vandal_client(address: Tuple[str, int]) -> None:
    """Raw byte soup, an oversized frame, then a hangup: every frame
    must be answered or dropped without taking the server down."""
    try:
        reader, writer = await asyncio.open_connection(
            *address, limit=MAX_FRAME
        )
    except (OSError, ConnectionError):
        return
    try:
        writer.write(b"\x00\xffnot json at all\n")
        writer.write(b'{"op": "range"\n')  # truncated JSON
        writer.write(b"[1, 2, 3]\n")  # decodes, not an object
        writer.write(b"x" * (MAX_FRAME + 64) + b"\n")  # oversized
        writer.write(b'{"op": "no_such_op", "id": 1}\n')
        await writer.drain()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(reader.read(MAX_FRAME), timeout=0.5)
    except (ConnectionError, OSError):
        pass
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


async def _episode(
    seed: int,
    npoints: int,
    nreaders: int,
    nrequests: int,
    nrules: int,
    report: ChaosReport,
) -> None:
    rng = random.Random(seed)
    db, boxes, reference = _build_fixture(seed, npoints, nboxes=6)
    injector = FaultInjector(seed=seed)
    report.faults_armed = _build_schedule(rng, injector, nrules)
    service = QueryService(
        db,
        max_inflight=8,
        client_quota=4,
        queue_limit=16,
        request_timeout=2.0,
        policy=ResiliencePolicy(
            max_retries=1, backoff_base=0.01,
            backoff_factor=2.0, timeout=0.5,
        ),
        faults=injector,
    )
    server = await serve(service, faults=injector)
    try:
        storm = [
            _reader_storm(
                server.address,
                boxes,
                reference,
                seed * 1009 + i,
                nrequests,
                report,
            )
            for i in range(nreaders)
        ]
        storm.append(_writer_storm(server.address, seed * 31, 4))
        storm.append(_killer_client(server.address, boxes))
        storm.append(_vandal_client(server.address))
        await asyncio.gather(*storm)

        # Invariant 1: the server still answers, correctly, after the
        # storm — and its breaker state is visible in /stats.  The
        # storm is over: disarm whatever rules haven't fired so the
        # probe measures recovery, not leftover weather.
        injector.clear()
        try:
            fresh = await QueryClient.connect(*server.address)
            try:
                rows = await fresh.range_query(
                    "points",
                    ("x", "y"),
                    [list(pair) for pair in boxes[0].ranges],
                )
                report.available = rows == reference[0]
                if not report.available:
                    report.failures.append(
                        "post-storm answer differs from reference"
                    )
                stats = await fresh.stats()
                if "breaker" not in stats:
                    report.failures.append(
                        "breaker section missing from /stats"
                    )
                else:
                    report.breaker_opens = stats["breaker"].get(
                        "breaker.opened", 0
                    ) + stats["breaker"].get("breaker.reopened", 0)
            finally:
                await fresh.close()
        except Exception as exc:
            report.failures.append(
                f"post-storm availability check failed: "
                f"{type(exc).__name__}: {exc}"
            )
    finally:
        await server.close()

    report.faults_fired = len(injector.fired)
    for event in injector.fired:
        report.fault_sites[event.site] = (
            report.fault_sites.get(event.site, 0) + 1
        )

    # Invariant 3: zero residue after teardown.
    if service.admission.inflight != 0:
        report.failures.append(
            f"admission slot leak: inflight={service.admission.inflight}"
        )
    if service.admission.queue_depth != 0:
        report.failures.append(
            f"admission queue leak: depth={service.admission.queue_depth}"
        )
    db.snapshots.reclaim()
    pinned = list(db.snapshots.pinned_epochs)
    if pinned:
        report.failures.append(f"snapshot pins leaked: {pinned}")
    report.leaks = dict(db.snapshots.leak_stats())
    for name, value in report.leaks.items():
        if value != 0:
            report.failures.append(f"COW leak {name}={value}")


def run_chaos_episode(
    seed: int,
    npoints: int = 400,
    nreaders: int = 4,
    nrequests: int = 20,
    nrules: int = 8,
) -> ChaosReport:
    """One seeded chaos episode; see the module docstring for the three
    invariants the returned report's ``failures`` list enforces."""
    report = ChaosReport(seed=seed)
    try:
        asyncio.run(
            _episode(seed, npoints, nreaders, nrequests, nrules, report)
        )
    except Exception as exc:  # the harness itself must never blow up
        report.failures.append(
            f"episode crashed: {type(exc).__name__}: {exc}"
        )
    return report


def run_chaos_sweep(
    seeds: Sequence[int],
    npoints: int = 400,
    nreaders: int = 4,
    nrequests: int = 20,
    nrules: int = 8,
    out=None,
) -> List[ChaosReport]:
    """Episodes for every seed (each printed as it lands)."""
    out = out or sys.stdout
    reports = []
    for seed in seeds:
        report = run_chaos_episode(
            seed,
            npoints=npoints,
            nreaders=nreaders,
            nrequests=nrequests,
            nrules=nrules,
        )
        out.write(report.summary() + "\n")
        if hasattr(out, "flush"):
            out.flush()
        reports.append(report)
    return reports
