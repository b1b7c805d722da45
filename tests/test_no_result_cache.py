"""There is no result cache; ``SpatialDatabase(cache=True)`` is a no-op.

The ``cache`` argument survives only because the perf ledger's
``serve_mixed`` workload passes ``cache=True``.  A database built with
it must answer every read — ``range_query``, SQL and a batched wire
``range`` — exactly as one built without it, the old tuning-knob form
(a dict) must fail loudly, and the package must be gone.
"""

from __future__ import annotations

import asyncio
import importlib
import pkgutil
import random

import pytest

from repro.core.geometry import Box, Grid
from repro.db.database import SpatialDatabase
from repro.db.planner import plan_range_query
from repro.db.schema import Schema
from repro.db.types import INTEGER, OID
from repro.server import QueryClient, QueryService, serve
from repro.sql import execute_sql
from repro.workloads.datasets import make_dataset

GRID = Grid(ndims=2, depth=7)


def _build_db(**kwargs):
    db = SpatialDatabase(GRID, page_capacity=16, **kwargs)
    db.create_table(
        "points", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    points = make_dataset("C", GRID, 1200, seed=3).points
    db.insert_many(
        "points", [(f"p{i}", x, y) for i, (x, y) in enumerate(points)]
    )
    db.create_index("points_xy", "points", ("x", "y"))
    return db


def _boxes(count=12):
    rng = random.Random(9)
    side = GRID.side
    out = []
    for _ in range(count):
        x0, x1 = sorted(rng.randrange(side) for _ in range(2))
        y0, y1 = sorted(rng.randrange(side) for _ in range(2))
        out.append(((x0, x1), (y0, y1)))
    # Repeats: what a result cache would have answered from memory.
    return out + out[:4]


def _wire_rows(db):
    async def run():
        service = QueryService(db, max_inflight=32, client_quota=32)
        server = await serve(service)
        try:
            async with await QueryClient.connect(*server.address) as client:
                rows = await asyncio.gather(
                    *[
                        client.range_query("points", ("x", "y"), ranges)
                        for ranges in _boxes()
                    ]
                )
            return rows, service.stats_snapshot()
        finally:
            await server.close()

    return asyncio.run(run())


def test_cache_true_answers_like_the_default():
    flagged, plain = _build_db(cache=True), _build_db()
    for ranges in _boxes():
        box = Box(ranges)
        assert (
            flagged.range_query("points", ("x", "y"), box).rows
            == plain.range_query("points", ("x", "y"), box).rows
        )
        (x0, x1), (y0, y1) = ranges
        query = (
            "SELECT id@, x, y FROM points "
            f"WHERE BOX({x0}, {x1}, {y0}, {y1}) CONTAINS POINT(x, y)"
        )
        assert (
            execute_sql(flagged, query).rows
            == execute_sql(plain, query).rows
        )
    (flagged_rows, stats), (plain_rows, _) = (
        _wire_rows(flagged),
        _wire_rows(plain),
    )
    assert flagged_rows == plain_rows
    assert flagged_rows == [
        plain.range_query("points", ("x", "y"), Box(r)).rows
        for r in _boxes()
    ]
    assert stats["server"]["server.batch_size_peak"] > 1
    assert "cache" not in stats


@pytest.mark.parametrize(
    "knobs", [{"budget_points": 8}, {}, None, 1, "lru"]
)
def test_anything_but_a_bool_raises(knobs):
    with pytest.raises(TypeError):
        SpatialDatabase(GRID, cache=knobs)


def test_the_package_is_gone():
    import repro

    assert "cache" not in {m.name for m in pkgutil.iter_modules(repro.__path__)}
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(".cache", "repro")


def test_drop_index_falls_back_to_the_row_scan():
    db = _build_db()
    box = Box(((0, 40), (0, 40)))
    before = db.range_query("points", ("x", "y"), box).rows
    db.drop_index("points_xy")
    assert db._index_for("points", ("x", "y")) is None
    plan = plan_range_query(db, "points", ("x", "y"), box).explain()
    assert "table-scan" in plan
    assert db.range_query("points", ("x", "y"), box).rows == before
