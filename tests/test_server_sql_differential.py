"""Wire SQL against in-process SQL.

Each statement a connection sends is planned once, for the snapshot the
connection pinned, and the server runs that plan: an ``index-scan``
plan's box rides the batcher, any other plan runs whole.  So the wire
rows equal ``execute_sql`` over a session pinned at the same epoch and
a list-comprehension oracle over the rows that epoch holds; the wire
EXPLAIN names the access that ran; ``server.batches`` grows only for
``index-scan`` plans.  Connections opened before and after
``create_index`` see different plans for the same text.
"""

from __future__ import annotations

import asyncio
import random

import repro.sql.compiler as compiler_mod
from repro.core.geometry import Grid
from repro.db.database import SpatialDatabase
from repro.db.schema import Schema
from repro.db.types import INTEGER, OID
from repro.server import QueryClient, QueryService, serve
from repro.sql import execute_sql

GRID = Grid(ndims=2, depth=7)
HEAD = "SELECT id@, x, y FROM points"


def _dist(row, cx, cy):
    return (row[1] - cx) ** 2 + (row[2] - cy) ** 2


def _nearest(rows, k, cx, cy):
    """The ``k`` rows nearest ``(cx, cy)``, ties by z code, then
    relation order (a stable sort)."""
    return sorted(
        rows,
        key=lambda r: (_dist(r, cx, cy), GRID.zvalue((r[1], r[2])).bits),
    )[:k]


#: (label, statement, oracle over the visible rows, access before the
#: index, access after it)
CASES = [
    (
        "box-40x40",
        f"{HEAD} WHERE BOX(20, 59, 30, 69) CONTAINS POINT(x, y)",
        lambda rows: [
            r for r in rows if 20 <= r[1] <= 59 and 30 <= r[2] <= 69
        ],
        "table-scan",
        "index-scan",
    ),
    (
        "box-whole-grid",
        f"{HEAD} WHERE BOX(0, 127, 0, 127) CONTAINS POINT(x, y)",
        lambda rows: list(rows),
        "table-scan",
        "table-scan",
    ),
    (
        "between-pair",
        f"{HEAD} WHERE x BETWEEN 10 AND 29 AND y BETWEEN 40 AND 59",
        lambda rows: [
            r for r in rows if 10 <= r[1] <= 29 and 40 <= r[2] <= 59
        ],
        "table-scan",
        "index-scan",
    ),
    (
        "within-eps",
        f"{HEAD} WHERE POINT(x, y) WITHIN 9 OF POINT(64, 64)",
        lambda rows: [r for r in rows if _dist(r, 64, 64) <= 81],
        "table-scan",
        "index-scan",
    ),
    (
        "box-nearest",
        f"{HEAD} WHERE BOX(20, 59, 30, 69) CONTAINS POINT(x, y) "
        "NEAREST 5 TO POINT(40, 50) BY POINT(x, y)",
        lambda rows: _nearest(
            [r for r in rows if 20 <= r[1] <= 59 and 30 <= r[2] <= 69],
            5,
            40,
            50,
        ),
        "table-scan",
        "index-scan",
    ),
    (
        "nearest",
        f"{HEAD} NEAREST 5 TO POINT(64, 64) BY POINT(x, y)",
        lambda rows: _nearest(rows, 5, 64, 64),
        "table-scan",
        "knn-probe",
    ),
]


def _access(explain: str) -> str:
    """The access an EXPLAIN names: a range plan's ``chosen:`` method,
    else the ``access:`` label."""
    for line in explain.splitlines():
        line = line.strip()
        for head in ("chosen:", "access:"):
            if line.startswith(head):
                return line[len(head):].split()[0]
    raise AssertionError(f"no access line in {explain!r}")


def test_wire_rows_plans_and_batches_match_in_process(monkeypatch):
    calls = []
    real = compiler_mod.plan_select

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(compiler_mod, "plan_select", spy)

    async def run():
        db = SpatialDatabase(GRID, page_capacity=16)
        db.create_table(
            "points",
            Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER)),
        )
        rng = random.Random(7)
        rows = [
            (f"p{i}", rng.randrange(GRID.side), rng.randrange(GRID.side))
            for i in range(1500)
        ]
        db.insert_many("points", rows)
        server = await serve(QueryService(db))
        sessions = []
        try:
            before = await QueryClient.connect(*server.address)
            await before.ping()  # the connection's session is pinned
            sessions.append(db.session())
            db.create_index("points_xy", "points", ("x", "y"))
            after = await QueryClient.connect(*server.address)
            await after.ping()
            sessions.append(db.session())
            # Committed after every pin: no connection sees it.
            db.insert("points", ("late", 64, 64))
            seen = []
            for at, client in enumerate((before, after)):
                for label, text, oracle, *accesses in CASES:
                    explain = (await client.sql("EXPLAIN " + text))["text"]
                    access = _access(explain)
                    assert access == accesses[at], (label, at, explain)
                    batches = (await client.stats())["server"][
                        "server.batches"
                    ]
                    del calls[:]
                    response = await client.sql(text)
                    assert calls == ["points"], (label, at)
                    stats = (await client.stats())["server"]
                    grew = stats["server.batches"] - batches
                    assert grew == (access == "index-scan"), (label, at)
                    wire = [tuple(row) for row in response["rows"]]
                    in_process = execute_sql(
                        db, text, session=sessions[at]
                    ).rows
                    want = [tuple(r) for r in oracle(rows)]
                    assert wire == in_process == want, (label, at)
                    assert want, label
                    seen.append(access)
            assert set(seen) == {"index-scan", "table-scan", "knn-probe"}
            await before.close()
            await after.close()
        finally:
            for session in sessions:
                session.close()
            await server.close()

    asyncio.run(run())
