"""Differential tests: every compiled SQL query must be row-identical
to a hand-built operator-tree equivalent — over a database read live,
a sharded index, and a pinned snapshot session — and invariant under the
optimizer's conjunct reordering."""

import random

import pytest

from repro.core.geometry import Box, Grid
from repro.db import (
    FLOAT,
    INTEGER,
    OID,
    SPATIAL_OBJECT,
    Schema,
    SpatialDatabase,
    col,
)
from repro.db.query import Query
from repro.db.spatial import overlap_query
from repro.db.types import SpatialObject
from repro.sql import compile_sql, execute_sql

SIDE = 128  # Grid(2, 7)


def make_db(seed, npoints=250, shards=1):
    grid = Grid(2, 7)
    db = SpatialDatabase(grid, page_capacity=16)
    db.create_table(
        "points",
        Schema.of(
            ("id@", OID), ("x", INTEGER), ("y", INTEGER), ("w", FLOAT)
        ),
    )
    rng = random.Random(seed)
    db.insert_many(
        "points",
        [
            (
                f"p{i}",
                rng.randrange(SIDE),
                rng.randrange(SIDE),
                round(rng.uniform(0, 10), 2),
            )
            for i in range(npoints)
        ],
    )
    db.create_index("points_xy", "points", ("x", "y"), shards=shards)
    return db


def add_objects(db, seed, count=24):
    rng = random.Random(seed)
    for table, prefix in (("regions", "r"), ("zones", "z")):
        db.create_table(
            table, Schema.of(("id@", OID), ("geom", SPATIAL_OBJECT))
        )
        rows = []
        for i in range(count):
            x = rng.randrange(SIDE - 12)
            y = rng.randrange(SIDE - 12)
            w = rng.randrange(2, 12)
            h = rng.randrange(2, 12)
            rows.append(
                (
                    f"{prefix}{i}",
                    SpatialObject.from_box(
                        f"{prefix}{i}", Box(((x, x + w), (y, y + h)))
                    ),
                )
            )
        db.insert_many(table, rows)


SQL = (
    "SELECT id@, x, w FROM points "
    "WHERE BOX(8, 88, 8, 88) CONTAINS POINT(x, y) "
    "AND x BETWEEN 20 AND 70 AND x + y > 60 AND w < 8.5 "
    "ORDER BY id@"
)


def hand_built(db):
    return (
        Query(db, "points")
        .within(("x", "y"), Box(((8, 88), (8, 88))))
        .where((col("x") >= 20) & (col("x") <= 70))
        .where(col("x") + col("y") > 60)
        .where(col("w") < 8.5)
        .select("id@", "x", "w")
        .order_by("id@")
        .run()
    )


class TestSingleTable:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sql_matches_operator_tree(self, seed):
        db = make_db(seed)
        assert execute_sql(db, SQL).rows == hand_built(db).rows

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reorder_invariant(self, seed):
        db = make_db(seed)
        ordered = execute_sql(db, SQL, reorder=True)
        naive = execute_sql(db, SQL, reorder=False)
        assert ordered.rows == naive.rows
        assert ordered.columns == naive.columns

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sharded_matches_unsharded(self, seed):
        plain = make_db(seed, shards=1)
        sharded = make_db(seed, shards=4)
        assert execute_sql(plain, SQL).rows == execute_sql(sharded, SQL).rows

    def test_session_snapshot_is_stable(self):
        db = make_db(7)
        before = execute_sql(db, SQL).rows
        with db.session() as session:
            rng = random.Random(99)
            db.insert_many(
                "points",
                [
                    (
                        f"late{i}",
                        rng.randrange(SIDE),
                        rng.randrange(SIDE),
                        1.0,
                    )
                    for i in range(80)
                ],
            )
            pinned = execute_sql(db, SQL, session=session).rows
            live = execute_sql(db, SQL).rows
        assert pinned == before
        assert len(live) >= len(before)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_random_windows(self, seed):
        db = make_db(seed)
        rng = random.Random(seed + 100)
        for _ in range(6):
            x0 = rng.randrange(SIDE - 16)
            y0 = rng.randrange(SIDE - 16)
            x1 = x0 + rng.randrange(4, SIDE - x0)
            y1 = y0 + rng.randrange(4, SIDE - y0)
            cut = rng.randrange(SIDE)
            sql = (
                f"SELECT id@ FROM points "
                f"WHERE BOX({x0}, {x1}, {y0}, {y1}) "
                f"CONTAINS POINT(x, y) AND y <= {cut} ORDER BY id@"
            )
            expected = (
                Query(db, "points")
                .within(("x", "y"), Box(((x0, x1), (y0, y1))))
                .where(col("y") <= cut)
                .select("id@")
                .order_by("id@")
                .run()
            )
            assert execute_sql(db, sql).rows == expected.rows


class TestJoin:
    JOIN_SQL = (
        "SELECT regions.id@, zones.id@ FROM regions "
        "JOIN zones ON OVERLAPS(regions.geom, zones.geom) "
        "ORDER BY regions.id@, zones.id@"
    )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_join_matches_overlap_query(self, seed):
        db = make_db(seed, npoints=10)
        add_objects(db, seed + 50)
        oracle = overlap_query(
            db.table("regions"),
            db.table("zones"),
            "geom",
            "id@",
            grid=db.grid,
        )
        expected = sorted(set(oracle.rows))
        got = execute_sql(db, self.JOIN_SQL).rows
        assert got == expected

    def test_join_reorder_invariant(self):
        db = make_db(3, npoints=10)
        add_objects(db, 53)
        sql = (
            "SELECT regions.id@ FROM regions "
            "JOIN zones ON OVERLAPS(regions.geom, zones.geom) "
            "WHERE zones.id@ != 'z0' AND regions.id@ != 'r1' "
            "ORDER BY regions.id@"
        )
        assert (
            execute_sql(db, sql, reorder=True).rows
            == execute_sql(db, sql, reorder=False).rows
        )

    def test_both_strategies_agree(self, monkeypatch):
        import repro.sql.compiler as compiler_mod

        db = make_db(4, npoints=10)
        add_objects(db, 54)
        baseline = execute_sql(db, self.JOIN_SQL).rows
        real = compiler_mod.choose_join_strategy

        for forced in ("z-merge", "nested-loop"):
            monkeypatch.setattr(
                compiler_mod,
                "choose_join_strategy",
                lambda *a, forced=forced: (forced,) + real(*a)[1:],
            )
            assert execute_sql(db, self.JOIN_SQL).rows == baseline


class TestServerBatchedPath:
    def test_finish_rows_equals_run(self):
        """The server's split execution (batcher fetches the window,
        ``finish_rows`` applies filters + tail) must equal ``run()``."""
        db = make_db(11)
        compiled = compile_sql(db, SQL)
        table, cols, box = compiled.batch_window()
        assert (table, cols) == ("points", ("x", "y"))
        fetched = db.range_query(table, cols, box)
        split = compile_sql(db, SQL).finish_rows(list(fetched.rows))
        assert split.rows == compiled.run().rows
