"""Differential tests: every compiled SQL query must be row-identical
to an oracle that shares none of its machinery — a list comprehension
over the stored rows for one table, a hand-built operator tree for a
join — over a database read live and a pinned snapshot session, and
invariant under the optimizer's conjunct reordering."""

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
)
from repro.db.spatial import overlap_query
from repro.db.types import SpatialObject
from repro.sql import execute_sql

SIDE = 128  # Grid(2, 7)


def make_db(seed, npoints=250):
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
    db.create_index("points_xy", "points", ("x", "y"))
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


def oracle(db):
    """``SQL``'s rows from the stored rows alone — no index, planner or
    operator; ids are unique, so tuple order is ``ORDER BY id@``."""
    return sorted(
        (pid, x, w)
        for pid, x, y, w in db.table("points").rows
        if 8 <= x <= 88
        and 8 <= y <= 88
        and 20 <= x <= 70
        and x + y > 60
        and w < 8.5
    )


class TestSingleTable:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sql_matches_operator_tree(self, seed):
        db = make_db(seed)
        assert execute_sql(db, SQL).rows == oracle(db)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reorder_invariant(self, seed):
        db = make_db(seed)
        ordered = execute_sql(db, SQL, reorder=True)
        naive = execute_sql(db, SQL, reorder=False)
        assert ordered.rows == naive.rows
        assert ordered.columns == naive.columns

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
            expected = sorted(
                (pid,)
                for pid, x, y, _ in db.table("points").rows
                if x0 <= x <= x1 and y0 <= y <= y1 and y <= cut
            )
            assert execute_sql(db, sql).rows == expected


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
