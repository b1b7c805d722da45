"""Golden-file tests for EXPLAIN output.

The database is seeded with hand-written rows (no randomness), so the
histograms, selectivities and cost numbers in the rendered plan are
fully deterministic.  To regenerate after an intentional planner
change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_sql_explain_golden.py
"""

import os
import pathlib
import random

import pytest

from repro.core.geometry import Box, Grid
from repro.db import (
    INTEGER,
    OID,
    SPATIAL_OBJECT,
    Schema,
    SpatialDatabase,
)
from repro.db.types import SpatialObject
from repro.sql import compile_sql

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

POINTS = [
    ("p0", 2, 3),
    ("p1", 5, 1),
    ("p2", 9, 14),
    ("p3", 11, 11),
    ("p4", 13, 2),
    ("p5", 17, 20),
    ("p6", 21, 25),
    ("p7", 25, 8),
    ("p8", 28, 28),
    ("p9", 30, 5),
    ("p10", 6, 22),
    ("p11", 19, 7),
]

BOXES = {
    "regions": [((0, 6), (0, 6)), ((8, 14), (8, 14)), ((20, 30), (2, 9))],
    "zones": [((4, 10), (4, 10)), ((22, 28), (0, 6)), ((12, 18), (12, 18))],
}


@pytest.fixture
def db():
    database = SpatialDatabase(Grid(2, 5), page_capacity=4)
    database.create_table(
        "points",
        Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER)),
    )
    database.insert_many("points", POINTS)
    database.create_index("points_xy", "points", ("x", "y"))
    for table, boxes in BOXES.items():
        database.create_table(
            table, Schema.of(("id@", OID), ("geom", SPATIAL_OBJECT))
        )
        database.insert_many(
            table,
            [
                (
                    f"{table[0]}{i}",
                    SpatialObject.from_box(f"{table[0]}{i}", Box(ranges)),
                )
                for i, ranges in enumerate(boxes)
            ],
        )
    return database


@pytest.fixture
def sky():
    """Two seeded, indexed point catalogs.  ``random.Random`` is
    deterministic across platforms, so the plans (and their cost
    numbers) are stable golden material."""
    database = SpatialDatabase(Grid(2, 5), page_capacity=8)
    rng = random.Random(5)
    side = database.grid.side
    for table, count in (("stars", 400), ("gals", 400)):
        database.create_table(
            table, Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
        )
        database.insert_many(
            table,
            [
                (
                    f"{table[0]}{i}",
                    rng.randrange(side),
                    rng.randrange(side),
                )
                for i in range(count)
            ],
        )
        database.create_index(f"{table}_xy", table, ("x", "y"))
    return database


def check(name, text):
    path = GOLDEN_DIR / name
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text + "\n")
    assert text + "\n" == path.read_text(), (
        f"EXPLAIN drifted from {path.name}; run with REGEN_GOLDEN=1 "
        "if the change is intentional"
    )


class TestExplainGolden:
    def test_multi_conjunct_reordering(self, db):
        compiled = compile_sql(
            db,
            "SELECT id@, x FROM points "
            "WHERE BOX(0, 16, 0, 16) CONTAINS POINT(x, y) "
            "AND x + y > 10 AND x BETWEEN 4 AND 12 "
            "ORDER BY id@ LIMIT 5",
        )
        check("sql_explain_multi.txt", compiled.explain())

    def test_naive_order_differs(self, db):
        compiled = compile_sql(
            db,
            "SELECT id@, x FROM points "
            "WHERE BOX(0, 16, 0, 16) CONTAINS POINT(x, y) "
            "AND x + y > 10 AND x BETWEEN 4 AND 12 "
            "ORDER BY id@ LIMIT 5",
            reorder=False,
        )
        check("sql_explain_naive.txt", compiled.explain())

    def test_join_strategy_and_pushdown(self, db):
        compiled = compile_sql(
            db,
            "SELECT regions.id@, zones.id@ FROM regions "
            "JOIN zones ON OVERLAPS(regions.geom, zones.geom) "
            "WHERE regions.id@ != 'r0' "
            "ORDER BY regions.id@, zones.id@",
        )
        check("sql_explain_join.txt", compiled.explain())

    def test_equality_via_histogram(self, db):
        compiled = compile_sql(
            db, "SELECT id@ FROM points WHERE x = 13 AND x + y < 99"
        )
        check("sql_explain_eq.txt", compiled.explain())


class TestProximityExplainGolden:
    def test_nearest_knn_probe(self, db):
        """No WHERE + a matching index: the plan probes the index's
        k-NN directly instead of scanning."""
        compiled = compile_sql(
            db,
            "SELECT id@, x, y FROM points "
            "NEAREST 3 TO POINT(12, 9) BY POINT(x, y)",
        )
        check("sql_explain_nearest_probe.txt", compiled.explain())

    def test_nearest_ranked_after_filters(self, db):
        """A WHERE clause forces the rank-after-filters shape."""
        compiled = compile_sql(
            db,
            "SELECT id@, x, y FROM points WHERE x > 4 "
            "NEAREST 3 TO POINT(12, 9) BY POINT(x, y)",
        )
        check("sql_explain_nearest_filtered.txt", compiled.explain())

    def test_within_eps_window_access(self, db):
        """WITHIN compiles to an eps-window access box plus an exact
        eps-refine filter discounted by the ball/box ratio."""
        compiled = compile_sql(
            db,
            "SELECT id@, x, y FROM points "
            "WHERE POINT(x, y) WITHIN 6 OF POINT(12, 9) AND x + y > 4",
        )
        check("sql_explain_within.txt", compiled.explain())

    def test_epsjoin_picks_zones_at_small_eps(self, sky):
        compiled = compile_sql(
            sky,
            "SELECT * FROM stars JOIN gals "
            "ON POINT(stars.x, stars.y) WITHIN 6 OF POINT(gals.x, gals.y)",
        )
        check("sql_explain_epsjoin_zones.txt", compiled.explain())


class TestAttributeRangeWindowGolden:
    """Attribute ranges on indexed coordinate columns plan as a
    z-window (ROADMAP item 1): a full box from two BETWEENs, the
    paper's partial-match strip from one pinned column, and an
    eps-join window whose points seek the other side's index."""

    def test_two_betweens_are_a_box(self, sky):
        compiled = compile_sql(
            sky,
            "SELECT id@, x, y FROM stars "
            "WHERE x BETWEEN 4 AND 11 AND y BETWEEN 16 AND 23 AND x + y > 20",
        )
        check("sql_explain_between_box.txt", compiled.explain())

    def test_one_pinned_column_is_a_partial_match(self, sky):
        compiled = compile_sql(
            sky, "SELECT id@, x, y FROM stars WHERE x >= 9 AND x < 10.5"
        )
        check("sql_explain_partial_match.txt", compiled.explain())

    def test_epsjoin_window_reaches_the_other_side(self, sky):
        compiled = compile_sql(
            sky,
            "SELECT * FROM stars JOIN gals "
            "ON POINT(stars.x, stars.y) WITHIN 2 OF POINT(gals.x, gals.y) "
            "WHERE BOX(8, 15, 8, 15) CONTAINS POINT(gals.x, gals.y)",
        )
        check("sql_explain_epsjoin_window.txt", compiled.explain())
