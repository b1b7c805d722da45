"""Tests for the cost-based range-query planner."""

import pytest

from repro.core.geometry import Box, Grid
from repro.db.database import SpatialDatabase
from repro.db.planner import estimate_selectivity, plan_range_query
from repro.db.schema import Schema
from repro.db.spatial import range_search_plan
from repro.db.types import INTEGER, OID

from conftest import random_points


def make_db(rng, n=1000, with_index=True):
    db = SpatialDatabase(Grid(2, 7), page_capacity=20)
    db.create_table(
        "t", Schema.of(("i@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    db.insert_many(
        "t",
        [
            (f"r{i}", x, y)
            for i, (x, y) in enumerate(random_points(rng, db.grid, n))
        ],
    )
    if with_index:
        db.create_index("t_xy", "t", ("x", "y"))
    return db


class TestSelectivity:
    def test_whole_space(self):
        grid = Grid(2, 6)
        assert estimate_selectivity(grid.whole_space(), grid) == 1.0

    def test_single_pixel(self):
        grid = Grid(2, 6)
        assert estimate_selectivity(Box(((3, 3), (4, 4))), grid) == pytest.approx(
            1 / 4096
        )

    def test_clipped(self):
        grid = Grid(2, 6)
        spill = Box(((32, 95), (0, 63)))  # half in, half out
        assert estimate_selectivity(spill, grid) == pytest.approx(0.5)

    def test_fully_outside(self):
        grid = Grid(2, 6)
        assert estimate_selectivity(Box(((70, 80), (70, 80))), grid) == 0.0


class TestPlanChoice:
    def test_small_query_uses_index(self, rng):
        db = make_db(rng)
        plan = plan_range_query(db, "t", ("x", "y"), Box(((5, 10), (5, 10))))
        assert plan.method == "index-scan"
        assert plan.estimated_pages < plan.alternative_pages

    def test_huge_query_uses_scan(self, rng):
        db = make_db(rng)
        plan = plan_range_query(db, "t", ("x", "y"), db.grid.whole_space())
        assert plan.method == "table-scan"

    def test_no_index_falls_back(self, rng):
        db = make_db(rng, with_index=False)
        plan = plan_range_query(db, "t", ("x", "y"), Box(((5, 10), (5, 10))))
        assert plan.method == "table-scan"
        assert plan.alternative_pages == float("inf")

    def test_all_methods_agree(self, rng):
        db = make_db(rng)
        for box in (
            Box(((5, 10), (5, 10))),
            Box(((0, 127), (0, 127))),
            Box(((30, 90), (40, 100))),
        ):
            entry = db._index_for("t", ("x", "y"))
            via_index = sorted(
                db._range_rows("t", ("x", "y"), box, entry.tree).rows
            )
            via_scan = sorted(db._range_rows("t", ("x", "y"), box).rows)
            assert via_index == via_scan
            # Section 4's relational plan projects the coordinates.
            via_plan = range_search_plan(
                db.table("t"), ["x", "y"], box, db.grid
            )
            assert sorted(via_plan.rows) == sorted(
                (x, y) for _, x, y in via_scan
            )

    def test_empty_box_region(self, rng):
        db = make_db(rng)
        plan = plan_range_query(
            db, "t", ("x", "y"), Box(((200, 210), (200, 210)))
        )
        assert plan.selectivity == 0.0
        assert plan.execute().rows == []


class TestExplain:
    def test_explain_mentions_both_options(self, rng):
        db = make_db(rng)
        text = plan_range_query(
            db, "t", ("x", "y"), Box(((5, 10), (5, 10)))
        ).explain()
        assert "index-scan" in text and "table-scan" in text
        assert "selectivity" in text

    def test_range_query_uses_planner(self, rng):
        db = make_db(rng)
        # Behavioral check: results identical regardless of plan.
        box = Box(((0, 127), (0, 100)))
        got = sorted((x, y) for _, x, y in db.range_query("t", ("x", "y"), box).rows)
        want = sorted(
            (x, y) for _, x, y in db.table("t") if box.contains_point((x, y))
        )
        assert got == want
