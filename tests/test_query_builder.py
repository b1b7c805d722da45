"""Chained single-table queries — spatial window, predicates,
projection, distinct, ordering, limit — composed by the one query
front end: SQL, or ``range_query`` for a bare window.  Each is checked
against a list comprehension over the stored rows."""

import pytest

from repro.core.geometry import Box, Grid
from repro.db import INTEGER, OID, Schema, SpatialDatabase
from repro.sql import ParseError, compile_sql, execute_sql

from conftest import random_points


@pytest.fixture
def db(rng):
    database = SpatialDatabase(Grid(2, 6))
    database.create_table(
        "cities",
        Schema.of(
            ("name@", OID), ("x", INTEGER), ("y", INTEGER), ("pop", INTEGER)
        ),
    )
    points = random_points(rng, database.grid, 120)
    database.insert_many(
        "cities",
        [
            (f"c{i}", x, y, (i * 37) % 1000)
            for i, (x, y) in enumerate(points)
        ],
    )
    database.create_index("cities_xy", "cities", ("x", "y"))
    return database


WINDOW = "BOX(0, 31, 0, 31) CONTAINS POINT(x, y)"


class TestChaining:
    def test_docstring_scenario(self):
        database = SpatialDatabase(Grid(2, 6))
        database.create_table(
            "cities",
            Schema.of(
                ("name@", OID),
                ("x", INTEGER),
                ("y", INTEGER),
                ("pop", INTEGER),
            ),
        )
        database.insert_many(
            "cities",
            [
                ("rome", 10, 20, 900),
                ("oslo", 11, 21, 600),
                ("faro", 50, 50, 60),
            ],
        )
        rows = execute_sql(
            database,
            "SELECT name@, pop FROM cities "
            "WHERE BOX(0, 30, 0, 30) CONTAINS POINT(x, y) AND pop >= 500 "
            "ORDER BY pop DESC",
        ).rows
        assert rows == [("rome", 900), ("oslo", 600)]

    def test_window_only(self, db):
        box = Box(((0, 31), (0, 31)))
        rows = db.range_query("cities", ("x", "y"), box).rows
        expected = [
            row for row in db.table("cities") if box.contains_point(row[1:3])
        ]
        assert rows == expected
        assert execute_sql(db, f"SELECT * FROM cities WHERE {WINDOW}").rows == (
            expected
        )

    def test_no_window_scans(self, db):
        assert len(execute_sql(db, "SELECT * FROM cities").rows) == 120

    def test_predicates_stack(self, db):
        rows = execute_sql(
            db, "SELECT * FROM cities WHERE pop > 300 AND pop < 700"
        ).rows
        assert rows == [r for r in db.table("cities") if 300 < r[3] < 700]

    def test_projection_and_distinct(self, db):
        out = execute_sql(db, "SELECT DISTINCT pop FROM cities")
        assert out.columns == ["pop"]
        values = [row[0] for row in out.rows]
        assert len(values) == len(set(values))
        assert set(values) == {r[3] for r in db.table("cities")}

    def test_order_and_limit(self, db):
        rows = execute_sql(
            db, "SELECT * FROM cities ORDER BY pop DESC LIMIT 5"
        ).rows
        pops = [row[3] for row in rows]
        assert pops == sorted(pops, reverse=True)
        assert pops == sorted((r[3] for r in db.table("cities")), reverse=True)[:5]

    def test_count(self, db):
        box = Box(((0, 31), (0, 31)))
        assert len(db.range_query("cities", ("x", "y"), box)) == len(
            execute_sql(db, f"SELECT name@ FROM cities WHERE {WINDOW}").rows
        )


class TestGuards:
    """A statement holds one select list, one ORDER BY and one LIMIT."""

    def test_double_select_rejected(self, db):
        with pytest.raises(ParseError):
            compile_sql(db, "SELECT pop SELECT x FROM cities")

    def test_double_order_rejected(self, db):
        with pytest.raises(ParseError):
            compile_sql(db, "SELECT pop FROM cities ORDER BY pop ORDER BY x")

    def test_double_limit_rejected(self, db):
        with pytest.raises(ParseError):
            compile_sql(db, "SELECT pop FROM cities LIMIT 1 LIMIT 2")


class TestExplain:
    def test_explain_with_window(self, db):
        text = compile_sql(
            db,
            "SELECT name@ FROM cities "
            "WHERE BOX(0, 7, 0, 7) CONTAINS POINT(x, y) AND pop > 0 LIMIT 3",
        ).explain()
        assert "RangeQuery" in text
        assert "filters (1, ordered by selectivity):" in text
        assert "project: name@" in text
        assert "limit: 3" in text

    def test_explain_without_window(self, db):
        text = compile_sql(db, "SELECT name@ FROM cities").explain()
        assert "access: table-scan" in text
