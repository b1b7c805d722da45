"""Binder tests: catalog resolution, type checking, typed BindErrors
with positions, and the planner's conjunct classification."""

import pytest

from repro.core.geometry import Box, Grid
from repro.db import (
    FLOAT,
    INTEGER,
    OID,
    SPATIAL_OBJECT,
    STRING,
    Schema,
    SpatialDatabase,
)
from repro.db.types import SpatialObject
from repro.sql import BindError, bind, parse


@pytest.fixture
def db():
    database = SpatialDatabase(Grid(2, 6))
    database.create_table(
        "points",
        Schema.of(
            ("id@", OID),
            ("x", INTEGER),
            ("y", INTEGER),
            ("w", FLOAT),
            ("tag", STRING),
        ),
    )
    database.insert_many(
        "points",
        [
            ("p0", 3, 4, 0.5, "red"),
            ("p1", 10, 12, 1.5, "blue"),
            ("p2", 40, 50, 2.5, "red"),
        ],
    )
    for table, prefix in (("regions", "r"), ("zones", "z")):
        database.create_table(
            table, Schema.of(("id@", OID), ("geom", SPATIAL_OBJECT))
        )
        database.insert_many(
            table,
            [
                (
                    f"{prefix}{i}",
                    SpatialObject.from_box(
                        f"{prefix}{i}",
                        Box(((i * 8, i * 8 + 6), (i * 8, i * 8 + 6))),
                    ),
                )
                for i in range(3)
            ],
        )
    return database


def _bind(db, source):
    return bind(db, parse(source), source)


def _err(db, source):
    with pytest.raises(BindError) as info:
        _bind(db, source)
    return info.value


class TestResolution:
    def test_unknown_table(self, db):
        err = _err(db, "SELECT * FROM nope")
        assert "unknown table" in str(err)

    def test_unknown_column_names_alternatives(self, db):
        source = "SELECT id@, bogus FROM points"
        err = _err(db, source)
        assert "bogus" in str(err) and "id@" in str(err)
        assert source[err.pos:err.pos + 5] == "bogus"

    def test_qualified_lookup(self, db):
        bound = _bind(db, "SELECT points.x FROM points")
        assert bound.projection == ["x"]

    def test_wrong_qualifier(self, db):
        err = _err(db, "SELECT zones.x FROM points")
        assert "zones" in str(err)

    def test_ambiguous_column_in_join(self, db):
        err = _err(
            db,
            "SELECT id@ FROM regions "
            "JOIN zones ON OVERLAPS(regions.geom, zones.geom)",
        )
        assert "ambiguous" in str(err)

    def test_join_output_columns_are_qualified(self, db):
        bound = _bind(
            db,
            "SELECT regions.id@ FROM regions "
            "JOIN zones ON OVERLAPS(regions.geom, zones.geom)",
        )
        assert bound.output_names == ["regions_id@", "zones_id@"]
        assert bound.projection == ["regions_id@"]


class TestTypeChecking:
    def test_where_must_be_boolean(self, db):
        err = _err(db, "SELECT * FROM points WHERE x + y")
        assert "boolean" in str(err).lower()

    def test_arithmetic_needs_numbers(self, db):
        err = _err(db, "SELECT * FROM points WHERE tag + 1 = 2")
        assert "numbers" in str(err).lower()

    def test_string_vs_number_comparison_rejected(self, db):
        _err(db, "SELECT * FROM points WHERE tag > 3")

    def test_string_equality_allowed(self, db):
        bound = _bind(db, "SELECT * FROM points WHERE tag = 'red'")
        assert bound.conjuncts[0].kind == "residual"

    def test_contains_needs_matching_dimensions(self, db):
        err = _err(
            db,
            "SELECT * FROM points WHERE BOX(0, 4) CONTAINS POINT(x)",
        )
        assert "dimension" in str(err).lower() or "2" in str(err)

    def test_contains_needs_integer_columns(self, db):
        _err(
            db,
            "SELECT * FROM points "
            "WHERE BOX(0, 4, 0, 4) CONTAINS POINT(w, y)",
        )

    def test_contains_needs_integer_bounds(self, db):
        _err(
            db,
            "SELECT * FROM points "
            "WHERE BOX(0.5, 4, 0, 4) CONTAINS POINT(x, y)",
        )

    def test_overlaps_needs_spatial_objects(self, db):
        err = _err(
            db,
            "SELECT * FROM points "
            "JOIN zones ON OVERLAPS(points.x, zones.geom)",
        )
        assert "spatial" in str(err).lower()

    def test_overlaps_needs_one_column_per_side(self, db):
        _err(
            db,
            "SELECT * FROM regions "
            "JOIN zones ON OVERLAPS(regions.geom, regions.geom)",
        )

    def test_self_join_rejected(self, db):
        _err(
            db,
            "SELECT * FROM regions "
            "JOIN regions ON OVERLAPS(regions.geom, regions.geom)",
        )

    def test_selecting_consumed_geometry_rejected(self, db):
        err = _err(
            db,
            "SELECT regions.geom FROM regions "
            "JOIN zones ON OVERLAPS(regions.geom, zones.geom)",
        )
        assert "geom" in str(err)

    def test_projection_duplicates_rejected(self, db):
        _err(db, "SELECT x, x FROM points")

    def test_order_by_needs_visible_column(self, db):
        _err(db, "SELECT x FROM points ORDER BY bogus")


class TestClassification:
    def test_z_window(self, db):
        bound = _bind(
            db,
            "SELECT * FROM points "
            "WHERE BOX(0, 16, 0, 16) CONTAINS POINT(x, y)",
        )
        (conjunct,) = bound.conjuncts
        assert conjunct.kind == "z-window"
        assert conjunct.box == Box(((0, 16), (0, 16)))
        assert conjunct.coord_cols == ("x", "y")

    def test_between_is_attr_range(self, db):
        bound = _bind(
            db, "SELECT * FROM points WHERE x BETWEEN 3 AND 9"
        )
        (conjunct,) = bound.conjuncts
        assert conjunct.kind == "attr-range"
        assert (conjunct.low, conjunct.high) == (3, 9)

    def test_flipped_compare_is_attr_range(self, db):
        bound = _bind(db, "SELECT * FROM points WHERE 7 >= x")
        (conjunct,) = bound.conjuncts
        assert conjunct.kind == "attr-range"
        assert conjunct.high == 7 and conjunct.low is None

    def test_equality_marked(self, db):
        bound = _bind(db, "SELECT * FROM points WHERE x = 10")
        (conjunct,) = bound.conjuncts
        assert conjunct.kind == "attr-range"
        assert (conjunct.low, conjunct.high) == (10, 10)

    def test_inequality_is_residual(self, db):
        bound = _bind(db, "SELECT * FROM points WHERE x != 10")
        assert bound.conjuncts[0].kind == "residual"

    def test_arithmetic_is_residual(self, db):
        bound = _bind(db, "SELECT * FROM points WHERE x + y > 10")
        assert bound.conjuncts[0].kind == "residual"

    def test_and_flattens_or_does_not(self, db):
        bound = _bind(
            db,
            "SELECT * FROM points "
            "WHERE x > 1 AND y > 2 AND (x = 1 OR y = 2)",
        )
        kinds = [c.kind for c in bound.conjuncts]
        assert kinds == ["attr-range", "attr-range", "residual"]

    def test_join_pushdown_routing(self, db):
        bound = _bind(
            db,
            "SELECT * FROM regions "
            "JOIN zones ON OVERLAPS(regions.geom, zones.geom) "
            "WHERE regions.id@ = 'r1' AND zones.id@ = 'z0'",
        )
        assert len(bound.left_push) == 1
        assert len(bound.right_push) == 1
        assert bound.conjuncts == []


class TestPredicates:
    def test_lowered_predicates_execute(self, db):
        bound = _bind(
            db,
            "SELECT * FROM points "
            "WHERE BOX(0, 16, 0, 16) CONTAINS POINT(x, y)",
        )
        relation = db.table("points")
        predicate = bound.conjuncts[0].predicate.bind(relation.schema)
        kept = [row[0] for row in relation.rows if predicate(row)]
        assert kept == ["p0", "p1"]
