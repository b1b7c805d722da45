"""Tests for proximity and kNN queries through the database facade."""

import math

import pytest

from repro.core.geometry import Grid
from repro.db.database import SpatialDatabase
from repro.db.schema import Schema
from repro.db.types import INTEGER, OID

from conftest import random_points


def make_db(rng, n=200):
    db = SpatialDatabase(Grid(2, 6))
    db.create_table(
        "sites", Schema.of(("s@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    rows = [
        (f"s{i}", x, y)
        for i, (x, y) in enumerate(random_points(rng, db.grid, n))
    ]
    db.insert_many("sites", rows)
    db.create_index("sites_xy", "sites", ("x", "y"))
    return db, rows


class TestProximityQuery:
    def test_matches_distance_filter(self, rng):
        db, rows = make_db(rng)
        out = db.proximity_query("sites", ("x", "y"), (30, 30), 9.0)
        expected = sorted(
            row for row in rows if math.dist(row[1:], (30, 30)) <= 9.0
        )
        assert sorted(out.rows) == expected

    def test_requires_index(self, rng):
        db = SpatialDatabase(Grid(2, 6))
        db.create_table(
            "bare", Schema.of(("b@", OID), ("x", INTEGER), ("y", INTEGER))
        )
        with pytest.raises(ValueError):
            db.proximity_query("bare", ("x", "y"), (0, 0), 1.0)

    def test_zero_radius(self, rng):
        db, rows = make_db(rng)
        target = rows[0]
        out = db.proximity_query(
            "sites", ("x", "y"), (target[1], target[2]), 0.0
        )
        assert all(
            (x, y) == (target[1], target[2]) for _, x, y in out.rows
        )
        assert target in out.rows


class TestNearestNeighbours:
    def test_order_and_count(self, rng):
        db, rows = make_db(rng)
        center = (20, 45)
        out = db.knn_query("sites", ("x", "y"), center, k=5)
        assert len(out) == 5
        distances = [math.dist(row[1:], center) for row in out]
        assert distances == sorted(distances)
        # The 5th is no farther than any excluded row.
        excluded = [
            math.dist(row[1:], center)
            for row in rows
            if row not in out.rows
        ]
        assert distances[-1] <= min(excluded) + 1e-9

    def test_k_exceeds_table(self, rng):
        db = SpatialDatabase(Grid(2, 6))
        db.create_table(
            "tiny", Schema.of(("t@", OID), ("x", INTEGER), ("y", INTEGER))
        )
        db.insert_many("tiny", [("a", 1, 1), ("b", 2, 2)])
        db.create_index("tiny_xy", "tiny", ("x", "y"))
        out = db.knn_query("tiny", ("x", "y"), (0, 0), k=10)
        assert len(out) == 2
