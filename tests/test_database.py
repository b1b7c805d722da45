"""Tests for the SpatialDatabase facade and catalog."""

import pytest

from repro.concurrency import SnapshotManager
from repro.core.geometry import Box, Grid
from repro.db.catalog import Catalog, IndexEntry
from repro.db.database import SpatialDatabase
from repro.db.relation import VersionedRelation
from repro.db.schema import Schema
from repro.db.types import INTEGER, OID, SPATIAL_OBJECT, SpatialObject
from repro.storage.prefix_btree import ZkdTree

from conftest import random_points


def make_db(grid=None):
    db = SpatialDatabase(grid or Grid(2, 6))
    db.create_table(
        "cities", Schema.of(("city@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    return db


def register_table(cat, *columns):
    relation = VersionedRelation("t", Schema.of(*columns), SnapshotManager())
    cat.register(relation)
    return relation


class TestCatalog:
    def test_create_and_lookup(self):
        cat = Catalog()
        rel = register_table(cat, ("x", INTEGER))
        assert cat.relation("t") is rel
        assert cat.relation_names() == ["t"]
        assert cat.has_relation("t")

    def test_duplicate_relation_rejected(self):
        cat = Catalog()
        register_table(cat, ("x", INTEGER))
        with pytest.raises(ValueError):
            register_table(cat, ("x", INTEGER))

    def test_missing_relation(self):
        with pytest.raises(KeyError):
            Catalog().relation("nope")

    def test_drop_relation_drops_indexes(self):
        cat = Catalog()
        register_table(cat, ("x", INTEGER), ("y", INTEGER))
        tree = ZkdTree(Grid(2, 4))
        cat.register_index(IndexEntry("ix", "t", ("x", "y"), tree))
        cat.drop_relation("t")
        assert not cat.has_relation("t")
        with pytest.raises(KeyError):
            cat.index("ix")

    def test_index_requires_relation(self):
        cat = Catalog()
        tree = ZkdTree(Grid(2, 4))
        with pytest.raises(KeyError):
            cat.register_index(IndexEntry("ix", "absent", ("x", "y"), tree))

    def test_duplicate_index_rejected(self):
        cat = Catalog()
        register_table(cat, ("x", INTEGER), ("y", INTEGER))
        tree = ZkdTree(Grid(2, 4))
        cat.register_index(IndexEntry("ix", "t", ("x", "y"), tree))
        with pytest.raises(ValueError):
            cat.register_index(IndexEntry("ix", "t", ("x", "y"), tree))

    def test_indexes_on(self):
        cat = Catalog()
        register_table(cat, ("x", INTEGER), ("y", INTEGER))
        tree = ZkdTree(Grid(2, 4))
        entry = IndexEntry("ix", "t", ("x", "y"), tree)
        cat.register_index(entry)
        assert cat.indexes_on("t") == [entry]
        assert cat.indexes_on("other") == []

    def test_drop_index(self):
        cat = Catalog()
        register_table(cat, ("x", INTEGER), ("y", INTEGER))
        cat.register_index(IndexEntry("ix", "t", ("x", "y"), ZkdTree(Grid(2, 4))))
        cat.drop_index("ix")
        with pytest.raises(KeyError):
            cat.drop_index("ix")


class TestSpatialDatabase:
    def test_insert_and_range_query_without_index(self, rng):
        db = make_db()
        rows = [
            (f"c{i}", x, y)
            for i, (x, y) in enumerate(random_points(rng, db.grid, 100))
        ]
        db.insert_many("cities", rows)
        box = Box(((10, 30), (20, 50)))
        result = db.range_query("cities", ("x", "y"), box)
        expected = sorted(
            (x, y) for _, x, y in rows if 10 <= x <= 30 and 20 <= y <= 50
        )
        assert sorted((x, y) for _, x, y in result.rows) == expected

    def test_index_accelerated_query_agrees(self, rng):
        db = make_db()
        rows = [
            (f"c{i}", x, y)
            for i, (x, y) in enumerate(random_points(rng, db.grid, 150))
        ]
        db.insert_many("cities", rows)
        box = Box(((5, 45), (10, 60)))
        plan_result = sorted(db.range_query("cities", ("x", "y"), box).rows)
        db.create_index("cities_xy", "cities", ("x", "y"))
        index_result = sorted(db.range_query("cities", ("x", "y"), box).rows)
        assert plan_result == index_result

    def test_index_maintained_on_insert(self):
        db = make_db()
        db.create_index("cities_xy", "cities", ("x", "y"))
        db.insert("cities", ("late", 10, 10))
        result = db.range_query("cities", ("x", "y"), Box(((10, 10), (10, 10))))
        assert result.rows == [("late", 10, 10)]

    @pytest.mark.parametrize("index_first", [False, True])
    def test_duplicate_point_deletes_remove_one_entry_each(self, index_first):
        """The tree holds one entry per *row*: deleting one of two rows
        at a point removes one entry (not none), deleting the other
        removes the last (no ghost keeps matching or taking a k-NN
        rank), and the coordinate map keeps both dead positions for the
        snapshots pinned before the deletes. Holds whether the index is
        built over the rows or maintained as they are inserted."""
        db = make_db()
        rows = [("a", 5, 5), ("b", 5, 5), ("c", 9, 9), ("d", 20, 20)]
        if index_first:
            entry = db.create_index("cities_xy", "cities", ("x", "y"))
            db.insert_many("cities", rows)
        else:
            db.insert_many("cities", rows)
            entry = db.create_index("cities_xy", "cities", ("x", "y"))
        cols, everywhere = ("x", "y"), db.grid.whole_space()
        assert entry.positions[(5, 5)] == [0, 1]

        assert db.delete("cities", ("a", 5, 5))
        assert len(entry.tree) == 3
        assert db.range_query("cities", cols, everywhere).rows == [
            ("b", 5, 5), ("c", 9, 9), ("d", 20, 20)
        ]
        assert db.knn_query("cities", cols, (5, 5), k=2).rows == [
            ("b", 5, 5), ("c", 9, 9)
        ]

        assert db.delete("cities", ("b", 5, 5))
        assert len(entry.tree) == 2
        assert (5, 5) not in entry.tree.range_query(everywhere).matches
        assert db.knn_query("cities", cols, (5, 5), k=2).rows == [
            ("c", 9, 9), ("d", 20, 20)
        ]
        assert not db.delete("cities", ("b", 5, 5))
        assert entry.positions[(5, 5)] == [0, 1]
        # a dead row's position is never reused: a new row gets a new one
        db.insert("cities", ("e", 5, 5))
        assert entry.positions[(5, 5)] == [0, 1, 4]
        assert db.range_query("cities", cols, everywhere).rows == [
            ("c", 9, 9), ("d", 20, 20), ("e", 5, 5)
        ]

    def test_range_query_stats_requires_index(self):
        db = make_db()
        with pytest.raises(ValueError):
            db.range_query_stats("cities", ("x", "y"), Box(((0, 1), (0, 1))))

    def test_range_query_stats(self, rng):
        db = make_db()
        rows = [
            (f"c{i}", x, y)
            for i, (x, y) in enumerate(random_points(rng, db.grid, 200))
        ]
        db.insert_many("cities", rows)
        db.create_index("cities_xy", "cities", ("x", "y"))
        stats = db.range_query_stats(
            "cities", ("x", "y"), Box(((0, 31), (0, 31)))
        )
        assert stats.pages_accessed > 0
        assert 0.0 <= stats.efficiency <= 1.0

    def test_index_dimension_check(self):
        db = make_db()
        with pytest.raises(ValueError):
            db.create_index("bad", "cities", ("x",))

    def test_doctest_scenario(self):
        db = SpatialDatabase(Grid(ndims=2, depth=6))
        db.create_table(
            "cities", Schema.of(("city@", OID), ("x", INTEGER), ("y", INTEGER))
        )
        db.insert("cities", ("rome", 10, 20))
        db.create_index("cities_xy", "cities", ("x", "y"))
        result = db.range_query("cities", ("x", "y"), Box(((0, 15), (0, 63))))
        assert result.rows == [("rome", 10, 20)]

    def test_overlap_query_through_facade(self):
        db = SpatialDatabase(Grid(2, 6))
        db.create_table(
            "parcels", Schema.of(("p@", OID), ("shape", SPATIAL_OBJECT))
        )
        db.create_table(
            "zones", Schema.of(("q@", OID), ("shape", SPATIAL_OBJECT))
        )
        db.insert(
            "parcels",
            ("p1", SpatialObject.from_box("p1", Box(((0, 15), (0, 15))))),
        )
        db.insert(
            "zones",
            ("zA", SpatialObject.from_box("zA", Box(((10, 20), (10, 20))))),
        )
        result = db.overlap_query("parcels", "zones", "shape", "p@", "q@")
        assert result.rows == [("p1", "zA")]


class TestOneMode:
    """Every database is versioned, so a failed batch rolls back in the
    one group commit whatever the index looks like."""

    @pytest.mark.parametrize("cache", [False, True])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_failed_insert_many_changes_nothing(self, rng, shards, cache):
        db = SpatialDatabase(Grid(2, 6), cache=cache)
        db.create_table(
            "cities", Schema.of(("city@", OID), ("x", INTEGER), ("y", INTEGER))
        )
        db.insert_many(
            "cities",
            [
                (f"c{i}", x, y)
                for i, (x, y) in enumerate(random_points(rng, db.grid, 60))
            ],
        )
        entry = db.create_index(
            "cities_xy", "cities", ("x", "y"), shards=shards
        )
        cols, box = ("x", "y"), Box(((0, 40), (0, 40)))
        answer = db.range_query("cities", cols, box).rows

        def state():
            return (
                len(db.table("cities")),
                len(entry.tree),
                db.range_query("cities", cols, Box(((0, 20), (0, 63)))).rows,
            )

        before = state()
        # the third row fails validation after two rows were applied
        batch = [("n1", 1, 1), ("n2", 2, 2), ("n3", "three", 3)]
        with pytest.raises(TypeError):
            db.insert_many("cities", batch)
        assert state() == before
        assert db.range_query("cities", cols, box).rows == answer

    def test_only_the_ledger_literal_is_accepted(self):
        assert SpatialDatabase(Grid(2, 6), concurrency=True).snapshots
        with pytest.raises(ValueError, match="versioned"):
            SpatialDatabase(Grid(2, 6), concurrency=False)
