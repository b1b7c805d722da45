"""Tests for the z-histogram selectivity estimator."""

import random

import pytest

from repro.core.geometry import Box, Grid
from repro.db.statistics import ZHistogram, estimate_matches, estimate_pages
from repro.storage.prefix_btree import ZkdTree
from repro.workloads.datasets import make_dataset

from conftest import random_box, random_points


def loaded(grid, points, capacity=20):
    tree = ZkdTree(grid, page_capacity=capacity)
    tree.insert_many(points)
    return tree


class TestZHistogram:
    def test_of_tree_counts(self, grid64, rng):
        tree = loaded(grid64, random_points(rng, grid64, 300))
        histogram = ZHistogram.of_tree(tree)
        assert histogram.nrecords == 300
        assert histogram.nbuckets == tree.npages

    def test_empty_tree(self, grid64):
        histogram = ZHistogram.of_tree(ZkdTree(grid64))
        assert histogram.nrecords == 0
        whole = [(0, grid64.npixels - 1)]
        expected, touched = histogram.overlap_stats(whole)
        assert expected == 0.0

    def test_whole_space_sums_to_n(self, grid64, rng):
        tree = loaded(grid64, random_points(rng, grid64, 250))
        histogram = ZHistogram.of_tree(tree)
        expected, touched = histogram.overlap_stats(
            [(0, grid64.npixels - 1)]
        )
        assert expected == pytest.approx(250)
        assert touched == histogram.nbuckets

    def test_bucket_spans_tile_code_space(self, grid64, rng):
        tree = loaded(grid64, random_points(rng, grid64, 200))
        histogram = ZHistogram.of_tree(tree)
        cursor = 0
        for index in range(histogram.nbuckets):
            lo, hi = histogram._bucket_span(index)
            assert lo == cursor
            cursor = hi + 1
        assert cursor == grid64.npixels


class TestEstimateMatches:
    def test_whole_space_exact(self, grid64, rng):
        tree = loaded(grid64, random_points(rng, grid64, 300))
        assert estimate_matches(tree, grid64.whole_space()) == pytest.approx(
            300
        )

    def test_empty_region(self, grid64, rng):
        tree = loaded(grid64, random_points(rng, grid64, 100))
        assert estimate_matches(tree, Box(((100, 120), (100, 120)))) == 0.0

    def test_beats_uniform_on_clusters(self):
        grid = Grid(2, 8)
        dataset = make_dataset("C", grid, 5000, seed=0)
        tree = loaded(grid, dataset.points)
        rng = random.Random(1)
        hist_err = 0.0
        unif_err = 0.0
        for _ in range(20):
            box = random_box(rng, grid)
            actual = tree.range_query(box).nmatches
            hist_err += abs(estimate_matches(tree, box) - actual)
            unif_err += abs(
                5000 * box.volume / grid.npixels - actual
            )
        assert hist_err < unif_err / 2

    def test_monotone_in_box_growth(self, grid64, rng):
        tree = loaded(grid64, random_points(rng, grid64, 400))
        small = estimate_matches(tree, Box(((10, 20), (10, 20))))
        large = estimate_matches(tree, Box(((5, 40), (5, 40))))
        assert small <= large


class TestEstimatePages:
    def test_close_to_actual(self, grid64, rng):
        tree = loaded(grid64, random_points(rng, grid64, 500))
        for _ in range(10):
            box = random_box(rng, grid64)
            actual = tree.range_query(box).pages_accessed
            estimated = estimate_pages(tree, box)
            assert abs(estimated - actual) <= max(3, actual)

    def test_whole_space_all_pages(self, grid64, rng):
        tree = loaded(grid64, random_points(rng, grid64, 400))
        assert estimate_pages(tree, grid64.whole_space()) == tree.npages

    def test_outside_is_zero(self, grid64, rng):
        tree = loaded(grid64, random_points(rng, grid64, 100))
        assert estimate_pages(tree, Box(((90, 99), (90, 99)))) == 0


class TestMemoisedStatistics:
    def test_histogram_of_follows_the_trees_mutation_epoch(
        self, grid64, rng, monkeypatch
    ):
        from repro.db import statistics

        tree = ZkdTree(grid64, page_capacity=8)
        tree.insert_many(random_points(rng, grid64, 120))
        builds = []
        real = ZHistogram.of_tree
        monkeypatch.setattr(
            ZHistogram, "of_tree", lambda t: builds.append(t) or real(t)
        )
        first = statistics.histogram_of(tree)
        assert statistics.histogram_of(tree) is first and len(builds) == 1
        box = Box(((3, 40), (5, 33)))
        assert estimate_matches(tree, box) == statistics.estimate_scan(tree, box)[0]
        assert estimate_pages(tree, box) == statistics.estimate_scan(tree, box)[1]
        assert len(builds) == 1  # four estimates, no rebuild
        tree.insert((1, 1))
        rebuilt = statistics.histogram_of(tree)
        assert rebuilt == real(tree) and rebuilt.nrecords == 121
        assert len(builds) == 2

    def test_column_histogram_follows_mutations_not_cardinality(self):
        """delete + insert keeps ``len(table)`` but changes the values:
        the cached histogram must not survive it (it did, keyed on
        cardinality — wrong selectivities, silently)."""
        from repro.db import INTEGER, OID, Schema, SpatialDatabase

        db = SpatialDatabase(Grid(2, 6))
        db.create_table("t", Schema.of(("id@", OID), ("v", INTEGER)))
        db.insert_many("t", [(i, i) for i in range(20)])
        before = db.column_histogram("t", "v")
        assert db.column_histogram("t", "v") is before
        db.delete("t", (19, 19))
        db.insert("t", (19, 1000))
        after = db.column_histogram("t", "v")
        assert after is not before
        assert after.bounds[-1] == 1000.0 and before.bounds[-1] == 19.0
