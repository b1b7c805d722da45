"""Tests for the z-histogram selectivity estimator."""

import bisect
import random

import pytest

from repro.core.geometry import Box, Grid
from repro.db.statistics import (
    ZHistogram,
    estimate_matches,
    estimate_pages,
    estimate_scan,
)
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


def _old_overlap_expected(histogram, intervals):
    """``ZHistogram.overlap_stats(...)[0]`` as it was before the fused
    pass — kept here as the oracle."""
    expected = 0.0
    for zlo, zhi in intervals:
        index = max(0, bisect.bisect_right(histogram.bounds, zlo) - 1)
        while index < histogram.nbuckets:
            blo, bhi = histogram._bucket_span(index)
            if blo > zhi:
                break
            overlap = min(zhi, bhi) - max(zlo, blo) + 1
            if overlap > 0:
                expected += histogram.counts[index] * overlap / (bhi - blo + 1)
            index += 1
    return expected


def _old_pages_for(histogram, intervals):
    """``statistics._pages_for`` as it was: distinct buckets touched."""
    touched = set()
    for zlo, zhi in intervals:
        index = max(0, bisect.bisect_right(histogram.bounds, zlo) - 1)
        while index < histogram.nbuckets:
            blo, bhi = histogram._bucket_span(index)
            if blo > zhi:
                break
            if min(zhi, bhi) >= max(zlo, blo):
                touched.add(index)
            index += 1
    return len(touched)


class TestFusedHistogramPass:
    """One forward pass returns bit-identical ``(expected, pages)`` to
    the two bisect-per-interval loops it replaced."""

    @staticmethod
    def random_intervals(rng, npixels, n):
        cuts = sorted(rng.sample(range(npixels), min(2 * n, npixels)))
        return list(zip(cuts[0::2], cuts[1::2]))

    @pytest.mark.parametrize("capacity", [4, 20])
    def test_equals_the_old_two_functions(self, grid64, rng, capacity):
        tree = loaded(grid64, random_points(rng, grid64, 600), capacity)
        histogram = ZHistogram.of_tree(tree)
        last = grid64.npixels - 1
        cases = [
            [],
            [(0, last)],  # spans every bucket, open-ended last included
            [(histogram.bounds[-1], last)],  # exactly the last bucket
            [(histogram.bounds[-1] + 1, last)],
            [(last, last)],
            [(0, 0), (last, last)],
            [(histogram.bounds[1] - 1, histogram.bounds[3])],
        ]
        for n in (1, 3, 40, 400):
            cases.extend(
                self.random_intervals(rng, grid64.npixels, n)
                for _ in range(10)
            )
        for intervals in cases:
            expected, pages = histogram.overlap_stats(intervals)
            # == on floats: same additions in the same order
            assert expected == _old_overlap_expected(histogram, intervals)
            assert pages == _old_pages_for(histogram, intervals)

    def test_duplicate_bounds_and_a_single_bucket(self):
        # a run of equal keys spilling over pages repeats a low bound
        histogram = ZHistogram(6, (0, 10, 10, 10, 40), (5, 7, 7, 7, 3))
        single = ZHistogram(6, (0,), (9,))
        for intervals in ([(0, 63)], [(9, 10)], [(10, 10), (12, 39), (41, 50)]):
            for h in (histogram, single):
                assert h.overlap_stats(intervals) == (
                    _old_overlap_expected(h, intervals),
                    _old_pages_for(h, intervals),
                )

    def test_estimate_scan_on_real_boxes(self, grid64, rng):
        from repro.core.decompose import box_intervals

        tree = loaded(grid64, random_points(rng, grid64, 500))
        histogram = ZHistogram.of_tree(tree)
        for _ in range(25):
            box = random_box(rng, grid64)
            intervals = box_intervals(grid64, box)
            assert estimate_scan(tree, box) == (
                _old_overlap_expected(histogram, intervals),
                _old_pages_for(histogram, intervals),
            )


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
