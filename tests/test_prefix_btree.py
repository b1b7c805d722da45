"""Tests for the zkd B+-tree (points in z order, paged leaves)."""


import pytest

from repro.core.geometry import Box
from repro.core.rangesearch import brute_force_search, range_search_bigmin
from repro.storage.btree import BTreeCursor
from repro.storage.buffer import ReplacementPolicy
from repro.storage.prefix_btree import ZkdTree

from conftest import random_box, random_points


def loaded_tree(grid, points, page_capacity=20):
    tree = ZkdTree(grid, page_capacity=page_capacity)
    tree.insert_many(points)
    return tree


class TestMaintenance:
    def test_insert_and_contains(self, grid64):
        tree = ZkdTree(grid64)
        tree.insert((3, 5))
        assert (3, 5) in tree
        assert (5, 3) not in tree
        assert len(tree) == 1

    def test_insert_validates(self, grid64):
        tree = ZkdTree(grid64)
        with pytest.raises(ValueError):
            tree.insert((64, 0))

    def test_delete(self, grid64):
        tree = ZkdTree(grid64)
        tree.insert((3, 5))
        assert tree.delete((3, 5))
        assert (3, 5) not in tree
        assert not tree.delete((3, 5))

    def test_duplicate_points(self, grid64):
        tree = ZkdTree(grid64)
        tree.insert((3, 5))
        tree.insert((3, 5))
        assert len(tree) == 2
        result = tree.range_query(Box(((3, 3), (5, 5))))
        assert result.matches == ((3, 5), (3, 5))

    def test_points_in_z_order(self, grid64, rng):
        points = random_points(rng, grid64, 100)
        tree = loaded_tree(grid64, points)
        stored = tree.points()
        zs = [grid64.zvalue(p).bits for p in stored]
        assert zs == sorted(zs)
        assert sorted(stored) == sorted(map(tuple, points))

    def test_npages_tracks_capacity(self, grid64, rng):
        points = random_points(rng, grid64, 200)
        tree = loaded_tree(grid64, points, page_capacity=20)
        assert tree.npages >= 200 // 20
        tree.tree.check_invariants()


class TestRangeQueries:
    def test_matches_brute_force(self, grid64, rng):
        points = random_points(rng, grid64, 400)
        tree = loaded_tree(grid64, points)
        for _ in range(15):
            box = random_box(rng, grid64)
            result = tree.range_query(box)
            truth = brute_force_search(grid64, points, box)
            assert list(result.matches) == truth

    def test_bigmin_variant_agrees(self, grid64, rng):
        points = random_points(rng, grid64, 300)
        tree = loaded_tree(grid64, points)
        for _ in range(10):
            box = random_box(rng, grid64)
            a = tree.range_query(box)
            b = range_search_bigmin(BTreeCursor(tree.tree), grid64, box)
            assert a.matches == tuple(b)

    def test_empty_result(self, grid64):
        tree = loaded_tree(grid64, [(0, 0), (63, 63)])
        result = tree.range_query(Box(((30, 31), (30, 31))))
        assert result.matches == ()
        assert result.nmatches == 0

    def test_whole_space_returns_everything(self, grid64, rng):
        points = random_points(rng, grid64, 100)
        tree = loaded_tree(grid64, points)
        result = tree.range_query(grid64.whole_space())
        assert result.nmatches == 100
        assert result.pages_accessed == tree.npages

    def test_3d_queries(self, grid3d, rng):
        points = random_points(rng, grid3d, 300)
        tree = loaded_tree(grid3d, points)
        box = Box(((2, 9), (1, 12), (5, 14)))
        result = tree.range_query(box)
        assert list(result.matches) == brute_force_search(
            grid3d, points, box
        )


class TestAccessAccounting:
    def test_small_query_touches_few_pages(self, grid64, rng):
        points = random_points(rng, grid64, 500)
        tree = loaded_tree(grid64, points, page_capacity=20)
        result = tree.range_query(Box(((10, 13), (10, 13))))
        assert result.pages_accessed < tree.npages / 2

    def test_efficiency_definition(self, grid64, rng):
        points = random_points(rng, grid64, 300)
        tree = loaded_tree(grid64, points)
        result = tree.range_query(Box(((0, 31), (0, 31))))
        if result.records_on_pages:
            assert result.efficiency == pytest.approx(
                result.nmatches / result.records_on_pages
            )
        assert 0.0 <= result.efficiency <= 1.0

    def test_efficiency_zero_when_nothing_touched(self, grid64):
        tree = ZkdTree(grid64)
        result = tree.range_query(Box(((0, 1), (0, 1))))
        assert result.efficiency == 0.0

    def test_access_log_reset_per_query(self, grid64, rng):
        points = random_points(rng, grid64, 300)
        tree = loaded_tree(grid64, points)
        first = tree.range_query(Box(((0, 15), (0, 15))))
        second = tree.range_query(Box(((0, 15), (0, 15))))
        assert first.pages_accessed == second.pages_accessed

    def test_larger_queries_cost_more_pages(self, grid64, rng):
        points = random_points(rng, grid64, 500)
        tree = loaded_tree(grid64, points)
        small = tree.range_query(Box(((16, 23), (16, 23))))
        large = tree.range_query(Box(((0, 47), (0, 47))))
        assert small.pages_accessed <= large.pages_accessed


class TestPartialMatch:
    def test_pins_one_axis(self, grid64, rng):
        points = random_points(rng, grid64, 400)
        tree = loaded_tree(grid64, points)
        result = tree.partial_match_query((20, None))
        expected = sorted(
            (p for p in map(tuple, points) if p[0] == 20),
            key=lambda p: grid64.zvalue(p).bits,
        )
        assert list(result.matches) == expected

    def test_wrong_arity_rejected(self, grid64):
        tree = ZkdTree(grid64)
        with pytest.raises(ValueError):
            tree.partial_match_query((1, 2, 3))

    def test_out_of_range_value_rejected(self, grid64):
        tree = ZkdTree(grid64)
        with pytest.raises(ValueError):
            tree.partial_match_query((64, None))

    def test_all_axes_unrestricted_is_full_scan(self, grid64, rng):
        points = random_points(rng, grid64, 100)
        tree = loaded_tree(grid64, points)
        result = tree.partial_match_query((None, None))
        assert result.nmatches == 100


class TestPartitionMap:
    def test_map_dimensions(self, grid8, rng):
        points = random_points(rng, grid8, 40)
        tree = loaded_tree(grid8, points, page_capacity=4)
        matrix = tree.partition_map()
        assert len(matrix) == 8 and all(len(row) == 8 for row in matrix)

    def test_pages_cover_contiguous_z_ranges(self, grid8, rng):
        points = random_points(rng, grid8, 40)
        tree = loaded_tree(grid8, points, page_capacity=4)
        matrix = tree.partition_map()
        from repro.core.interleave import interleave

        by_z = sorted(
            (interleave((x, y), 3), matrix[y][x])
            for x in range(8)
            for y in range(8)
        )
        pages = [page for _, page in by_z]
        # Page ordinals must be non-decreasing along the z order.
        assert pages == sorted(pages)

    def test_page_of_point_consistent_with_map(self, grid8, rng):
        points = random_points(rng, grid8, 40)
        tree = loaded_tree(grid8, points, page_capacity=4)
        matrix = tree.partition_map()
        for x in range(8):
            for y in range(8):
                assert tree.page_of_point((x, y)) == matrix[y][x]

    def test_partition_map_is_2d_only(self, grid3d):
        tree = ZkdTree(grid3d)
        tree.insert((0, 0, 0))
        with pytest.raises(ValueError):
            tree.partition_map()


class TestBufferPolicies:
    def test_merge_insensitive_to_policy(self, grid64, rng):
        """Section 4: merges touch each page once, so LRU vs FIFO vs MRU
        gives identical distinct-page counts."""
        points = random_points(rng, grid64, 400)
        box = Box(((5, 40), (10, 50)))
        counts = set()
        for policy in ReplacementPolicy:
            tree = ZkdTree(grid64, page_capacity=20, policy=policy)
            tree.insert_many(points)
            counts.add(tree.range_query(box).pages_accessed)
        assert len(counts) == 1
