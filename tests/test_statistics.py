"""Tests for the selectivity estimator read off the zkd index."""

import bisect
import random
import sys
import threading

import pytest

from repro.core.decompose import box_intervals
from repro.core.geometry import Box, Grid
from repro.db.statistics import (
    estimate_matches,
    estimate_pages,
    estimate_scan,
)
from repro.storage.btree import _InnerNode
from repro.storage.prefix_btree import ZkdTree
from repro.workloads.datasets import make_dataset

from conftest import random_box, random_points


def loaded(grid, points, capacity=20):
    tree = ZkdTree(grid, page_capacity=capacity)
    tree.insert_many(points)
    return tree


def leaf_spans(tree):
    """``(lo, hi, count)`` per leaf in key order, flattened from the
    index: a leaf owns ``(left separator, right separator]``, and a run
    of equal separators leaves a leaf the one code it repeats."""
    btree = tree.tree
    leaves, separators = [], []

    def walk(node):
        if isinstance(node, _InnerNode):
            for index, child in enumerate(node.children):
                if index:
                    separators.append(node.keys[index - 1])
                walk(child)
        else:
            leaves.append(node)

    walk(btree._root)
    bounds = [-1] + separators + [tree.grid.npixels - 1]
    return [
        (min(bounds[i] + 1, bounds[i + 1]), bounds[i + 1], btree._counts[leaf])
        for i, leaf in enumerate(leaves)
    ]


def _old_overlap_expected(spans, intervals):
    """The expected-matches loop, one bisect per interval, over the
    leaves' separator spans — the oracle of the fused pass."""
    his = [hi for _, hi, _ in spans]
    expected = 0.0
    for zlo, zhi in intervals:
        index = bisect.bisect_left(his, zlo)
        while index < len(spans):
            lo, hi, count = spans[index]
            if lo > zhi:
                break
            overlap = min(zhi, hi) - max(zlo, lo) + 1
            if overlap > 0:
                expected += count * overlap / (hi - lo + 1)
            index += 1
    return expected


def _old_pages_for(spans, intervals):
    """The pages loop: distinct leaves the intervals meet, plus the
    leftmost leaf, where every scan starts."""
    touched = {0}
    for zlo, zhi in intervals:
        for index, (lo, hi, _) in enumerate(spans):
            if min(zhi, hi) >= max(zlo, lo):
                touched.add(index)
    return len(touched)


def oracle(tree, intervals):
    spans = leaf_spans(tree)
    return (
        _old_overlap_expected(spans, intervals),
        _old_pages_for(spans, intervals),
    )


def overlap_stats(btree, intervals):
    """``(expected records, pages read)`` of a scan of disjoint z-sorted
    inclusive ``intervals``: one descent per inner node they meet, a
    forward bisect of its keys, and a sweep of the intervals over each
    leaf's span.  This is the estimate before the leaf walk, fed the
    box's full decomposition — its oracle."""
    if not intervals:
        return 0.0, 0
    counts = btree._counts
    leftmost = btree._first_leaf
    nintervals = len(intervals)
    at = 0  # the first interval not yet wholly counted
    expected = 0.0
    pages = 1  # the leftmost leaf, until the intervals meet it

    def visit(node, lo, hi):
        nonlocal at, expected, pages
        if isinstance(node, _InnerNode):
            keys, children = list(node.keys), list(node.children)
        else:  # a one-leaf tree
            keys, children = [], [node]
        nkeys = min(len(keys), len(children) - 1)
        bottom = not isinstance(children[0], _InnerNode)
        i = bisect.bisect_left(keys, intervals[at][0], 0, nkeys)
        while True:
            chi = keys[i] if i < nkeys else hi
            clo = min(keys[i - 1] + 1 if i else lo, chi)
            if not bottom:
                visit(children[i], clo, chi)
            else:
                count = counts.get(children[i], 0)
                width = chi - clo + 1
                touched = False
                while at < nintervals:
                    zlo, zhi = intervals[at]
                    if zlo > chi:
                        break
                    if zhi >= clo:
                        overlap = min(zhi, chi) - max(zlo, clo) + 1
                        expected += count * overlap / width
                        touched = True
                    if zhi >= chi:
                        break  # it may meet the next leaf too
                    at += 1
                if touched and children[i] != leftmost:
                    pages += 1
            if at == nintervals or i == nkeys:
                return
            zlo = intervals[at][0]
            if zlo > hi:
                return
            if zlo <= chi:
                i += 1
            else:
                i = bisect.bisect_left(keys, zlo, i + 1, nkeys)

    visit(btree._root, 0, (1 << btree._total_bits) - 1)
    return expected, pages


def churned(grid, rng, capacity, n, side=None, order=32):
    """A tree after inserts and then deletes of a random half, so leaves
    have split, borrowed and merged; ``side`` < the grid's side piles
    duplicates over several pages."""
    side = side or grid.side
    points = [(rng.randrange(side), rng.randrange(side)) for _ in range(n)]
    tree = ZkdTree(grid, page_capacity=capacity, order=order)
    tree.insert_many(points)
    for point in rng.sample(points, n // 2):
        tree.delete(point)
    return tree


class TestZHistogram:
    """The index's leaves read as an equi-depth histogram over z: the
    separators from the inner nodes, the record counts kept per leaf."""

    def test_of_tree_counts(self, grid64, rng):
        tree = churned(grid64, rng, 4, 300)
        btree = tree.tree
        btree.check_invariants()
        assert set(btree._counts) == set(btree.leaf_ids())
        assert sum(btree._counts.values()) == len(tree) == 150

    def test_empty_tree(self, grid64):
        tree = ZkdTree(grid64)
        assert estimate_scan(tree, grid64.whole_space()) == (0.0, 1)
        assert overlap_stats(tree.tree, []) == (0.0, 0)

    def test_whole_space_sums_to_n(self, grid64, rng):
        tree = churned(grid64, rng, 4, 500, order=4)
        expected, pages = estimate_scan(tree, grid64.whole_space())
        assert expected == pytest.approx(len(tree))
        assert pages == tree.tree.nleaves > 1

    def test_bucket_spans_tile_code_space(self, grid64, rng):
        tree = churned(grid64, rng, 4, 400, order=4)
        cursor = 0
        for lo, hi, _ in leaf_spans(tree):
            assert lo == cursor
            cursor = hi + 1
        assert cursor == grid64.npixels
        # so estimates over a partition of the code space sum to n
        cuts = [0] + sorted(rng.sample(range(1, grid64.npixels), 50))
        ends = [cut - 1 for cut in cuts[1:]] + [grid64.npixels - 1]
        total = sum(
            overlap_stats(tree.tree, [(lo, hi)])[0] for lo, hi in zip(cuts, ends)
        )
        assert total == pytest.approx(len(tree))



class TestFusedHistogramPass:
    """The oracle's one pass down the index returns the ``(expected,
    pages)`` of the two bisect-per-interval loops over the flattened
    leaf spans."""

    @staticmethod
    def random_intervals(rng, npixels, n):
        cuts = sorted(rng.sample(range(npixels), min(2 * n, npixels)))
        return list(zip(cuts[0::2], cuts[1::2]))

    @pytest.mark.parametrize("capacity", [4, 20])
    def test_equals_the_old_two_functions(self, grid64, rng, capacity):
        tree = churned(grid64, rng, capacity, 1200, order=4)
        spans = leaf_spans(tree)
        last = grid64.npixels - 1
        cases = [
            [(0, last)],  # spans every leaf
            [(spans[-1][0], last)],  # exactly the last leaf
            [(spans[-1][0] + 1, last)],
            [(last, last)],
            [(0, 0), (last, last)],
            [(spans[1][1], spans[3][1])],  # ends on a separator
            [(spans[1][1] + 1, spans[3][1] + 1)],
        ]
        for n in (1, 3, 40, 400):
            cases.extend(
                self.random_intervals(rng, grid64.npixels, n)
                for _ in range(10)
            )
        for intervals in cases:
            expected, pages = overlap_stats(tree.tree, intervals)
            assert expected == pytest.approx(
                _old_overlap_expected(spans, intervals)
            )
            assert pages == _old_pages_for(spans, intervals)

    def test_duplicate_bounds_and_a_single_bucket(self, grid64, rng):
        # a run of equal keys spilling over pages repeats a separator
        piled = churned(grid64, rng, 2, 300, side=3, order=3)
        spans = leaf_spans(piled)
        assert any(lo == hi for lo, hi, _ in spans)
        single = ZkdTree(grid64)
        single.insert_many([(1, 1), (5, 9), (60, 2)])
        assert isinstance(single.tree._root, int)
        for intervals in (
            [(0, grid64.npixels - 1)],
            [(0, 3), (12, 12), (15, 40)],
            [(9, 10), (4000, 4095)],
        ):
            for tree in (piled, single):
                expected, pages = overlap_stats(tree.tree, intervals)
                want_expected, want_pages = oracle(tree, intervals)
                assert expected == pytest.approx(want_expected)
                assert pages == want_pages

    def test_estimate_scan_on_real_boxes(self, grid64, rng):
        tree = churned(grid64, rng, 8, 1000)
        for _ in range(25):
            box = random_box(rng, grid64)
            expected, pages = estimate_scan(tree, box)
            want_expected, want_pages = oracle(
                tree, box_intervals(grid64, box)
            )
            assert expected == pytest.approx(want_expected)
            assert pages == want_pages


def lattice(grid, rng, n):
    """Points on a coarse lattice, each repeated many times: runs of
    equal keys spill over pages, so equal separators leave one-code
    leaves."""
    step = grid.side // 4
    return [
        tuple(step * rng.randrange(4) for _ in range(grid.ndims))
        for _ in range(n)
    ]


def differential_boxes(rng, grid, n):
    """From one pixel to the whole grid: fixed corners, boxes wholly
    off the grid and clipped by it, then random ones, some reaching
    past the grid's faces."""
    side, ndims = grid.side, grid.ndims

    def cube(lo, hi):
        return Box(((lo, hi),) * ndims)

    boxes = [
        grid.whole_space(),
        cube(0, 0),
        cube(side - 1, side - 1),
        cube(-6, -1),
        cube(side, side + 9),
        cube(-3, side // 2),
        cube(side // 3, side + 3),
    ]
    for _ in range(n):
        ranges = []
        for _ in range(ndims):
            lo = rng.randrange(-3, side + 1)
            width = rng.choice([0, 1, rng.randrange(side // 4 + 1), rng.randrange(side)])
            ranges.append((lo, lo + width))
        boxes.append(Box(tuple(ranges)))
    return boxes


class TestLeafWalkDifferential:
    """``estimate_scan`` walks the box only down to the index's leaves;
    its estimate is the sweep of the box's full decomposition over the
    leaf spans (:func:`overlap_stats`): the same pages, and the same
    rows up to float summation order.  Both sides read the same tree,
    before and after deletes reshape it."""

    @staticmethod
    def check(tree, boxes):
        for box in boxes:
            expected, pages = estimate_scan(tree, box)
            want_expected, want_pages = overlap_stats(
                tree.tree, box_intervals(tree.grid, box)
            )
            assert pages == want_pages, box
            assert expected == pytest.approx(want_expected, rel=1e-9), box

    @pytest.mark.parametrize("ndims, depth", [(2, 6), (3, 4)])
    @pytest.mark.parametrize("points", ["U", "C", "D", "lattice"])
    def test_equals_the_full_decomposition(self, ndims, depth, points):
        grid = Grid(ndims, depth)
        rng = random.Random(f"{ndims}-{points}")
        for capacity in (2, 4, 20):
            for order in (3, 32):
                if points == "lattice":
                    data = lattice(grid, rng, 400)
                else:
                    data = make_dataset(points, grid, 400, seed=capacity).points
                tree = ZkdTree(grid, page_capacity=capacity, order=order)
                tree.insert_many(data)
                if points == "lattice" and capacity == 2:
                    # a leaf between two equal separators owns one code
                    assert any(lo == hi for lo, hi, _ in leaf_spans(tree))
                self.check(tree, differential_boxes(rng, grid, 30))
                for point in rng.sample(data, len(data) // 2):
                    tree.delete(point)
                tree.tree.check_invariants()
                self.check(tree, differential_boxes(rng, grid, 30))


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
    def test_estimates_beside_a_writer(self, grid64):
        """A plan reads the live index with no lock while a commit may
        split and merge its nodes: the estimate never fails, and once
        the writer stops it is exact again."""
        rng = random.Random(3)
        tree = ZkdTree(grid64, page_capacity=2, order=3)
        points = random_points(rng, grid64, 1500)
        boxes = [random_box(rng, grid64) for _ in range(20)]
        errors = []
        done = threading.Event()

        def plan():
            while not done.is_set():
                for box in boxes:
                    try:
                        estimate_scan(tree, box)
                    except Exception as error:  # any failure fails the test
                        errors.append(error)
                        return

        readers = [threading.Thread(target=plan) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for point in points:
                tree.insert(point)
            for point in points[::2]:
                tree.delete(point)
        finally:
            done.set()
            for reader in readers:
                reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        tree.tree.check_invariants()
        expected, pages = estimate_scan(tree, grid64.whole_space())
        assert expected == pytest.approx(len(tree)) and pages == tree.npages

    def test_estimates_follow_every_write(self, grid64, rng, monkeypatch):
        """Nothing is memoised: each estimate reads the index as it is,
        and no page, so a write costs the next plan nothing."""
        from repro.storage.buffer import BufferManager

        tree = ZkdTree(grid64, page_capacity=8)
        tree.insert_many(random_points(rng, grid64, 120))
        reads = []
        for name in ("get", "peek"):
            real = getattr(BufferManager, name)
            monkeypatch.setattr(
                BufferManager,
                name,
                lambda self, page_id, _real=real: reads.append(page_id)
                or _real(self, page_id),
            )
        whole = grid64.whole_space()
        assert estimate_scan(tree, whole) == (pytest.approx(120), tree.npages)
        assert reads == []
        for point in [(1, 1), (1, 2), (2, 1)]:
            tree.insert(point)
        tree.delete((1, 1))
        del reads[:]
        assert estimate_scan(tree, whole)[0] == pytest.approx(122)
        assert reads == []
