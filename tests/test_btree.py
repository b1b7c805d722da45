"""Tests for the prefix B+-tree, including randomized model checking."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.btree import (
    BPlusTree,
    separator_prefix_length,
    shortest_separator,
)
from repro.storage.buffer import BufferManager
from repro.storage.page import PageStore


def make_tree(page_capacity=4, order=4, total_bits=16, frames=4):
    store = PageStore(page_capacity)
    return BPlusTree(
        store, BufferManager(store, frames), order=order, total_bits=total_bits
    )


class TestShortestSeparator:
    def test_basic(self):
        # left_high=0b0101, right_low=0b0111: separator 0b0110.
        assert shortest_separator(0b0101, 0b0111, 4) == 0b0110

    def test_adjacent_keys(self):
        assert shortest_separator(4, 5, 4) == 5

    def test_wide_gap_picks_round_number(self):
        # Between 1 and 200 the shortest prefix is 128 (10000000).
        assert shortest_separator(1, 200, 8) == 128

    def test_separates(self):
        for left in range(0, 60, 7):
            for right in range(left + 1, 64, 5):
                s = shortest_separator(left, right, 6)
                assert left < s <= right

    def test_maximal_trailing_zeros(self):
        for left in range(0, 30):
            for right in range(left + 1, 31):
                s = shortest_separator(left, right, 5)
                best = max(
                    (
                        c
                        for c in range(left + 1, right + 1)
                    ),
                    key=lambda c: (c & -c),
                )
                assert (s & -s) == (best & -best)

    def test_rejects_unseparable(self):
        with pytest.raises(ValueError):
            shortest_separator(5, 5, 4)
        with pytest.raises(ValueError):
            shortest_separator(6, 5, 4)

    def test_rejects_oversized_key(self):
        with pytest.raises(ValueError):
            shortest_separator(1, 16, 4)

    def test_prefix_length(self):
        assert separator_prefix_length(0b10000000, 8) == 1
        assert separator_prefix_length(0b10100000, 8) == 3
        assert separator_prefix_length(0, 8) == 0
        assert separator_prefix_length(0b1, 8) == 8


class TestInsertSearch:
    def test_empty_tree(self):
        tree = make_tree()
        assert len(tree) == 0
        assert tree.search(5) == []
        assert list(tree.items()) == []

    def test_single_insert(self):
        tree = make_tree()
        tree.insert(5, "five")
        assert tree.search(5) == ["five"]
        assert len(tree) == 1

    def test_many_inserts_sorted_scan(self):
        tree = make_tree()
        keys = list(range(100))
        random.Random(0).shuffle(keys)
        for k in keys:
            tree.insert(k, k * 10)
        assert [k for k, _ in tree.items()] == list(range(100))
        tree.check_invariants()

    def test_search_missing(self):
        tree = make_tree()
        for k in range(0, 50, 2):
            tree.insert(k, k)
        assert tree.search(31) == []

    def test_duplicates(self):
        tree = make_tree()
        for i in range(25):
            tree.insert(7, i)
        assert sorted(tree.search(7)) == list(range(25))
        tree.check_invariants()

    def test_duplicates_across_splits(self):
        tree = make_tree(page_capacity=4)
        for i in range(10):
            tree.insert(5, f"five-{i}")
            tree.insert(6, f"six-{i}")
        assert len(tree.search(5)) == 10
        assert len(tree.search(6)) == 10

    def test_key_out_of_range(self):
        tree = make_tree(total_bits=8)
        with pytest.raises(ValueError):
            tree.insert(256, None)
        with pytest.raises(ValueError):
            tree.insert(-1, None)

    def test_height_grows_logarithmically(self):
        tree = make_tree(page_capacity=4, order=4)
        for k in range(256):
            tree.insert(k, None)
        assert tree.height <= 6
        assert tree.nleaves >= 256 // 4

    def test_order_minimum(self):
        store = PageStore(4)
        with pytest.raises(ValueError):
            BPlusTree(store, order=2)


class TestCursor:
    def test_full_scan(self):
        tree = make_tree()
        for k in range(20):
            tree.insert(k, str(k))
        cursor = tree.cursor()
        seen = []
        record = cursor.current
        while record is not None:
            seen.append(record.z)
            record = cursor.step()
        assert seen == list(range(20))

    def test_start_positioning(self):
        tree = make_tree()
        for k in range(0, 40, 3):
            tree.insert(k, None)
        cursor = tree.cursor(start=10)
        assert cursor.current.z == 12

    def test_seek_forward(self):
        tree = make_tree()
        for k in range(0, 100, 5):
            tree.insert(k, None)
        cursor = tree.cursor()
        assert cursor.seek(31).z == 35
        assert cursor.seek(35).z == 35  # no move when satisfied
        assert cursor.seek(96) is None

    def test_seek_within_page_is_cheap(self):
        tree = make_tree(page_capacity=16)
        for k in range(16):
            tree.insert(k, None)
        tree.reset_access_log()
        cursor = tree.cursor()
        cursor.seek(9)
        # Initial position + at most the same page again.
        assert len(set(tree.leaf_accesses)) == 1

    def test_empty_tree_cursor(self):
        tree = make_tree()
        cursor = tree.cursor()
        assert cursor.current is None
        assert cursor.step() is None
        assert cursor.seek(5) is None


class TestDelete:
    def test_delete_simple(self):
        tree = make_tree()
        tree.insert(5, "five")
        assert tree.delete(5)
        assert len(tree) == 0
        assert tree.search(5) == []

    def test_delete_missing(self):
        tree = make_tree()
        tree.insert(5, "five")
        assert not tree.delete(6)
        assert not tree.delete(5, "six")

    def test_delete_by_value(self):
        tree = make_tree()
        tree.insert(5, "a")
        tree.insert(5, "b")
        assert tree.delete(5, "b")
        assert tree.search(5) == ["a"]

    def test_delete_everything(self):
        tree = make_tree()
        for k in range(64):
            tree.insert(k, k)
        for k in range(64):
            assert tree.delete(k), k
        assert len(tree) == 0
        tree.check_invariants()

    def test_delete_rebalances(self):
        tree = make_tree(page_capacity=4, order=4)
        for k in range(100):
            tree.insert(k, k)
        for k in range(0, 100, 2):
            assert tree.delete(k)
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == list(range(1, 100, 2))

    def test_delete_reverse_order(self):
        tree = make_tree(page_capacity=4, order=4)
        for k in range(100):
            tree.insert(k, k)
        for k in reversed(range(100)):
            assert tree.delete(k)
        tree.check_invariants()
        assert len(tree) == 0


class TestRandomizedModel:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_against_sorted_list_model(self, seed):
        rng = random.Random(seed)
        tree = make_tree(
            page_capacity=rng.choice([4, 6, 8]),
            order=rng.choice([3, 4, 6]),
            total_bits=10,
        )
        model = []
        for step in range(400):
            if rng.random() < 0.6 or not model:
                key = rng.randrange(1024)
                value = (key, step)
                tree.insert(key, value)
                model.append((key, value))
            else:
                key, value = model.pop(rng.randrange(len(model)))
                assert tree.delete(key, value)
            if step % 100 == 99:
                tree.check_invariants()
        tree.check_invariants()
        assert sorted((k, v) for k, v in tree.items()) == sorted(model)
        # Spot-check searches.
        for key in rng.sample(range(1024), 20):
            expected = sorted(v for k, v in model if k == key)
            assert sorted(tree.search(key)) == expected

    def test_skewed_duplicates_model(self):
        rng = random.Random(13)
        tree = make_tree(page_capacity=4, order=4, total_bits=6)
        model = []
        for step in range(300):
            if rng.random() < 0.6 or not model:
                key = rng.choice([3, 3, 3, 17, 17, 42])  # heavy duplication
                tree.insert(key, step)
                model.append((key, step))
            else:
                key, value = model.pop(rng.randrange(len(model)))
                assert tree.delete(key, value)
        tree.check_invariants()
        assert sorted((k, v) for k, v in tree.items()) == sorted(model)


class TestAccessAccounting:
    def test_leaf_accesses_logged(self):
        tree = make_tree(page_capacity=4)
        for k in range(32):
            tree.insert(k, None)
        tree.reset_access_log()
        list(tree.items())
        assert len(set(tree.leaf_accesses)) == tree.nleaves

    def test_point_lookup_touches_one_leaf(self):
        tree = make_tree(page_capacity=4)
        for k in range(64):
            tree.insert(k, None)
        tree.reset_access_log()
        tree.search(17)
        assert len(set(tree.leaf_accesses)) <= 2


class TestSeparators:
    def test_separator_bits_shorter_than_full_keys(self):
        tree = make_tree(page_capacity=4, order=8, total_bits=16)
        rng = random.Random(5)
        for _ in range(300):
            tree.insert(rng.randrange(1 << 16), None)
        bits = tree.separator_bit_lengths()
        assert bits
        assert sum(bits) / len(bits) < 16

    def test_partition_boundaries_sorted(self):
        tree = make_tree(page_capacity=4)
        for k in range(50):
            tree.insert(k, None)
        bounds = tree.partition_boundaries()
        assert bounds == sorted(bounds)
        assert bounds[0] == 0

