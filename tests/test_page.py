"""Tests for the page and page-store model."""

import pytest

from repro.storage.page import Page, PageStore


class TestPage:
    def test_insert_keeps_order(self):
        page = Page(0, capacity=5)
        for key in (5, 1, 3, 2):
            page.insert(key, f"v{key}")
        assert page.keys() == [1, 2, 3, 5]
        assert page.low_key == 1
        assert page.high_key == 5

    def test_duplicates_stable(self):
        page = Page(0, capacity=5)
        page.insert(3, "first")
        page.insert(3, "second")
        assert page.find(3) == ["first", "second"]

    def test_equal_keys_never_compare_values(self):
        """Records are bisected with one-element key probes: values that
        do not order against each other still insert after their equal
        keys, and find and remove among them."""
        page = Page(0, capacity=6)
        for key, value in ((4, "x"), (3, None), (2, 1.5), (3, {}), (3, "s")):
            page.insert(key, value)
        assert page.records == [
            (2, 1.5), (3, None), (3, {}), (3, "s"), (4, "x")
        ]
        assert page.find(3) == [None, {}, "s"]
        assert page.remove(3, "s") and page.remove(3)
        assert page.find(3) == [{}]

    def test_full_page_rejects_insert(self):
        page = Page(0, capacity=2)
        page.insert(1, None)
        page.insert(2, None)
        assert page.is_full
        with pytest.raises(ValueError):
            page.insert(3, None)

    def test_remove_by_key(self):
        page = Page(0, capacity=4)
        page.insert(1, "a")
        page.insert(2, "b")
        assert page.remove(1)
        assert page.keys() == [2]
        assert not page.remove(9)

    def test_remove_by_key_and_value(self):
        page = Page(0, capacity=4)
        page.insert(1, "a")
        page.insert(1, "b")
        assert page.remove(1, "b")
        assert page.find(1) == ["a"]
        assert not page.remove(1, "z")

    def test_empty_page_key_access_raises(self):
        page = Page(0, capacity=2)
        with pytest.raises(ValueError):
            _ = page.low_key

    def test_split_moves_upper_half_and_links(self):
        page = Page(0, capacity=8, next_page=77)
        for key in range(6):
            page.insert(key, None)
        sibling = page.split(new_page_id=1)
        assert page.keys() == [0, 1, 2]
        assert sibling.keys() == [3, 4, 5]
        assert page.next_page == 1
        assert sibling.next_page == 77

    def test_capacity_minimum(self):
        with pytest.raises(ValueError):
            Page(0, capacity=1)

    def test_iteration(self):
        page = Page(0, capacity=4)
        page.insert(2, "b")
        page.insert(1, "a")
        assert list(page) == [(1, "a"), (2, "b")]


class TestPageStore:
    def test_allocate_read_write(self):
        store = PageStore(4)
        page = store.allocate()
        assert store.reads == 0
        got = store.read(page.page_id)
        assert got is page
        assert store.reads == 1
        store.write(page)
        assert store.writes == 1

    def test_ids_unique_and_increasing(self):
        store = PageStore(4)
        ids = [store.allocate().page_id for _ in range(5)]
        assert ids == sorted(set(ids))
        assert len(store) == 5
        assert store.allocations == 5

    def test_read_missing_raises(self):
        store = PageStore(4)
        with pytest.raises(KeyError):
            store.read(99)

    def test_write_missing_raises(self):
        store = PageStore(4)
        with pytest.raises(KeyError):
            store.write(Page(99, capacity=4))

    def test_free(self):
        store = PageStore(4)
        page = store.allocate()
        store.free(page.page_id)
        with pytest.raises(KeyError):
            store.read(page.page_id)
        with pytest.raises(KeyError):
            store.free(page.page_id)

    def test_peek_does_not_count(self):
        store = PageStore(4)
        page = store.allocate()
        store.peek(page.page_id)
        assert store.reads == 0

    def test_capacity_propagates(self):
        store = PageStore(7)
        assert store.allocate().capacity == 7

    def test_minimum_capacity(self):
        with pytest.raises(ValueError):
            PageStore(1)
