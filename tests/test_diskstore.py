"""Tests for the file-backed page store and persistent zkd trees."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.core.geometry import Box
from repro.core.rangesearch import brute_force_search
from repro.storage.diskstore import (
    FilePageStore,
    PageOverflowError,
    decode_value,
    encode_value,
)
from repro.storage.page import Page
from repro.storage.prefix_btree import ZkdTree

from conftest import random_box, random_points


# A strategy for persistable payloads.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner), st.lists(inner, max_size=3)
    ),
    max_leaves=6,
)


class TestCodec:
    @given(payloads)
    def test_roundtrip(self, value):
        buf = io.BytesIO()
        encode_value(value, buf)
        buf.seek(0)
        decoded = decode_value(buf)
        if isinstance(value, list):
            # Lists come back as lists, tuples as tuples.
            assert decoded == value
        else:
            assert decoded == value
        assert type(decoded) is type(value) or isinstance(value, bool)

    def test_rejects_unsupported(self):
        with pytest.raises(TypeError):
            encode_value(object(), io.BytesIO())

    def test_distinguishes_bool_from_int(self):
        buf = io.BytesIO()
        encode_value(True, buf)
        encode_value(1, buf)
        buf.seek(0)
        assert decode_value(buf) is True
        assert decode_value(buf) == 1


class TestFilePageStore:
    def test_basic_protocol(self, tmp_path):
        store = FilePageStore(str(tmp_path / "a.zkd"), page_capacity=4)
        page = store.allocate()
        page.insert(7, ("x", 7))
        store.write(page)
        got = store.read(page.page_id)
        assert got.records == [(7, ("x", 7))]
        assert store.reads == 1 and store.writes == 1
        store.close()

    def test_reopen_preserves_pages(self, tmp_path):
        path = str(tmp_path / "b.zkd")
        store = FilePageStore(path, page_capacity=4)
        page = store.allocate()
        page.insert(1, "one")
        page.next_page = None
        store.write(page)
        store.close()

        reopened = FilePageStore(path)
        assert reopened.page_capacity == 4
        assert reopened.page_ids() == [page.page_id]
        assert reopened.peek(page.page_id).records == [(1, "one")]
        reopened.close()

    def test_free_survives_reopen(self, tmp_path):
        path = str(tmp_path / "c.zkd")
        store = FilePageStore(path, page_capacity=4)
        keep = store.allocate()
        drop = store.allocate()
        store.free(drop.page_id)
        store.close()
        reopened = FilePageStore(path)
        assert reopened.page_ids() == [keep.page_id]
        with pytest.raises(KeyError):
            reopened.read(drop.page_id)
        reopened.close()

    def test_capacity_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "d.zkd")
        FilePageStore(path, page_capacity=4).close()
        with pytest.raises(ValueError):
            FilePageStore(path, page_capacity=8)

    def test_new_store_requires_capacity(self, tmp_path):
        with pytest.raises(ValueError):
            FilePageStore(str(tmp_path / "e.zkd"))

    def test_not_a_store_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a page file, but long enough....")
        with pytest.raises(ValueError):
            FilePageStore(str(path))

    def test_page_overflow(self, tmp_path):
        store = FilePageStore(
            str(tmp_path / "f.zkd"), page_capacity=64, page_size=128
        )
        page = store.allocate()
        for i in range(20):
            page.insert(i, "x" * 50)
        with pytest.raises(PageOverflowError):
            store.write(page)
        store.close()

    def test_missing_page_errors(self, tmp_path):
        store = FilePageStore(str(tmp_path / "g.zkd"), page_capacity=4)
        with pytest.raises(KeyError):
            store.read(99)
        with pytest.raises(KeyError):
            store.write(Page(99, capacity=4))
        with pytest.raises(KeyError):
            store.free(99)
        store.close()

    def test_context_manager(self, tmp_path):
        path = str(tmp_path / "h.zkd")
        with FilePageStore(path, page_capacity=4) as store:
            store.allocate()
        assert store._file.closed


class TestPersistentZkdTree:
    def test_write_reopen_query(self, tmp_path, grid64, rng):
        path = str(tmp_path / "tree.zkd")
        points = random_points(rng, grid64, 500)
        store = FilePageStore(path, page_capacity=20)
        tree = ZkdTree(grid64, store=store)
        tree.insert_many(points)
        box = random_box(rng, grid64)
        expected = tree.range_query(box).matches
        tree.buffer.flush()
        store.sync()
        store.close()

        with FilePageStore(path) as reopened_store:
            reopened = ZkdTree.open(grid64, reopened_store)
            reopened.tree.check_invariants()
            assert len(reopened) == 500
            result = reopened.range_query(box)
            assert result.matches == expected
            assert list(result.matches) == brute_force_search(
                grid64, points, box
            )

    def test_maintenance_after_reopen(self, tmp_path, grid64, rng):
        path = str(tmp_path / "tree2.zkd")
        points = random_points(rng, grid64, 300)
        store = FilePageStore(path, page_capacity=10)
        tree = ZkdTree(grid64, page_capacity=10, store=store)
        tree.insert_many(points)
        tree.buffer.flush()
        store.close()

        with FilePageStore(path) as second:
            tree2 = ZkdTree.open(grid64, second)
            for p in points[:100]:
                assert tree2.delete(tuple(p))
            tree2.insert((0, 0))
            tree2.tree.check_invariants()
            assert len(tree2) == 201
            tree2.buffer.flush()
            second.sync()

        with FilePageStore(path) as third:
            tree3 = ZkdTree.open(grid64, third)
            assert len(tree3) == 201
            assert (0, 0) in tree3

    def test_reopen_over_duplicate_runs_and_thinned_leaves(
        self, tmp_path, grid64, rng
    ):
        """The index rebuilt on open keeps one separator per leaf (never
        the decoded leaves); equal keys spilling over pages and leaves
        emptied by deletes are where its separator rule has cases."""
        path = str(tmp_path / "tree4.zkd")
        points = random_points(rng, grid64, 200) + [(7, 7)] * 30
        with FilePageStore(path, page_capacity=8) as store:
            tree = ZkdTree(grid64, page_capacity=8, store=store)
            tree.insert_many(points)
            in_z_order = tree.points()
            for p in in_z_order[40:90]:  # a contiguous run of leaves
                assert tree.delete(p)
            kept = sorted(in_z_order[:40] + in_z_order[90:])
            tree.buffer.flush()
            store.sync()
        with FilePageStore(path) as second:
            reopened = ZkdTree.open(grid64, second)
            reopened.tree.check_invariants()
            assert len(reopened) == len(kept)
            assert sorted(reopened.points()) == kept
            assert all(p in reopened for p in set(kept))
            whole = reopened.range_query(grid64.whole_space())
            assert sorted(whole.matches) == kept

    def test_bulk_load_then_persist(self, tmp_path, grid64, rng):
        path = str(tmp_path / "tree3.zkd")
        points = random_points(rng, grid64, 400)
        with FilePageStore(path, page_capacity=20) as store:
            tree = ZkdTree(grid64, store=store)
            tree.bulk_load(points)
            tree.buffer.flush()
            store.sync()
        with FilePageStore(path) as store2:
            tree2 = ZkdTree.open(grid64, store2)
            assert sorted(tree2.points()) == sorted(map(tuple, points))

    def test_open_empty_store(self, tmp_path, grid64):
        with FilePageStore(str(tmp_path / "empty.zkd"), page_capacity=8) as s:
            tree = ZkdTree.open(grid64, s)
            assert len(tree) == 0
            tree.insert((1, 1))
            assert (1, 1) in tree

    def test_io_counters_measure_file_traffic(self, tmp_path, grid64, rng):
        path = str(tmp_path / "tree4.zkd")
        points = random_points(rng, grid64, 400)
        with FilePageStore(path, page_capacity=20) as store:
            tree = ZkdTree(grid64, store=store, buffer_frames=2)
            tree.insert_many(points)
            tree.buffer.flush()
            before = store.reads
            tree.range_query(Box(((0, 31), (0, 31))))
            assert store.reads > before  # small buffer: real file reads
