"""Regression tests for the shared-mutable-state audit.

The concurrency work audited every module-level or cross-query mutable
structure on the read path.  Each fix here gets a pinned regression:

1. ``FilePageStore`` slot reads used seek+read on the shared file
   object — two threads interleaving seek and read returned each
   other's pages (or checksum garbage).  Reads now use ``os.pread``.
2. ``BufferManager.get`` did membership-check / move_to_end / lookup
   non-atomically; a concurrent eviction between the check and the
   lookup raised ``KeyError``.  The frame table is now lock-protected.
3. Per-query buffer accounting called ``reset_stats()`` at query
   start, so one query zeroed another's live counters.  Queries now
   snapshot-and-diff; the live counters are cumulative.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.core.geometry import Box, Grid
from repro.storage.buffer import BufferManager
from repro.storage.diskstore import FilePageStore
from repro.storage.page import Page, PageStore
from repro.storage.prefix_btree import ZkdTree

GRID = Grid(ndims=2, depth=6)
SIDE = GRID.side


def _hammer(nthreads, target):
    errors = []

    def run(i):
        try:
            target(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(nthreads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


class TestPreadSlotReads:
    def test_concurrent_reads_return_correct_pages(self, tmp_path):
        path = os.path.join(tmp_path, "pages.db")
        store = FilePageStore(path, page_capacity=4)
        pages = []
        for i in range(24):
            page = store.allocate()
            page.records.append((i, (i, i)))
            store.write(page)
            pages.append(page.page_id)
        expected = {
            pid: store.read(pid).records for pid in pages
        }

        def reads(i):
            for _ in range(200):
                for pid in pages[i::4]:
                    assert store.read(pid).records == expected[pid]

        errors = _hammer(4, reads)
        store.close()
        assert errors == []

    def test_read_does_not_move_shared_offset(self, tmp_path):
        """pread leaves the file position alone, so an append-side user
        of the shared offset can never be corrupted by readers."""
        path = os.path.join(tmp_path, "pages.db")
        store = FilePageStore(path, page_capacity=4)
        page = store.allocate()
        page.records.append((1, (1, 1)))
        store.write(page)
        pos = store._file.tell()
        store.read(page.page_id)
        store.peek(page.page_id)
        assert store._file.tell() == pos
        store.close()


class TestBufferLocking:
    def test_get_vs_eviction_race(self):
        store = PageStore(page_capacity=4)
        pids = []
        for i in range(32):
            page = store.allocate()
            page.records.append((i, (i, i)))
            store.write(page)
            pids.append(page.page_id)
        # capacity 2 << working set: every get likely races an evict.
        buffer = BufferManager(store, capacity=2)
        value = {pid: k for k, pid in enumerate(pids)}

        def churn(i):
            for _ in range(300):
                for pid in pids[i::4]:
                    page = buffer.get(pid)
                    k = value[pid]
                    assert page.records == [(k, (k, k))]
                    assert buffer.peek(pid).page_id == pid

        errors = _hammer(4, churn)
        assert errors == []


class TestBufferStatsDelta:
    def test_queries_do_not_zero_live_counters(self):
        tree = ZkdTree(GRID, page_capacity=4, buffer_frames=4)
        tree.insert_many(
            [(i, (i * 11) % SIDE) for i in range(SIDE)]
        )
        box = Box(((0, SIDE - 1), (0, SIDE - 1)))
        base = tree.buffer.stats()
        first = tree.range_query(box)
        mid = tree.buffer.stats()
        # The old reset_stats() behaviour zeroed these between queries.
        assert mid["hits"] == base["hits"] + first.buffer_stats["hits"]
        assert (
            mid["misses"] == base["misses"] + first.buffer_stats["misses"]
        )
        second = tree.range_query(box)
        final = tree.buffer.stats()
        assert final["hits"] == (
            mid["hits"] + second.buffer_stats["hits"]
        )
        assert final["misses"] == (
            mid["misses"] + second.buffer_stats["misses"]
        )

    def test_deltas_sum_under_sequential_interleaving(self):
        small = ZkdTree(GRID, page_capacity=4, buffer_frames=2)
        small.insert_many([(i, i) for i in range(SIDE)])
        box_a = Box(((0, SIDE // 2), (0, SIDE // 2)))
        box_b = Box(((0, 3), (0, 3)))
        base = small.buffer.stats()
        deltas = []
        for box in (box_a, box_b, box_a, box_b):
            deltas.append(small.range_query(box).buffer_stats)
        final = small.buffer.stats()
        assert final["hits"] == base["hits"] + sum(
            d["hits"] for d in deltas
        )
        assert final["misses"] == base["misses"] + sum(
            d["misses"] for d in deltas
        )


class TestReclaimVsFreshPin:
    def test_stalled_reclaim_cannot_free_a_new_pins_versions(
        self, monkeypatch
    ):
        """An unpin-triggered reclaim that stalls after deciding who is
        pinned must not free versions retained for a pin (plus commit)
        that landed while it was stalled.  ``reclaim`` now holds the
        manager mutex for its whole pass, so the fresh pin blocks until
        the sweep is done instead of racing it."""
        from repro.concurrency import SnapshotManager
        from repro.concurrency.versions import PageVersionMap

        manager = SnapshotManager()
        tree = ZkdTree(GRID, page_capacity=4, snapshots=manager)
        tree.insert_many([(i, i) for i in range(24)])
        old_epoch = manager.pin()

        entered = threading.Event()
        release = threading.Event()
        original = PageVersionMap.reclaim

        def stalled(self, pinned):
            entered.set()
            assert release.wait(timeout=10)
            return original(self, pinned)

        monkeypatch.setattr(PageVersionMap, "reclaim", stalled)

        def unpinner():
            manager.unpin(old_epoch)

        state = {}

        def pin_and_write():
            epoch = manager.pin()
            frozen = tree.snapshot_view(epoch).points()
            # Dirty every page: the pre-images are retained for epoch.
            tree.insert_many([(i, (i + 1) % 24) for i in range(24)])
            state["epoch"], state["frozen"] = epoch, frozen

        a = threading.Thread(target=unpinner)
        a.start()
        assert entered.wait(timeout=10)
        b = threading.Thread(target=pin_and_write)
        b.start()
        # Give the pin every chance to race in (with the fix it blocks
        # on the manager mutex until the stalled sweep completes).
        b.join(timeout=0.3)
        release.set()
        a.join(timeout=10)
        b.join(timeout=10)
        assert not a.is_alive() and not b.is_alive()
        monkeypatch.setattr(PageVersionMap, "reclaim", original)
        try:
            # Unfixed, the stalled sweep freed the new pin's retained
            # pre-images and this read raises KeyError.
            view = tree.snapshot_view(state["epoch"])
            assert view.points() == state["frozen"]
        finally:
            manager.unpin(state["epoch"])
        assert manager.leak_stats()["cow.live_page_versions"] == 0


class TestAbortedGroupCommit:
    """``Session.commit`` used to re-implement the database's group
    commit and neither rolled the *trees* back: a batch failing between
    two indexes left the first tree with the aborted operations applied
    and — its pages stamped with an epoch that never arrived — the next
    pin dying with ``page N has no image at epoch E``.  One rollback
    now exists (``SpatialDatabase._group_commit``) and covers
    relations, trees, dirty codes and the coordinate map."""

    @staticmethod
    def _db():
        from repro.db import INTEGER, Schema, SpatialDatabase

        db = SpatialDatabase(
            Grid(2, 4), page_capacity=4, cache=True
        )
        db.create_table(
            "t",
            Schema.of(
                ("a", INTEGER), ("b", INTEGER), ("c", INTEGER), ("d", INTEGER)
            ),
        )
        db.insert_many(
            "t",
            [(i % 16, i * 3 % 16, i * 5 % 16, i * 7 % 16) for i in range(40)],
        )
        db.create_index("ab", "t", ("a", "b"))
        db.create_index("cd", "t", ("c", "d"))
        return db

    @staticmethod
    def _fresh_map(db, entry):
        from repro.db.catalog import coordinate_map
        from repro.db.readpath import coords_getter

        relation = db.table(entry.relation_name)
        positions, rows = relation._stored()
        coords = coords_getter(relation.schema, entry.coord_cols)
        return coordinate_map(map(coords, rows), positions)

    def _assert_rolled_back(self, db, rows_before, trees_before):
        everywhere = db.grid.whole_space()
        assert db.table("t").rows == rows_before
        for name, before in trees_before.items():
            entry = db.catalog.index(name)
            assert sorted(entry.tree.range_query(everywhere).matches) == before
            assert entry.positions == self._fresh_map(db, entry)
        assert db._dirty_codes == {} and db._applied == []
        # a new session pins and reads through both indexes
        with db.session() as reader:
            for cols in (("a", "b"), ("c", "d")):
                got = reader.range_query("t", cols, everywhere).rows
                assert got == rows_before
                assert got == db.range_query("t", cols, everywhere).rows

    def _state(self, db):
        everywhere = db.grid.whole_space()
        return db.table("t").rows, {
            name: sorted(
                db.catalog.index(name).tree.range_query(everywhere).matches
            )
            for name in ("ab", "cd")
        }

    def test_batch_failing_between_two_indexes_rolls_back(self):
        db = self._db()
        rows_before, trees_before = self._state(db)
        pinned = db.session()  # a reader across the abort keeps its view
        writer = db.session()
        writer.insert("t", (1, 1, 2, 2))
        writer.delete("t", rows_before[3])
        # valid for the schema and for index ab; (99, 1) is off cd's grid
        writer.insert("t", (3, 3, 99, 1))
        with pytest.raises(ValueError, match="outside"):
            writer.commit()
        writer.close()
        self._assert_rolled_back(db, rows_before, trees_before)
        assert (
            pinned.range_query("t", ("a", "b"), db.grid.whole_space()).rows
            == rows_before
        )
        pinned.close()
        assert not any(db.snapshots.leak_stats().values())
        # and the database keeps working: the same batch minus the bad row
        with db.session() as retry:
            retry.insert("t", (1, 1, 2, 2))
            retry.delete("t", rows_before[3])
            retry.commit()
        want = rows_before[:3] + rows_before[4:] + [(1, 1, 2, 2)]
        assert db.table("t").rows == want
        for name in ("ab", "cd"):
            entry = db.catalog.index(name)
            # the committed delete keeps its position (for the epochs
            # before it); fetched at the newest epoch it filters out
            everything = entry.positions_of(entry.positions)
            assert len(everything) == len(want) + 1
            assert db.table("t").fetch(everything) == want
            assert len(entry.tree) == len(want)

    def test_injected_fault_in_the_second_tree_rolls_back(self, monkeypatch):
        """The same abort from a fault injected into the second index's
        tree, through the database's own (non-session) write path."""
        db = self._db()
        rows_before, trees_before = self._state(db)
        second = db.catalog.index("cd").tree

        def failing_insert(point):
            raise OSError("injected: cd tree refuses the write")

        monkeypatch.setattr(second, "insert", failing_insert)
        with pytest.raises(OSError, match="injected"):
            db.insert_many("t", [(5, 5, 5, 5), (6, 6, 6, 6)])
        monkeypatch.undo()
        self._assert_rolled_back(db, rows_before, trees_before)



class TestBirthLogUnderRacingAborts:
    """A relation records one birth entry per commit, so a lock-free
    reader finds the rows born by its epoch with one bisect.  Under a
    writer that commits two-row batches and aborts half-applied ones,
    no reader may count a pending row or an aborted one."""

    def test_readers_see_whole_committed_batches_only(self):
        import sys

        from repro.db import INTEGER, Schema, SpatialDatabase

        db = SpatialDatabase(GRID, page_capacity=4)
        db.create_table("t", Schema.of(("x", INTEGER), ("y", INTEGER)))
        db.create_index("t_xy", "t", ("x", "y"))
        relation = db.table("t")
        stop = threading.Event()
        errors: list = []

        def writer():
            i = 0
            while not stop.is_set():
                i += 1
                db.insert_many("t", [(i % SIDE, 0), ((i + 1) % SIDE, 0)])
                with pytest.raises(TypeError):  # aborts after one row
                    db.insert_many("t", [(i % SIDE, 1), ("bad", 1)])

        def reader():
            while not stop.is_set():
                with db.session() as session:
                    rows = session.table("t").rows
                    everywhere = range(len(relation._rows) + 4)
                    fetched = relation.fetch(everywhere, session.epoch)
                assert len(rows) % 2 == 0, "a half-committed batch"
                assert all(y == 0 for _, y in rows), "an aborted row"
                assert fetched == rows
                assert len(relation) % 2 == 0

        def guarded(work):
            def run():
                try:
                    work()
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)
                    stop.set()

            return threading.Thread(target=run)

        threads = [guarded(writer)] + [guarded(reader) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            stop.wait(1.0)
            stop.set()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(relation) > 0
