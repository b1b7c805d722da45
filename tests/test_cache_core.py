"""Unit tests for the z-prefix semantic result cache.

Covers the trie's containment-as-prefix lookups, entry validity over
the epoch interval, admission/eviction budgets, the dirty-log commit
protocol, and where a cached read decomposes its box (only behind
:meth:`~repro.cache.QueryResultCache.lookup`, never for a repeat).
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.cache import QueryResultCache, ZPrefixTrie, cached_range_matches
from repro.cache.result_cache import CacheEntry
from repro.core.decompose import Element
from repro.core.geometry import Box, Grid
from repro.core.zvalue import ZValue
from repro.storage.prefix_btree import ZkdTree

GRID = Grid(ndims=2, depth=5)
SIDE = GRID.side


def _random_box(rng: random.Random) -> Box:
    x0, x1 = sorted(rng.randrange(SIDE) for _ in range(2))
    y0, y1 = sorted(rng.randrange(SIDE) for _ in range(2))
    return Box(((x0, x1), (y0, y1)))


def _element(bits: str) -> Element:
    return Element.of(ZValue.from_string(bits), GRID)


class TestZPrefixTrie:
    def test_prefix_is_containment(self):
        trie = ZPrefixTrie()
        trie.insert(ZValue.from_string("01"), "coarse")
        # A deeper element with prefix 01 is contained -> covered.
        assert trie.covering(ZValue.from_string("0110"), lambda e: True) == "coarse"
        assert trie.covering(ZValue.from_string("01"), lambda e: True) == "coarse"
        # Sibling prefix is not contained.
        assert trie.covering(ZValue.from_string("0010"), lambda e: True) is None
        # A *shorter* z-value (larger region) is not covered by a
        # longer one: containment is one-directional.
        assert trie.covering(ZValue.from_string("0"), lambda e: True) is None

    def test_accept_filters_entries(self):
        trie = ZPrefixTrie()
        trie.insert(ZValue.from_string("01"), "dead")
        trie.insert(ZValue.from_string("01"), "live")
        got = trie.covering(ZValue.from_string("0111"), lambda e: e != "dead")
        assert got == "live"
        assert trie.covering(ZValue.from_string("0111"), lambda e: False) is None

    def test_shallowest_entry_wins(self):
        trie = ZPrefixTrie()
        trie.insert(ZValue.from_string("0"), "outer")
        trie.insert(ZValue.from_string("0101"), "inner")
        assert trie.covering(ZValue.from_string("010111"), lambda e: True) == "outer"

    def test_remove_prunes_chains(self):
        trie = ZPrefixTrie()
        z = ZValue.from_string("010011")
        trie.insert(z, "x")
        assert len(trie) == 1
        trie.remove(z, "x")
        assert len(trie) == 0
        assert not trie._root.children  # fully pruned
        trie.remove(z, "x")  # absent pair is a no-op
        assert len(trie) == 0

    def test_along_code_walks_containing_regions(self):
        trie = ZPrefixTrie()
        trie.insert(ZValue.from_string("01"), "a")
        trie.insert(ZValue.from_string("0110"), "b")
        trie.insert(ZValue.from_string("00"), "c")
        total = GRID.total_bits
        lo, hi = ZValue.from_string("0110").interval(total)
        inside = list(trie.along_code(lo, total))
        assert inside == ["a", "b"]
        lo2, _ = ZValue.from_string("0010").interval(total)
        assert list(trie.along_code(lo2, total)) == ["c"]


class TestCacheEntry:
    def _entry(self, build_epoch=3):
        # (0, 24) and (1, 25) both interleave into element 0101's
        # z-interval [320, 383] on the depth-5 grid.
        element = _element("0101")
        run = ((0, 24), (1, 25))
        run_z = tuple(GRID.zvalue(p).bits for p in run)
        return CacheEntry(
            Box(((0, 1), (24, 25))), (element,), run, run_z, build_epoch
        )

    def test_valid_interval(self):
        entry = self._entry(build_epoch=3)
        assert not entry.valid_at(2)
        assert entry.valid_at(3)
        assert entry.valid_at(99)
        entry.dead_epoch = 7
        assert entry.valid_at(3) and entry.valid_at(6)
        assert not entry.valid_at(7) and not entry.valid_at(8)

    def test_contains_code_and_slice(self):
        entry = self._entry()
        element = entry.elements[0]
        assert entry.contains_code(element.zlo)
        assert entry.contains_code(element.zhi)
        assert not entry.contains_code(element.zhi + 1)
        assert entry.slice(element.zlo, element.zhi) == entry.run
        assert entry.slice(entry.run_z[1], entry.run_z[1]) == (entry.run[1],)


class TestAdmissionAndEviction:
    def test_budget_points_evicts_lru(self):
        cache = QueryResultCache(GRID, budget_points=4, max_entries=10)
        run1 = ((0, 0), (1, 1), (0, 1))
        def runz(run):
            return tuple(GRID.zvalue(p).bits for p in run)
        e1 = cache.admit(
            Box(((0, 1), (0, 1))), (_element("00"),), run1, runz(run1), 0
        )
        assert e1 is not None and cache.points_cached == 3
        run2 = ((8, 8), (9, 9))
        e2 = cache.admit(
            Box(((8, 9), (8, 9))), (_element("11"),), run2, runz(run2), 0
        )
        assert e2 is not None
        # 5 > 4: the older entry was evicted.
        assert cache.points_cached == 2
        assert cache.entries() == [e2]
        assert cache.stats["cache.evict"] == 1

    def test_oversized_admissions_declined(self):
        cache = QueryResultCache(GRID, budget_points=2)
        run = ((0, 0), (1, 1), (2, 2))
        runz = tuple(GRID.zvalue(p).bits for p in run)
        assert (
            cache.admit(Box(((0, 3), (0, 3))), (_element("0"),), run, runz, 0)
            is None
        )
        cache2 = QueryResultCache(GRID, max_elements_per_entry=1)
        assert (
            cache2.admit(
                Box(((0, 3), (0, 3))),
                (_element("00"), _element("01")),
                (),
                (),
                0,
            )
            is None
        )

    def test_admission_replays_dirty_log(self):
        # A result computed at epoch 1 admitted after an overlapping
        # epoch-3 commit arrives already dead (declined: no reader).
        cache = QueryResultCache(GRID)
        element = _element("00")
        cache.record_commit([element.zlo], epoch=3)
        entry = cache.admit(Box(((0, 7), (0, 7))), (element,), (), (), 1)
        assert entry is None
        # Non-overlapping dirty codes leave the admission live.
        other = _element("11")
        entry = cache.admit(
            Box(((24, 31), (24, 31))), (other,), (), (), 1
        )
        assert entry is not None and entry.dead_epoch is None

    def test_record_commit_marks_overlap_only(self):
        cache = QueryResultCache(GRID)
        inside = cache.admit(
            Box(((0, 7), (0, 7))), (_element("00"),), (), (), 0
        )
        outside = cache.admit(
            Box(((24, 31), (24, 31))), (_element("11"),), (), (), 0
        )
        n = cache.record_commit([_element("00").zlo], epoch=1)
        assert n == 1
        assert inside.dead_epoch == 1
        assert outside.dead_epoch is None
        assert cache.stats["cache.invalidate"] == 1
        # Vacuum dropped the dead entry (nothing pinned).
        assert cache.entries() == [outside]

    def test_internal_clock_without_manager(self):
        cache = QueryResultCache(GRID)
        assert cache.current_epoch == 0
        cache.record_commit([0])
        cache.record_commit([1])
        assert cache.current_epoch == 2


def _cached_db(shards: int):
    from repro.db.database import SpatialDatabase
    from repro.db.schema import Schema
    from repro.db.types import INTEGER, OID

    db = SpatialDatabase(
        GRID, page_capacity=8, cache=True
    )
    db.create_table(
        "t", Schema.of(("id@", OID), ("x", INTEGER), ("y", INTEGER))
    )
    rng = random.Random(5)
    db.insert_many(
        "t",
        [(f"p{i}", rng.randrange(SIDE), rng.randrange(SIDE)) for i in range(200)],
    )
    return db, db.create_index("t_xy", "t", ("x", "y"), shards=shards)


class _Decompositions:
    """Test double on ``repro.core.decompose``: counts every box kernel
    constructed (one per decomposition, eager or lazy) and every
    ``Element`` built, whoever asks."""

    def __init__(self, monkeypatch):
        from repro.core.decompose import _BoxKernel

        self.kernels = self.elements = 0
        kernel_init, element_init = _BoxKernel.__init__, Element.__init__

        def counted_kernel(this, *args, **kwargs):
            self.kernels += 1
            kernel_init(this, *args, **kwargs)

        def counted_element(this, *args, **kwargs):
            self.elements += 1
            element_init(this, *args, **kwargs)

        monkeypatch.setattr(_BoxKernel, "__init__", counted_kernel)
        monkeypatch.setattr(Element, "__init__", counted_element)

    def during(self, read):
        self.kernels = self.elements = 0
        out = read()
        return out, self.kernels, self.elements


class TestLookupDecomposes:
    """``QueryResultCache.lookup`` is the one place a cached read
    decides to decompose its box: a repeated box is answered before
    anything decomposes it, a fresh one is decomposed once for the trie
    walk and once more, lazily, by the scan that answers the miss."""

    BOX = Box(((3, 20), (5, 17)))
    COLS = ("x", "y")

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("pinned", [False, True])
    def test_repeat_decomposes_nothing(self, monkeypatch, shards, pinned):
        from repro.core.decompose import box_intervals
        from repro.db.planner import plan_range_query

        db, entry = _cached_db(shards)
        box, cols = self.BOX, self.COLS
        if pinned:
            session = db.session()
            read = partial(session.range_query, "t", cols, box)
        else:
            # The plan's own page estimate decomposes the box before the
            # cache is asked; the cached read is the plan's execution.
            read = plan_range_query(db, "t", cols, box).execute
        # A sharded scan decomposes once to prune and once per shard hit.
        scans = 1 if shards == 1 else 1 + len(
            entry.tree.partitioner.prune(box_intervals(GRID, box))
        )
        counted = _Decompositions(monkeypatch)

        fresh, kernels, elements = counted.during(read)
        fresh = fresh.rows
        assert entry.cache.stats["cache.miss"] == 1
        (admitted,) = entry.cache.entries()
        assert kernels == 1 + scans
        assert elements >= len(admitted.elements)

        for hits in (1, 2):
            again, kernels, elements = counted.during(read)
            assert again.rows == fresh
            assert (kernels, elements) == (0, 0)
            assert entry.cache.stats["cache.hit"] == hits
        if pinned:
            session.close()

    @pytest.mark.parametrize("shards", [1, 3])
    def test_batcher_asks_the_cache_first(
        self, monkeypatch, shards
    ):
        from repro.server.batching import batched_range_matches

        db, entry = _cached_db(shards)
        want = entry.tree.range_query(self.BOX).matches
        counted = _Decompositions(monkeypatch)

        def batch(cache):
            return partial(
                batched_range_matches, entry.tree, GRID, [self.BOX], cache
            )

        # Fresh: one decomposition, for the trie; the shared interval
        # scan needs none.  Repeated: none at all.
        got, kernels, elements = counted.during(batch(entry.cache))
        assert got == [want] and kernels == 1 and elements > 0
        got, kernels, elements = counted.during(batch(entry.cache))
        assert got == [want] and (kernels, elements) == (0, 0)
        # No cache, no trie: intervals straight off the kernel.
        got, kernels, elements = counted.during(batch(None))
        assert got == [want] and (kernels, elements) == (1, 0)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_older_pinned_reader_walks_elements(
        self, monkeypatch, shards
    ):
        db, entry = _cached_db(shards)
        box, cols = self.BOX, self.COLS
        old = db.session()
        before = old.range_query("t", cols, box).rows  # admitted at the pin
        db.insert("t", ("late", 4, 6))  # inside the box: that entry dies
        now = db.range_query("t", cols, box).rows  # newest exact entry
        assert len(now) == len(before) + 1
        newest = entry.cache._exact[box.ranges]
        assert not newest.valid_at(old.epoch)

        counted = _Decompositions(monkeypatch)
        hits = entry.cache.stats["cache.hit"]
        rows, kernels, elements = counted.during(
            partial(old.range_query, "t", cols, box)
        )
        # The exact entry is not the old reader's; the walk finds the
        # one admitted at its own epoch, so nothing is scanned.
        assert rows.rows == before
        assert kernels == 1 and elements == len(newest.elements)
        assert entry.cache.stats["cache.hit"] == hits + 1
        old.close()

    def test_exact_hit_reports_entry_element_count(self):
        import repro.obs as obs

        db, entry = _cached_db(shards=1)
        db.range_query("t", self.COLS, self.BOX)
        with obs.trace("q") as t:
            db.range_query("t", self.COLS, self.BOX)
        lookup = t.root.find("cache.lookup")
        assert lookup.attrs["outcome"] == "hit"
        (admitted,) = entry.cache.entries()
        assert lookup.counters["cache.covered_elements"] == len(
            admitted.elements
        )


def test_drop_index_releases_result_cache():
    db, entry = _cached_db(shards=1)
    db.range_query("t", ("x", "y"), Box(((0, 7), (0, 7))))
    assert len(entry.cache) > 0
    db.drop_index("t_xy")
    assert len(entry.cache) == 0


class TestCachedRangeMatches:
    def test_nested_subquery_is_full_hit(self):
        # Containment-as-prefix: any sub-box of a cached region decomposes
        # into elements whose z-values extend cached prefixes.
        rng = random.Random(1)
        tree = ZkdTree(GRID)
        tree.insert_many(
            [(rng.randrange(SIDE), rng.randrange(SIDE)) for _ in range(200)]
        )
        cache = QueryResultCache(GRID)
        parent = Box(((0, 15), (0, 15)))
        cached_range_matches(cache, tree, GRID, parent)
        assert cache.stats["cache.miss"] == 1
        for sub in (
            Box(((0, 7), (0, 7))),
            Box(((4, 11), (2, 13))),
            Box(((15, 15), (0, 15))),
        ):
            got = cached_range_matches(cache, tree, GRID, sub)
            assert got == tree.range_query(sub).matches
        assert cache.stats["cache.hit"] == 3
        assert cache.stats["cache.partial"] == 0

    def test_partial_hit_serves_residue_from_store(self):
        rng = random.Random(2)
        tree = ZkdTree(GRID)
        tree.insert_many(
            [(rng.randrange(SIDE), rng.randrange(SIDE)) for _ in range(200)]
        )
        cache = QueryResultCache(GRID)
        cached_range_matches(cache, tree, GRID, Box(((0, 7), (0, 7))))
        overlapping = Box(((0, 11), (0, 7)))
        got = cached_range_matches(cache, tree, GRID, overlapping)
        assert got == tree.range_query(overlapping).matches
        assert cache.stats["cache.partial"] == 1

    def test_empty_box_is_trivial(self):
        cache = QueryResultCache(GRID)
        tree = ZkdTree(GRID)
        out_of_space = Box(((SIDE, SIDE + 4), (0, 3)))
        assert cached_range_matches(cache, tree, GRID, out_of_space) == ()
        assert len(cache) == 0


def test_public_evict_hook():
    cache = QueryResultCache(GRID)
    for i, bits in enumerate(("00", "01", "10")):
        cache.admit(Box(((i, i), (i, i))), (_element(bits),), (), (), 0)
    assert len(cache) == 3
    assert cache.evict(2) == 2
    assert len(cache) == 1
    assert cache.stats["cache.evict"] == 2


def test_pinned_reader_keeps_dead_entry_alive():
    """An entry invalidated at epoch E stays consultable for a session
    pinned in [build, E) and is vacuumed once the pin drops."""

    class FakeSnapshots:
        def __init__(self):
            self.current_epoch = 5
            self.pinned_epochs = (2,)

    snaps = FakeSnapshots()
    cache = QueryResultCache(GRID, snapshots=snaps)
    element = _element("00")
    entry = cache.admit(
        Box(((0, 7), (0, 7))), (element,), ((1, 1),), (GRID.zvalue((1, 1)).bits,), 1
    )
    assert entry is not None
    cache.record_commit([element.zlo], epoch=6)
    assert entry.dead_epoch == 6
    # Still present: the epoch-2 pin may consult it.
    assert cache.entries() == [entry]
    look = cache.lookup(entry.box, 2)
    assert look.outcome == "hit"
    # Readers at the new epoch never see it.
    assert cache.lookup(entry.box, 6).outcome == "miss"
    # Pin released -> vacuum reclaims.
    snaps.pinned_epochs = ()
    assert cache.vacuum() == 1
    assert cache.entries() == []
