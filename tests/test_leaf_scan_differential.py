"""Differential tests: the range-driven leaf scan vs the per-record merge.

Every leaf-chain read (``range_query``, ``object_query``,
``interval_query``, ``points``) runs ``repro.storage.btree.scan_ranges``,
which bisects and slices a leaf per z range.  Its contract is *identity*
with the Section 3.3 merge run record at a time over a ``BTreeCursor``
on the same leaves — ``range_search`` / ``object_search`` /
``scan_intervals``, which stay as the oracle: the same matches, the same
``MergeStats`` field for field, and the same page traffic (the access
log in order, descents, inner-node visits, pages touched and the
records on them).  Providers: a live ``ZkdTree``, a ``SnapshotTreeView``
read at an old epoch after later writes, and a ``ZkdTree`` over a
``FilePageStore``.
"""

import os
import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.concurrency import SnapshotManager
from repro.core.deadline import Deadline, DeadlineExceeded, deadline_scope
from repro.core.geometry import Box, Grid, circle_classifier
from repro.core.rangesearch import (
    MergeStats,
    PointRecord,
    object_search,
    range_search,
    scan_intervals,
)
from repro.storage.btree import BTreeCursor
from repro.storage.diskstore import FilePageStore
from repro.storage.prefix_btree import ZkdTree

from conftest import random_points


# ----------------------------------------------------------------------
# Data: small grids, tiny pages, heavy duplicate runs, thinned leaves
# ----------------------------------------------------------------------


@st.composite
def layouts(draw):
    """A 1–3-d grid, a page capacity of 2–6 (so runs cross many leaves),
    points with heavy duplicate runs, a build order, and the points to
    delete afterwards (possibly all of them)."""
    ndims = draw(st.integers(1, 3))
    depth = draw(st.integers(1, {1: 6, 2: 4, 3: 3}[ndims]))
    grid = Grid(ndims, depth)
    coord = st.tuples(*[st.integers(0, grid.side - 1)] * ndims)
    hot = draw(st.lists(coord, min_size=1, max_size=3))
    points = draw(
        st.lists(st.sampled_from(hot) | coord, min_size=0, max_size=60)
    )
    if draw(st.booleans()):
        points += [hot[0]] * draw(st.integers(0, 15))  # one long run
    capacity = draw(st.integers(2, 6))
    bulk = draw(st.booleans())
    deletes = draw(
        st.lists(st.sampled_from(points), max_size=len(points))
        if points
        else st.just([])
    )
    return grid, capacity, bulk, points, deletes


def _box(draw, grid):
    shape = draw(st.sampled_from(["any", "any", "pixel", "whole", "off"]))
    side = grid.side
    ranges = []
    for axis in range(grid.ndims):
        if shape == "pixel":
            lo = hi = draw(st.integers(0, side - 1))
        elif shape == "whole":
            lo, hi = 0, side - 1
        elif shape == "off" and axis == 0:
            lo = draw(st.integers(side, side + 3))
            hi = lo + draw(st.integers(0, 3))
        else:
            a = draw(st.integers(-3, side + 2))
            b = draw(st.integers(-3, side + 2))
            lo, hi = min(a, b), max(a, b)
        ranges.append((lo, hi))
    return Box(tuple(ranges))


def _intervals(draw, grid):
    """Ascending, disjoint ``[zlo, zhi]`` intervals (single codes too)."""
    top = grid.npixels - 1
    cuts = sorted(draw(st.lists(st.integers(0, top), max_size=12)))
    out = []
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        if not out or lo > out[-1][1]:
            out.append((lo, hi))
    return out


@st.composite
def queries(draw, grid):
    """A mixed list of box, circle and interval-list queries."""
    out = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["box", "box", "circle", "intervals"]))
        if kind == "box":
            out.append(("box", _box(draw, grid)))
        elif kind == "circle":
            center = tuple(
                draw(st.integers(0, grid.side - 1)) for _ in range(grid.ndims)
            )
            radius = draw(st.floats(0.0, grid.side, allow_nan=False))
            out.append(("circle", (center, radius)))
        else:
            out.append(("intervals", _intervals(draw, grid)))
    return out


def _fill(tree, bulk, points, deletes):
    if bulk:
        tree.bulk_load(points)
    else:
        tree.insert_many(points)
    for point in deletes:
        tree.delete(point)


def _hollow(tree, picks):
    """Empty the picked leaves in place.  Rebalancing never leaves an
    empty leaf inside a chain, but the chain format allows one (a reopen
    rebuilds its index over them), and both reads must step across."""
    ids = list(tree.tree.leaf_ids())
    for pick in picks:
        if pick < len(ids):
            tree.buffer.peek(ids[pick]).records.clear()


# ----------------------------------------------------------------------
# Providers: where the scan's leaves are, and the oracle's
# ----------------------------------------------------------------------


class LiveProvider:
    """A live tree: every read walks ``tree.tree``; records on a page
    are read back through the buffer, as the merge era counted them."""

    def __init__(self, tree):
        self.tree = tree
        self.reads = tree

    def prepare(self):
        self.tree.tree.reset_counters()

    def scan_leaves(self):
        return self.tree.tree

    def oracle_leaves(self):
        self.tree.tree.reset_counters()
        return self.tree.tree

    def records_of(self, page_id):
        return self.tree.buffer.peek(page_id).nrecords


class ViewProvider:
    """A snapshot view: each read builds its own frozen-index reader,
    captured here; records on a page are its image at the epoch."""

    def __init__(self, tree, epoch):
        self.tree = tree
        self.epoch = epoch
        self.reads = tree.snapshot_view(epoch)
        self.built = []
        make = self.reads._reader

        def capture(cow_stats):
            self.built.append(make(cow_stats))
            return self.built[-1]

        self.reads._reader = capture

    def prepare(self):
        pass

    def scan_leaves(self):
        return self.built[-1]

    def oracle_leaves(self):
        return self.reads._reader({})

    def records_of(self, page_id):
        return self.tree.store.read_at(page_id, self.epoch).nrecords


def _log(leaves):
    return list(leaves.leaf_accesses), leaves.descents, leaves.node_visits


def check_queries(provider, grid, cases):
    """Run every query through the provider and through the merge over
    a ``BTreeCursor`` on the same leaves; everything must agree."""
    for kind, arg in cases:
        provider.prepare()
        if kind == "box":
            got = provider.reads.range_query(arg)

            def merge(cursor, stats, box=arg):
                return range_search(cursor, grid, box, stats)

        elif kind == "circle":
            classify = circle_classifier(*arg)
            got = provider.reads.object_query(classify)

            def merge(cursor, stats, classify=classify):
                return object_search(cursor, grid, classify, stats)

        else:
            runs = provider.reads.interval_query(arg)
            scan_log = _log(provider.scan_leaves())
            leaves = provider.oracle_leaves()
            want = scan_intervals(BTreeCursor(leaves), arg)
            assert _log(leaves) == scan_log
            assert len(runs) == len(arg)
            assert tuple(payloads for _, payloads in runs) == want
            for keys, payloads in runs:
                assert keys == tuple(grid.zvalue(p).bits for p in payloads)
            continue
        scan_log = _log(provider.scan_leaves())
        leaves = provider.oracle_leaves()
        stats = MergeStats()
        want = tuple(merge(BTreeCursor(leaves), stats))
        touched = set(leaves.leaf_accesses)
        assert got.matches == want
        assert got.merge == stats
        assert _log(leaves) == scan_log
        assert got.pages_accessed == len(touched)
        assert got.records_on_pages == sum(map(provider.records_of, touched))
    # The whole chain, the way points() reads it.
    provider.prepare()
    got_points = provider.reads.points()
    scan_log = _log(provider.scan_leaves())
    leaves = provider.oracle_leaves()
    cursor = BTreeCursor(leaves)
    want_points = []
    record = cursor.current
    while record is not None:
        want_points.append(record.payload)
        record = cursor.step()
    assert got_points == want_points
    assert _log(leaves) == scan_log


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_live_tree_scan_equals_merge(data):
    grid, capacity, bulk, points, deletes = data.draw(layouts())
    tree = ZkdTree(grid, page_capacity=capacity, buffer_frames=2)
    _fill(tree, bulk, points, deletes)
    _hollow(tree, data.draw(st.lists(st.integers(0, 20), max_size=6)))
    check_queries(LiveProvider(tree), grid, data.draw(queries(grid)))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_snapshot_view_scan_equals_merge(data):
    """Read at a pinned epoch after later inserts and deletes have
    split, merged and freed the pages it still sees."""
    grid, capacity, bulk, points, deletes = data.draw(layouts())
    manager = SnapshotManager()
    tree = ZkdTree(
        grid, page_capacity=capacity, buffer_frames=2, snapshots=manager
    )
    _fill(tree, bulk, points, deletes)
    epoch = manager.pin()
    frozen = tree.points()
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    later = random_points(rng, grid, rng.randrange(0, 30))
    tree.insert_many(later)
    for point in rng.sample(later + frozen, len(later + frozen) // 2):
        tree.delete(point)
    provider = ViewProvider(tree, epoch)
    assert provider.reads.points() == frozen
    check_queries(provider, grid, data.draw(queries(grid)))
    manager.unpin(epoch)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_file_store_scan_equals_merge(data):
    grid, capacity, bulk, points, deletes = data.draw(layouts())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scan.zkd")
        with FilePageStore(path, page_capacity=capacity) as store:
            tree = ZkdTree(grid, buffer_frames=2, store=store)
            _fill(tree, bulk, points, deletes)
            check_queries(LiveProvider(tree), grid, data.draw(queries(grid)))


def test_empty_tree_scans_its_one_leaf():
    """An empty tree still loads its first leaf, as the merge's cursor
    does, and a box wholly off the grid still descends once."""
    grid = Grid(2, 3)
    tree = ZkdTree(grid, page_capacity=2)
    check_queries(
        LiveProvider(tree),
        grid,
        [
            ("box", grid.whole_space()),
            ("box", Box(((9, 12), (0, 4)))),
            ("circle", ((3, 3), 2.0)),
            ("intervals", [(0, 5), (9, 9)]),
        ],
    )
    result = tree.range_query(grid.whole_space())
    assert (result.pages_accessed, result.records_on_pages) == (1, 0)


# ----------------------------------------------------------------------
# Booby trap: no read builds a cursor or a per-record object
# ----------------------------------------------------------------------


def test_no_read_steps_a_record_cursor(monkeypatch):
    """With ``BTreeCursor``'s record access and ``PointRecord``
    booby-trapped, every leaf-chain read on a live tree and a snapshot
    view must still answer."""
    grid = Grid(2, 6)
    rng = random.Random(28)
    points = random_points(rng, grid, 400) + [(7, 7)] * 30
    manager = SnapshotManager()
    tree = ZkdTree(grid, page_capacity=4, snapshots=manager)
    tree.insert_many(points)
    epoch = manager.pin()
    box = Box(((5, 40), (3, 30)))
    want = sorted(p for p in points if box.contains_point(p))
    circle = circle_classifier((20, 20), 6.5)
    want_circle = sorted(
        p for p in points if sum((a - 20) ** 2 for a in p) <= 6.5**2
    )

    def trapped(*args, **kwargs):
        raise AssertionError("a read stepped a record cursor")

    for name in ("__init__", "step", "seek"):
        monkeypatch.setattr(BTreeCursor, name, trapped)
    monkeypatch.setattr(BTreeCursor, "current", property(trapped))
    monkeypatch.setattr(PointRecord, "__init__", trapped)
    for reads in (tree, tree.snapshot_view(epoch)):
        assert sorted(reads.range_query(box).matches) == want
        assert sorted(reads.object_query(circle).matches) == want_circle
        ((_, inside),) = reads.interval_query([(0, grid.npixels - 1)])
        assert sorted(inside) == sorted(points)
        assert sorted(reads.points()) == sorted(points)
    # The trap itself works: the merge oracle needs the cursor.
    with pytest.raises(AssertionError, match="record cursor"):
        tree.cursor()
    manager.unpin(epoch)


# ----------------------------------------------------------------------
# Deadlines: once per interval, and inside a long run
# ----------------------------------------------------------------------


def _deadline_after(checks):
    """A deadline that expires on its ``checks``-th check (its first
    clock read arms it)."""
    reads = iter([0.0] * checks + [1.0] * 1_000_000)
    return Deadline(0.5, clock=lambda: next(reads))


@pytest.mark.parametrize("where", ["live", "snapshot"])
def test_interval_query_honours_the_deadline(where):
    grid = Grid(2, 6)
    manager = SnapshotManager()
    tree = ZkdTree(grid, page_capacity=8, snapshots=manager)
    tree.insert_many([(x, y) for x in range(40) for y in range(40)])
    epoch = manager.pin()
    reads = tree if where == "live" else tree.snapshot_view(epoch)
    whole = [(0, grid.npixels - 1)]
    # Expired before the scan: the first interval's check fires.
    with deadline_scope(Deadline(0.0, clock=lambda: 0.0)):
        with pytest.raises(DeadlineExceeded) as excinfo:
            reads.interval_query(whole)
    assert excinfo.value.site == "scan_intervals"
    # Expiring mid-run: one interval of 1600 records is cut short.
    with deadline_scope(_deadline_after(3)):
        with pytest.raises(DeadlineExceeded) as excinfo:
            reads.interval_query(whole)
    assert excinfo.value.site == "scan_intervals"
    ((_, inside),) = reads.interval_query(whole)
    assert len(inside) == 1600
    manager.unpin(epoch)
