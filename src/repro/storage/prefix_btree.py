"""The zkd B+-tree: points stored in z order in a prefix B+-tree.

This is the structure of the paper's experiments (Section 5.3.2,
Figure 6): each point is shuffled to its z code and inserted into a
B+-tree whose leaves are fixed-capacity data pages ("Page capacity was
20 points").  Range queries run the merge-based algorithm of Section 3.3
directly against the leaf chain, using the tree's random access to skip.

Per-query measurements match the paper's:

* ``pages`` — distinct data (leaf) pages touched;
* ``efficiency`` — the fraction of the records on the touched pages
  that satisfy the query ("a measure indicating how much 'relevant'
  data was on each retrieved page").
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.deadline import check_deadline
from repro.core.decompose import CoverMode, ElementCursor, _BoxKernel
from repro.core.geometry import Box, ClassifyFn, Grid, circle_classifier
from repro.core.fastz import interleave_fast, interleave_many
from repro.core.rangesearch import MergeStats
from repro.obs.trace import current as _trace_current
from repro.obs.trace import span as _trace_span
from repro.storage.btree import BPlusTree, BTreeCursor, scan_ranges
from repro.storage.buffer import BufferManager, ReplacementPolicy
from repro.storage.page import PageStore, Record

__all__ = ["QueryResult", "ProximityReads", "LeafChainReads", "ZkdTree"]

Point = Tuple[int, ...]

#: What drives a scan: ``advance(floor)`` hands out z ranges in order
#: (see :func:`~repro.storage.btree.scan_ranges`), and ``nodes_expanded``
#: is the decomposition work behind them.
Elements = Union[_BoxKernel, ElementCursor]


@dataclass(frozen=True)
class QueryResult:
    """Outcome and cost of one range query.

    ``buffer_stats`` is the buffer manager's per-query delta (counters
    are snapshotted at query start and diffed at the end, so
    hits/misses/hit_rate belong to this query alone — no leakage across
    planner runs, and no clobbering of concurrent queries).
    """

    matches: Tuple[Point, ...]
    pages_accessed: int
    records_on_pages: int
    merge: MergeStats
    buffer_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def nmatches(self) -> int:
        return len(self.matches)

    @property
    def efficiency(self) -> float:
        """Relevant records / records on retrieved pages (0 when no page
        was touched)."""
        if self.records_on_pages == 0:
            return 0.0
        return len(self.matches) / self.records_on_pages


class ProximityReads:
    """Section 6's proximity queries for any point store with ``grid``,
    ``__len__``, ``range_query`` (matches in z order) and
    ``object_query``: a ball, or the box around one, is just another
    query region for the merge."""

    grid: Grid

    def __len__(self) -> int:
        raise NotImplementedError

    def range_query(self, box: Box) -> Any:
        raise NotImplementedError

    def object_query(
        self, classify: ClassifyFn, max_depth: Optional[int] = None
    ) -> Any:
        raise NotImplementedError

    def within_distance(self, center: Sequence[int], radius: float) -> Any:
        """Proximity query: all points within Euclidean ``radius`` of
        ``center`` — translated into an overlap query against a ball,
        exactly as Section 6 prescribes."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        return self.object_query(circle_classifier(tuple(center), radius))

    def nearest_neighbours(
        self, center: Sequence[int], k: int = 1
    ) -> List[Point]:
        """The ``k`` stored points nearest to ``center`` (Euclidean),
        ties by z code — exact, by ordinary range queries: probe the
        box ``[c - r, c + r]`` (clipped to the grid) from the radius at
        which a uniform store of this size would hold ``k`` points,
        doubling while fewer come back.  With >= ``k`` matches whose
        k-th distance ``d_k`` is at most ``r`` the L2 ball of the answer
        lies inside the probe box; otherwise one closing probe at
        ``ceil(d_k)`` covers it.

        A probe's matches arrive in z order, the order of the leaf keys,
        so a stable sort by distance alone ranks ties by z code: no
        point is shuffled back into its code."""
        if k < 1:
            raise ValueError("k must be positive")
        n = len(self)
        if n == 0:
            return []
        center = tuple(center)
        grid = self.grid
        grid.validate_point(center)
        k = min(k, n)
        side, top = grid.side, grid.side - 1

        def probe(r: int) -> List[Tuple[int, Point]]:
            box = Box(
                tuple((max(c - r, 0), min(c + r, top)) for c in center)
            )
            return sorted(
                (
                    (sum((a - b) ** 2 for a, b in zip(p, center)), p)
                    for p in self.range_query(box).matches
                ),
                key=itemgetter(0),
            )

        radius = max(1, math.ceil(side * (k / n) ** (1.0 / grid.ndims)))
        probes = candidates = 0
        while True:
            ranked = probe(radius)
            probes += 1
            candidates += len(ranked)
            kth = ranked[k - 1][0] if len(ranked) >= k else None
            if radius >= side or (kth is not None and kth <= radius**2):
                break  # the box is the grid, or holds the answer's ball
            radius = 2 * radius if kth is None else math.isqrt(kth - 1) + 1
        trace = _trace_current()
        if trace is not None:
            trace.add("knn.queries", 1)
            trace.add("knn.probes", probes)
            trace.add("knn.candidates", candidates)
        return [p for _, p in ranked[:k]]


def _payloads(runs: Iterable[List[Record]]) -> List[Point]:
    """The payloads of a scan's record slices, in order.  Only payloads
    are kept: holding the record tuples would pin every leaf's records
    until the last slice, though the buffer has long dropped the page."""
    out: List[Point] = []
    for run in runs:
        out.extend(map(itemgetter(1), run))
    return out


class LeafChainReads(ProximityReads):
    """Every read over one z-ordered leaf chain, written once.

    A provider — the live :class:`ZkdTree`, a frozen
    :class:`~repro.concurrency.view.SnapshotTreeView` — supplies
    ``grid``, :meth:`_leaves` and :meth:`_scan` (run one
    :meth:`_matches` over the provider's leaves and return its
    :class:`QueryResult` with the provider's own cost accounting and
    trace span, which names the query ``box`` when there is one).
    Every read is :func:`~repro.storage.btree.scan_ranges`, driven by the
    query's z ranges.
    """

    def _leaves(self) -> Any:
        """The leaf chain to scan: anything with ``_leftmost_leaf_for``
        and ``_load_leaf``."""
        raise NotImplementedError

    def _scan(
        self, name: str, box: Optional[Box], elements: Elements
    ) -> QueryResult:
        raise NotImplementedError

    def cursor(self) -> BTreeCursor:
        """A z-ordered record cursor at the start of the leaf chain (the
        merge oracle's point side, and a merge join's input)."""
        return BTreeCursor(self._leaves())

    @staticmethod
    def _matches(
        leaves: Any,
        elements: Elements,
        loaded: Dict[int, int],
        stats: MergeStats,
    ) -> Tuple[Point, ...]:
        """The payloads in ``elements``' ranges, with the merge's
        counters in ``stats`` and its ``rangesearch.merge`` span."""
        runs = scan_ranges(leaves, elements.advance, loaded, stats)
        matches = tuple(_payloads(runs))
        stats.elements_generated = elements.nodes_expanded
        stats.publish()
        return matches

    def range_query(self, box: Box) -> QueryResult:
        """All points inside ``box`` plus the paper's cost measures."""
        return self._scan(
            "range_query", box, _BoxKernel(self.grid, box, None, CoverMode.OUTER)
        )

    def object_query(
        self, classify: ClassifyFn, max_depth: Optional[int] = None
    ) -> QueryResult:
        """Range search against an arbitrary query region given by its
        inside/outside/boundary oracle (Section 6: containment and
        proximity queries reduce to the same scan)."""
        return self._scan(
            "object_query",
            None,
            ElementCursor(self.grid, classify, max_depth=max_depth),
        )

    def interval_query(
        self, intervals: Sequence[Tuple[int, int]]
    ) -> Tuple[Tuple[Tuple[int, ...], Tuple[Point, ...]], ...]:
        """The ``(keys, payloads)`` of the records whose z codes fall in
        each ``[zlo, zhi]`` interval, one pair per interval — the
        shared scan of the batcher and of the eps-seek.  Intervals must
        be ascending and disjoint.  Deliberately untraced: the caller
        owns the span.
        Checks the deadline once per interval and once per leaf slice."""
        current = -1
        todo = iter(enumerate(intervals))

        def advance(floor: int) -> Optional[Tuple[int, int]]:
            nonlocal current
            for current, (zlo, zhi) in todo:
                check_deadline("scan_intervals")
                if zhi >= floor:
                    return zlo, zhi
            return None

        keys: List[List[int]] = [[] for _ in intervals]
        payloads: List[List[Point]] = [[] for _ in intervals]
        for run in scan_ranges(self._leaves(), advance, {}):
            keys[current].extend(map(itemgetter(0), run))
            payloads[current].extend(map(itemgetter(1), run))
            check_deadline("scan_intervals")
        return tuple((tuple(k), tuple(p)) for k, p in zip(keys, payloads))

    def points(self) -> List[Point]:
        """All stored points in z order (counts page accesses)."""
        # One range over every key: the run ends only at the chain's end.
        whole = (0, (1 << self.grid.total_bits) - 1)
        return _payloads(scan_ranges(self._leaves(), lambda floor: whole, {}))


class ZkdTree(LeafChainReads):
    """Points of a :class:`~repro.core.geometry.Grid` stored in z order.

    Parameters mirror the experiment setup: ``page_capacity`` is the
    number of points per data page, ``buffer_frames`` the cache size
    (the merge makes its value nearly irrelevant — see the buffer-policy
    bench), ``order`` the inner-node fan-out.
    """

    def __init__(
        self,
        grid: Grid,
        page_capacity: int = 20,
        buffer_frames: int = 8,
        order: int = 32,
        policy: ReplacementPolicy = ReplacementPolicy.LRU,
        store=None,
        snapshots=None,
    ) -> None:
        self.grid = grid
        self.store = store if store is not None else PageStore(page_capacity)
        self.buffer = BufferManager(self.store, buffer_frames, policy)
        self._snapshots = None
        self._index_snapshots: Dict[int, object] = {}
        self.tree = BPlusTree(
            self.store,
            self.buffer,
            order=order,
            total_bits=grid.total_bits,
        )
        if snapshots is not None:
            self.attach_snapshots(snapshots)

    @classmethod
    def open(
        cls,
        grid: Grid,
        store,
        buffer_frames: int = 8,
        order: int = 32,
        policy: ReplacementPolicy = ReplacementPolicy.LRU,
        snapshots=None,
    ) -> "ZkdTree":
        """Reattach to an existing leaf chain (e.g. a
        :class:`~repro.storage.diskstore.FilePageStore` file written by
        an earlier session); the in-memory index is rebuilt."""
        tree = cls.__new__(cls)
        tree.grid = grid
        tree.store = store
        tree.buffer = BufferManager(store, buffer_frames, policy)
        tree._snapshots = None
        tree._index_snapshots = {}
        tree.tree = BPlusTree.open(
            store, tree.buffer, order=order, total_bits=grid.total_bits
        )
        if snapshots is not None:
            tree.attach_snapshots(snapshots)
        return tree

    def attach_snapshots(self, snapshots) -> None:
        """Version this tree under ``snapshots`` (a :class:`~repro.
        concurrency.manager.SnapshotManager`) from the pending epoch on
        — the one way a tree becomes versioned.  A tree is built plain,
        so loading it clones no page; attaching it then, in one write
        transaction, flushes the buffer and empties it (no frame may
        alias a stored page once the store copies on read and write),
        notes every page's birth at the pending epoch, and registers the
        tree for index capture at pin time.  No reader may consult the
        tree at an epoch before that commit."""
        with snapshots.write_transaction():
            with self.transaction():
                self.buffer.flush()
            self.buffer.clear()
            versions = snapshots.new_version_map()
            for page_id in self.store.page_ids():
                versions.note_birth(page_id)
            self.store.attach_versions(versions)
            self._snapshots = snapshots
            snapshots.register_tree(self)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator["ZkdTree"]:
        """Group tree mutations into one atomic, durable unit.

        One path: with a :class:`~repro.concurrency.manager.
        SnapshotManager` attached the block runs inside the manager's
        write transaction (joining the one its thread already holds, so
        a database write and every tree mutation in it share one lock
        acquisition and one epoch); on a store with transaction support
        (a WAL-backed :class:`~repro.storage.diskstore.FilePageStore`)
        it also runs inside a store transaction; either way the buffer
        pool's dirty pages are flushed at exit, so the store is
        snapshot-consistent at the epoch boundary and a crash anywhere
        inside the block leaves the on-disk tree at either the previous
        or the new state — never a half-applied split.  A plain
        in-memory tree needs neither, and the block is a no-op wrapper
        that flushes nothing.

        After a :class:`~repro.faults.CrashPoint` escapes the block the
        in-memory tree is stale; abandon it and ``ZkdTree.open`` the
        file again (recovery replays the committed prefix).
        """
        snapshots = getattr(self, "_snapshots", None)
        durable = getattr(self.store, "supports_transactions", False)
        if snapshots is None and not durable:
            yield self
            return
        with snapshots.write_transaction() if snapshots else nullcontext():
            with self.store.transaction() if durable else nullcontext():
                yield self
                self.buffer.flush()

    def insert(self, point: Sequence[int]) -> None:
        point = tuple(point)
        self.grid.validate_point(point)
        with self.transaction():
            self.tree.insert(interleave_fast(point, self.grid.depth), point)

    def insert_many(self, points: Iterable[Sequence[int]]) -> None:
        pts = [tuple(p) for p in points]
        codes = interleave_many(pts, self.grid.depth, self.grid.ndims)
        with self.transaction():
            for code, point in zip(codes, pts):
                self.tree.insert(code, point)

    def bulk_load(
        self,
        points: Iterable[Sequence[int]],
        fill_factor: float = 1.0,
    ) -> None:
        """Sort the points by z value and pack them bottom-up — the
        fast load path for an initially empty tree."""
        pts = [tuple(p) for p in points]
        codes = interleave_many(pts, self.grid.depth, self.grid.ndims)
        with self.transaction():
            self.tree.bulk_load(zip(codes, pts), fill_factor)

    def delete(self, point: Sequence[int]) -> bool:
        point = tuple(point)
        self.grid.validate_point(point)
        with self.transaction():
            return self.tree.delete(
                interleave_fast(point, self.grid.depth), point
            )

    def __len__(self) -> int:
        return len(self.tree)

    def __contains__(self, point: Sequence[int]) -> bool:
        point = tuple(point)
        return point in self.tree.search(self.grid.zvalue(point).bits)

    @property
    def npages(self) -> int:
        """Number of data pages (the ``N`` of the analysis)."""
        return self.tree.nleaves

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _leaves(self) -> BPlusTree:
        return self.tree

    def _scan(
        self, name: str, box: Optional[Box], elements: Elements
    ) -> QueryResult:
        # Per-query counter hygiene: clear the access log and descent
        # counters and snapshot the buffer's and the store's counters so
        # measured rates describe *this* query only.  Deltas, not
        # resets: zeroing the shared counters mid-flight would corrupt
        # a concurrent query's accounting.
        self.tree.reset_counters()
        buffer = self.buffer
        hits0, misses0 = buffer.hits, buffer.misses
        evictions0, reads0 = buffer.evictions, self.store.reads
        stats = MergeStats()
        loaded: Dict[int, int] = {}
        with _trace_span(f"zkd.{name}") as span:
            if span is not None and box is not None:
                span.set("box", repr(box))
            matches = self._matches(self.tree, elements, loaded, stats)
            records = sum(loaded.values())
            hits = buffer.hits - hits0
            misses = buffer.misses - misses0
            if span is not None:
                span.set("npages", self.npages)
                span.add_counters(
                    {
                        "pages_accessed": len(loaded),
                        "records_on_pages": records,
                        "leaf_loads": len(self.tree.leaf_accesses),
                        "node_visits": self.tree.node_visits,
                        "descents": self.tree.descents,
                        "buffer_hits": hits,
                        "buffer_misses": misses,
                        "store_reads": self.store.reads - reads0,
                    }
                )
        return QueryResult(
            matches=matches,
            pages_accessed=len(loaded),
            records_on_pages=records,
            merge=stats,
            buffer_stats={
                "hits": hits,
                "misses": misses,
                "evictions": buffer.evictions - evictions0,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            },
        )

    def partial_match_query(
        self, fixed: Sequence[Optional[int]]
    ) -> QueryResult:
        """A partial-match query: ``fixed[j]`` pins axis ``j`` to a value
        or leaves it unrestricted (``None``) — Section 5.3.1."""
        if len(fixed) != self.grid.ndims:
            raise ValueError("one entry per axis required")
        side = self.grid.side
        ranges = []
        for j, value in enumerate(fixed):
            if value is None:
                ranges.append((0, side - 1))
            else:
                if not 0 <= value < side:
                    raise ValueError(f"axis {j} value {value} outside grid")
                ranges.append((value, value))
        return self.range_query(Box(tuple(ranges)))

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot_view(self, epoch: int):
        """A read-only view of this tree as of pinned commit ``epoch``
        (requires an attached :class:`~repro.concurrency.manager.
        SnapshotManager` and an active pin for the epoch)."""
        from repro.concurrency.view import SnapshotTreeView

        return SnapshotTreeView(self, epoch)

    def _capture_index(self, epoch: int) -> None:
        """Freeze the in-memory index graph for ``epoch`` (idempotent;
        called by the manager at pin time, under its capture lock)."""
        if epoch in self._index_snapshots:
            return
        from repro.concurrency.view import FrozenIndex

        root, first_leaf, nrecords = self.tree.clone_index()
        self._index_snapshots[epoch] = FrozenIndex(root, first_leaf, nrecords)
        if self._snapshots is not None:
            self._snapshots.stats["snapshot.captures"] += 1

    def _drop_captures(self, keep) -> None:
        """Reclamation hook: drop index captures for unpinned epochs."""
        for epoch in [e for e in self._index_snapshots if e not in keep]:
            del self._index_snapshots[epoch]

    # ------------------------------------------------------------------
    # Figure 6 introspection
    # ------------------------------------------------------------------

    def page_of_point(self, point: Sequence[int]) -> int:
        """Ordinal of the leaf page whose key interval covers ``point``
        (pixels between stored points belong to the page that would
        receive them) — the partition Figure 6 renders."""
        z = self.grid.zvalue(point).bits
        bounds = self.tree.partition_boundaries()
        # First page whose low key is <= z; pages tile [0, 2**bits).
        import bisect as _bisect

        index = _bisect.bisect_right(bounds, z) - 1
        return max(index, 0)

    def partition_map(self) -> List[List[int]]:
        """For 2-d grids: a ``side x side`` matrix of page ordinals
        (row = y, column = x) — the raw material of Figure 6."""
        if self.grid.ndims != 2:
            raise ValueError("partition_map is 2-d only")
        bounds = self.tree.partition_boundaries()
        import bisect as _bisect

        side = self.grid.side
        rows: List[List[int]] = []
        for y in range(side):
            row = []
            for x in range(side):
                z = self.grid.zvalue((x, y)).bits
                row.append(max(_bisect.bisect_right(bounds, z) - 1, 0))
            rows.append(row)
        return rows
