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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.geometry import Box, ClassifyFn, Grid, circle_classifier
from repro.core.fastz import interleave_many
from repro.core.rangesearch import (
    MergeStats,
    ZCursor,
    object_search,
    range_search,
    scan_intervals,
)
from repro.obs.trace import current as _trace_current
from repro.obs.trace import span as _trace_span
from repro.storage.btree import BPlusTree, BTreeCursor
from repro.storage.buffer import BufferManager, ReplacementPolicy
from repro.storage.page import PageStore

__all__ = ["QueryResult", "ProximityReads", "LeafChainReads", "ZkdTree"]

Point = Tuple[int, ...]


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
    ``__len__``, ``range_query`` and ``object_query``: a ball, or the
    box around one, is just another query region for the merge."""

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
        ``ceil(d_k)`` covers it."""
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

        def probe(r: int) -> List[Tuple[int, int, Point]]:
            box = Box(
                tuple((max(c - r, 0), min(c + r, top)) for c in center)
            )
            matches = self.range_query(box).matches
            codes = interleave_many(matches, grid.depth, grid.ndims)
            return sorted(
                (sum((a - b) ** 2 for a, b in zip(p, center)), code, p)
                for p, code in zip(matches, codes)
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
        return [p for _, _, p in ranked[:k]]


#: One merge over a fresh cursor, filling the stats it is handed.
Search = Callable[[ZCursor[Point], MergeStats], Iterator[Point]]


class LeafChainReads(ProximityReads):
    """Every read over one z-ordered leaf chain, written once.

    A provider — the live :class:`ZkdTree`, a frozen
    :class:`~repro.concurrency.view.SnapshotTreeView` — supplies
    ``grid``, :meth:`cursor` and :meth:`_scan` (run one merge against a
    fresh cursor and return its :class:`QueryResult` with the provider's
    own cost accounting and trace span, which names the query ``box``
    when there is one).
    """

    def cursor(self) -> ZCursor[Point]:
        """A fresh z-ordered cursor at the start of the leaf chain."""
        raise NotImplementedError

    def _scan(
        self, name: str, box: Optional[Box], search: Search
    ) -> QueryResult:
        raise NotImplementedError

    def range_query(self, box: Box) -> QueryResult:
        """All points inside ``box`` plus the paper's cost measures."""
        return self._scan(
            "range_query",
            box,
            lambda cursor, stats: range_search(
                cursor, self.grid, box, stats
            ),
        )

    def object_query(
        self, classify: ClassifyFn, max_depth: Optional[int] = None
    ) -> QueryResult:
        """Range search against an arbitrary query region given by its
        inside/outside/boundary oracle (Section 6: containment and
        proximity queries reduce to the same merge)."""
        return self._scan(
            "object_query",
            None,
            lambda cursor, stats: object_search(
                cursor, self.grid, classify, stats, max_depth
            ),
        )

    def interval_query(
        self, intervals: Sequence[Tuple[int, int]]
    ) -> Tuple[Tuple[Point, ...], ...]:
        """Points whose z codes fall in each ``[zlo, zhi]`` interval,
        one tuple per interval — the residual-scan primitive of the
        semantic result cache.  Intervals must be ascending and
        disjoint.  Deliberately untraced: the cache front-end owns the
        span."""
        return scan_intervals(self.cursor(), intervals)

    def points(self) -> List[Point]:
        """All stored points in z order (counts page accesses)."""
        out: List[Point] = []
        cursor = self.cursor()
        record = cursor.current
        while record is not None:
            out.append(record.payload)
            record = cursor.step()
        return out


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
        self._mutation_epoch = 0
        self.store = store if store is not None else PageStore(page_capacity)
        self.buffer = BufferManager(self.store, buffer_frames, policy)
        self._snapshots = snapshots
        self._index_snapshots: Dict[int, object] = {}
        if snapshots is None:
            self.tree = BPlusTree(
                self.store,
                self.buffer,
                order=order,
                total_bits=grid.total_bits,
            )
            return
        # Concurrency mode: route page retirement through the manager's
        # version map and register for index capture at pin time.  Even
        # the first-leaf allocation happens inside a write transaction
        # so its birth epoch is a commit boundary.
        self.store.attach_versions(snapshots.new_version_map())
        snapshots.register_tree(self)
        with self.transaction():
            self.tree = BPlusTree(
                self.store,
                self.buffer,
                order=order,
                total_bits=grid.total_bits,
            )

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
        tree._mutation_epoch = 0
        tree.store = store
        tree.buffer = BufferManager(store, buffer_frames, policy)
        tree._snapshots = snapshots
        tree._index_snapshots = {}
        if snapshots is not None:
            store.attach_versions(snapshots.new_version_map())
            snapshots.register_tree(tree)
        tree.tree = BPlusTree.open(
            store, tree.buffer, order=order, total_bits=grid.total_bits
        )
        return tree

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator["ZkdTree"]:
        """Group tree mutations into one atomic, durable unit.

        On a WAL-backed :class:`~repro.storage.diskstore.FilePageStore`
        this opens a store transaction and flushes the buffer pool's
        dirty pages into it before commit, so a crash anywhere inside
        the block leaves the on-disk tree at either the previous or the
        new state — never a half-applied split.  On stores without
        transaction support (the in-memory default) it is a no-op
        wrapper, so callers need not care which store they run on.

        After a :class:`~repro.faults.CrashPoint` escapes the block the
        in-memory tree is stale; abandon it and ``ZkdTree.open`` the
        file again (recovery replays the committed prefix).

        With a :class:`~repro.concurrency.manager.SnapshotManager`
        attached the block additionally runs under the manager's
        exclusive write lock and advances the commit epoch at the
        outermost exit — nested transactions (a database-level group
        commit spanning several trees) share one epoch.  The buffer is
        flushed even on non-transactional stores so the store is always
        snapshot-consistent at the epoch boundary.
        """
        snapshots = getattr(self, "_snapshots", None)
        if snapshots is not None:
            with snapshots.write_transaction():
                if getattr(self.store, "supports_transactions", False):
                    with self.store.transaction():
                        yield self
                        self.buffer.flush()
                else:
                    yield self
                    self.buffer.flush()
            return
        if not getattr(self.store, "supports_transactions", False):
            yield self
            return
        with self.store.transaction():
            yield self
            self.buffer.flush()

    @property
    def mutation_epoch(self) -> int:
        """Counter bumped on every mutating call — derived read-side
        structures (the planner's memoised histograms) key their
        caches on it to stay coherent."""
        return self._mutation_epoch

    def insert(self, point: Sequence[int]) -> None:
        point = tuple(point)
        self.grid.validate_point(point)
        self._mutation_epoch += 1
        with self.transaction():
            self.tree.insert(self.grid.zvalue(point).bits, point)

    def insert_many(self, points: Iterable[Sequence[int]]) -> None:
        self._mutation_epoch += 1
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
        self._mutation_epoch += 1
        pts = [tuple(p) for p in points]
        codes = interleave_many(pts, self.grid.depth, self.grid.ndims)
        with self.transaction():
            self.tree.bulk_load(zip(codes, pts), fill_factor)

    def delete(self, point: Sequence[int]) -> bool:
        point = tuple(point)
        self.grid.validate_point(point)
        self._mutation_epoch += 1
        with self.transaction():
            return self.tree.delete(self.grid.zvalue(point).bits, point)

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

    def cursor(self) -> BTreeCursor:
        return BTreeCursor(self.tree)

    def _scan(
        self, name: str, box: Optional[Box], search: Search
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
        with _trace_span(f"zkd.{name}") as span:
            if span is not None and box is not None:
                span.set("box", repr(box))
            matches = tuple(search(self.cursor(), stats))
            touched = sorted(set(self.tree.leaf_accesses))
            records = sum(
                buffer.peek(page_id).nrecords for page_id in touched
            )
            hits = buffer.hits - hits0
            misses = buffer.misses - misses0
            if span is not None:
                span.set("npages", self.npages)
                span.add_counters(
                    {
                        "pages_accessed": len(touched),
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
            pages_accessed=len(touched),
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
