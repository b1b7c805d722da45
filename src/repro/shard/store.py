"""The sharded spatial store: one zkd tree per z-range shard.

:class:`ShardedSpatialStore` owns one :class:`~repro.storage.
prefix_btree.ZkdTree` (optionally file-backed) per shard of a
:class:`~repro.shard.partition.ZRangePartitioner`, routes loads and
inserts by z code, and answers range queries scatter–gather style:

1. **prune** — decompose the query box into its z-interval elements and
   keep only the shards whose owned z range overlaps one of them (the
   rest are never dispatched; the trace records them as
   ``shards_pruned``);
2. **scatter** — run the surviving shards' merges inline, in shard
   order, with retries and a deadline checkpoint per shard
   (:func:`~repro.shard.scatter.run_shard_calls`);
3. **gather** — merge the per-shard match streams back into one global
   z-ordered sequence.  Shard z ranges are disjoint and the gather heap
   is keyed by each shard's range low, so whole streams pop in order:
   a k-way merge that costs ``O(k log k)`` heap work instead of a
   per-point comparison — and the result is byte-identical to the
   single-store merge.

Shard sub-queries run untraced (:func:`repro.obs.trace.suppress`); the
coordinator publishes one ``shard.scatter_gather`` span with a curated
``shard[i]`` child per dispatched shard.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
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

from repro.core.deadline import check_deadline
from repro.core.decompose import box_intervals
from repro.core.fastz import interleave_many
from repro.core.geometry import Box, ClassifyFn, Grid
from repro.core.rangesearch import MergeStats
from repro.obs.trace import current as _trace_current
from repro.obs.trace import suppress as _trace_suppress
from repro.shard.partition import ZRangePartitioner
from repro.shard.scatter import (
    ResiliencePolicy,
    ScatterStats,
    ShardCall,
    run_shard_calls,
)
from repro.storage.buffer import ReplacementPolicy
from repro.storage.prefix_btree import ProximityReads, QueryResult, ZkdTree

__all__ = [
    "ShardedQueryResult",
    "ShardedSpatialStore",
    "gather_in_z_order",
    "gather_shard_results",
    "scatter_intervals",
]

Point = Tuple[int, ...]

#: Per-shard page-store factory: ``shard_id -> PageStore`` (or ``None``
#: for the in-memory default) — how file-backed shards get distinct
#: files.
StoreFactory = Callable[[int], Any]


def gather_in_z_order(
    keys: Sequence[int], streams: Sequence[Sequence[Any]]
) -> Tuple[Any, ...]:
    """K-way merge of per-shard result streams into global z order.

    Each stream is internally z-ordered and the shards' z ranges are
    disjoint, so ordering the *streams* by their range low (``keys``)
    orders every element: the heap pops whole streams, never individual
    points, which keeps the gather O(k log k + n) with no per-point z
    comparisons.
    """
    heap = [(key, i) for i, key in enumerate(keys)]
    heapq.heapify(heap)
    out: List[Any] = []
    while heap:
        # One checkpoint per stream: a gather over many shards aborts
        # cooperatively when the requesting client's budget is spent.
        check_deadline("shard.gather")
        _, i = heapq.heappop(heap)
        out.extend(streams[i])
    return tuple(out)


@dataclass(frozen=True)
class ShardedQueryResult(QueryResult):
    """A :class:`~repro.storage.prefix_btree.QueryResult` aggregated
    over the dispatched shards, plus the scatter's own accounting — the
    planner and database layers consume either transparently."""

    shards_hit: Tuple[int, ...] = ()
    shards_pruned: int = 0
    shard_results: Tuple[QueryResult, ...] = ()


def _sum_merge_stats(parts: Iterable[MergeStats]) -> MergeStats:
    total = MergeStats()
    for stats in parts:
        total.points_examined += stats.points_examined
        total.point_seeks += stats.point_seeks
        total.elements_generated += stats.elements_generated
        total.element_seeks += stats.element_seeks
        total.matches += stats.matches
        total.records_scanned += stats.records_scanned
    return total


def _sum_buffer_stats(parts: Sequence[Dict[str, float]]) -> Dict[str, float]:
    hits = sum(int(p.get("hits", 0)) for p in parts)
    misses = sum(int(p.get("misses", 0)) for p in parts)
    return {
        "hits": hits,
        "misses": misses,
        "evictions": sum(int(p.get("evictions", 0)) for p in parts),
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }


def gather_shard_results(
    partitioner: ZRangePartitioner,
    hit: Sequence[int],
    results: Sequence[QueryResult],
) -> ShardedQueryResult:
    """The gather step: per-shard results of the dispatched shards
    ``hit`` (ascending) folded into one global-z-order result."""
    return ShardedQueryResult(
        matches=gather_in_z_order(
            [partitioner.interval(sid)[0] for sid in hit],
            [r.matches for r in results],
        ),
        pages_accessed=sum(r.pages_accessed for r in results),
        records_on_pages=sum(r.records_on_pages for r in results),
        merge=_sum_merge_stats(r.merge for r in results),
        buffer_stats=_sum_buffer_stats([r.buffer_stats for r in results]),
        shards_hit=tuple(hit),
        shards_pruned=partitioner.nshards - len(hit),
        shard_results=tuple(results),
    )


def scatter_intervals(
    partitioner: ZRangePartitioner,
    intervals: Sequence[Tuple[int, int]],
    scan: Callable[[List[int], List[List[Tuple[int, int]]]], Sequence[Any]],
) -> Tuple[Tuple[Point, ...], ...]:
    """Points in each inclusive z interval, one tuple per interval.

    Each interval is clipped to the overlapping shards' owned ranges
    (an element can straddle a shard cut), ``scan(shard_ids,
    interval_lists)`` returns every listed shard's runs, and the
    sub-runs reassemble per original interval in ascending shard order
    — which, the shard ranges being disjoint and ascending, is z order.
    """
    per_shard: Dict[int, List[Tuple[int, Tuple[int, int]]]] = {}
    for index, (zlo, zhi) in enumerate(intervals):
        for shard_id in partitioner.prune([(zlo, zhi)]):
            slo, shi = partitioner.interval(shard_id)
            clipped = (max(zlo, slo), min(zhi, shi))
            per_shard.setdefault(shard_id, []).append((index, clipped))
    order = sorted(per_shard)
    results = scan(
        order, [[iv for _, iv in per_shard[sid]] for sid in order]
    )
    parts: List[List[Point]] = [[] for _ in intervals]
    for shard_id, runs in zip(order, results):
        for (index, _), run in zip(per_shard[shard_id], runs):
            parts[index].extend(run)
    return tuple(tuple(part) for part in parts)


class ShardedSpatialStore(ProximityReads):
    """N z-range shards behind the single-store query interface.

    >>> from repro.core.geometry import Grid, Box
    >>> grid = Grid(ndims=2, depth=3)
    >>> store = ShardedSpatialStore.build(
    ...     grid, [(x, x) for x in range(8)], nshards=2)
    >>> store.nshards, len(store)
    (2, 8)
    >>> store.range_query(Box(((0, 3), (0, 3)))).matches
    ((0, 0), (1, 1), (2, 2), (3, 3))
    """

    def __init__(
        self,
        grid: Grid,
        partitioner: Optional[ZRangePartitioner] = None,
        nshards: Optional[int] = None,
        page_capacity: int = 20,
        buffer_frames: int = 8,
        order: int = 32,
        policy: ReplacementPolicy = ReplacementPolicy.LRU,
        store_factory: Optional[StoreFactory] = None,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> None:
        if partitioner is None:
            partitioner = ZRangePartitioner.equi_width(
                grid.total_bits, nshards if nshards is not None else 1
            )
        elif nshards is not None and nshards != partitioner.nshards:
            raise ValueError(
                f"partitioner has {partitioner.nshards} shards, "
                f"nshards={nshards} requested"
            )
        if partitioner.total_bits != grid.total_bits:
            raise ValueError(
                f"partitioner covers {partitioner.total_bits} bits, "
                f"grid has {grid.total_bits}"
            )
        self.grid = grid
        self.partitioner = partitioner
        self.shards: List[ZkdTree] = [
            ZkdTree(
                grid,
                page_capacity=page_capacity,
                buffer_frames=buffer_frames,
                order=order,
                policy=policy,
                store=store_factory(i) if store_factory else None,
            )
            for i in range(partitioner.nshards)
        ]
        self.resilience = resilience if resilience is not None else ResiliencePolicy()

    @classmethod
    def build(
        cls,
        grid: Grid,
        points: Iterable[Sequence[int]],
        nshards: int,
        partition: str = "equi",
        align_bits: int = 0,
        fill_factor: float = 1.0,
        **kwargs: Any,
    ) -> "ShardedSpatialStore":
        """Partition + bulk-load in one step.

        ``partition`` picks the cut policy: ``"equi"`` (equal-width z
        intervals) or ``"balanced"`` (equi-depth quantiles of the data's
        own z codes, the histogram-driven policy for skewed datasets).
        Remaining keyword arguments go to the constructor.
        """
        pts = [tuple(p) for p in points]
        if partition == "equi":
            partitioner = ZRangePartitioner.equi_width(
                grid.total_bits, nshards
            )
        elif partition == "balanced":
            codes = interleave_many(pts, grid.depth, grid.ndims)
            partitioner = ZRangePartitioner.from_codes(
                codes, grid.total_bits, nshards, align_bits
            )
        else:
            raise ValueError(
                f"unknown partition policy {partition!r}; "
                "expected 'equi' or 'balanced'"
            )
        store = cls(grid, partitioner, **kwargs)
        store.bulk_load(pts, fill_factor=fill_factor)
        return store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def nshards(self) -> int:
        return len(self.shards)

    @property
    def npages(self) -> int:
        return sum(shard.npages for shard in self.shards)

    @property
    def height(self) -> int:
        """Worst-case index descent over the shards (a query descends
        each dispatched shard once, so the tallest bounds any one)."""
        return max(shard.tree.height for shard in self.shards)

    def shard_sizes(self) -> List[int]:
        return [len(shard) for shard in self.shards]

    # ------------------------------------------------------------------
    # Maintenance (routing writes)
    # ------------------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator["ShardedSpatialStore"]:
        """One atomic unit across every shard: each shard's transaction
        stays open for the whole block, so a database-level group
        commit produces a single WAL commit per shard store (and, with
        snapshots attached, a single epoch for the batch)."""
        from contextlib import ExitStack

        with ExitStack() as stack:
            for shard in self.shards:
                stack.enter_context(shard.transaction())
            yield self

    def attach_snapshots(self, snapshots) -> None:
        """Version every shard under ``snapshots``
        (:meth:`ZkdTree.attach_snapshots`), in one write transaction."""
        with snapshots.write_transaction():
            for shard in self.shards:
                shard.attach_snapshots(snapshots)

    def snapshot_view(self, epoch: int):
        """A read-only view over all shards as of pinned commit
        ``epoch`` (requires snapshots and an active pin)."""
        from repro.concurrency.view import ShardedSnapshotView

        return ShardedSnapshotView(self, epoch)

    def _zcode(self, point: Sequence[int]) -> int:
        point_t = tuple(point)
        self.grid.validate_point(point_t)
        return self.grid.zvalue(point_t).bits

    def route_point(self, point: Sequence[int]) -> int:
        """The shard that owns ``point``'s z code."""
        return self.partitioner.route(self._zcode(point))

    def _group_by_shard(
        self, points: Iterable[Sequence[int]]
    ) -> List[List[Point]]:
        pts = [tuple(p) for p in points]
        codes = interleave_many(pts, self.grid.depth, self.grid.ndims)
        groups: List[List[Point]] = [[] for _ in range(self.nshards)]
        for point, shard in zip(
            pts, self.partitioner.route_many(codes)
        ):
            groups[shard].append(point)
        return groups

    def bulk_load(
        self,
        points: Iterable[Sequence[int]],
        fill_factor: float = 1.0,
    ) -> None:
        """Route the batch and bottom-up load each shard's tree."""
        for shard, group in zip(self.shards, self._group_by_shard(points)):
            if group:
                shard.bulk_load(group, fill_factor)

    def insert(self, point: Sequence[int]) -> None:
        self.shards[self.route_point(point)].insert(point)

    def insert_many(self, points: Iterable[Sequence[int]]) -> None:
        for shard, group in zip(self.shards, self._group_by_shard(points)):
            if group:
                shard.insert_many(group)

    def delete(self, point: Sequence[int]) -> bool:
        return self.shards[self.route_point(point)].delete(point)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, point: Sequence[int]) -> bool:
        return tuple(point) in self.shards[self.route_point(point)]

    def points(self) -> List[Point]:
        """All stored points in global z order (shard concatenation —
        the ranges are disjoint and ascending)."""
        out: List[Point] = []
        for shard in self.shards:
            out.extend(shard.points())
        return out

    # ------------------------------------------------------------------
    # Queries (scatter–gather)
    # ------------------------------------------------------------------

    def _scatter(
        self, calls: Sequence[ShardCall]
    ) -> Tuple[List[Any], ScatterStats]:
        """The per-shard calls, untraced (the coordinator owns the
        span) and retried per ``self.resilience``."""
        with _trace_suppress():
            return run_shard_calls(calls, self.resilience)

    def range_query(self, box: Box) -> ShardedQueryResult:
        """Scatter the range query to overlapping shards, gather in z
        order.  Matches are byte-identical to a single store's."""
        hit = self.partitioner.prune(box_intervals(self.grid, box))
        results: List[QueryResult]
        results, stats = self._scatter(
            [(sid, partial(self.shards[sid].range_query, box)) for sid in hit]
        )
        out = gather_shard_results(self.partitioner, hit, results)
        trace = _trace_current()
        if trace is not None:
            span = trace.active_span.child("shard.scatter_gather")
            span.set("box", repr(box))
            span.set("nshards", self.nshards)
            span.add_counters(
                {
                    "shards_hit": len(hit),
                    "shards_pruned": out.shards_pruned,
                    "rows_gathered": len(out.matches),
                }
            )
            # The resilience counter only appears when a fault actually
            # fired, so fault-free traces (and the CI trace-counter
            # baseline) are unchanged.
            if stats.retries:
                span.add_counters({"shard.retries": stats.retries})
            for shard_id, result in zip(hit, results):
                zlo, zhi = self.partitioner.interval(shard_id)
                child = span.child(f"shard[{shard_id}]")
                child.set("zlo", zlo)
                child.set("zhi", zhi)
                # "rows_reported" (the merge kernel's name), not
                # "rows_out": the plan span above already counts
                # rows_out, and EXPLAIN's estimated-vs-actual matcher
                # sums the subtree.
                child.add_counters(
                    {
                        "rows_reported": result.nmatches,
                        "pages_accessed": result.pages_accessed,
                        "records_on_pages": result.records_on_pages,
                    }
                )
        return out

    def interval_query(
        self, intervals: Sequence[Tuple[int, int]]
    ) -> Tuple[Tuple[Point, ...], ...]:
        """Points in each inclusive z interval, one tuple per interval
        — the residual scatter of the semantic result cache.  Untraced
        like the per-shard merges: the cache front-end owns the span."""

        def scan(order: List[int], lists: List[Any]) -> Sequence[Any]:
            return self._scatter(
                [
                    (sid, partial(self.shards[sid].interval_query, ivs))
                    for sid, ivs in zip(order, lists)
                ]
            )[0]

        return scatter_intervals(self.partitioner, intervals, scan)

    def object_query(
        self, classify: ClassifyFn, max_depth: Optional[int] = None
    ) -> ShardedQueryResult:
        """Range search against an arbitrary region, per shard.  Every
        shard is dispatched — an arbitrary region has no precomputed z
        intervals to prune against."""
        results, _ = self._scatter(
            [
                (sid, partial(shard.object_query, classify, max_depth))
                for sid, shard in enumerate(self.shards)
            ]
        )
        return gather_shard_results(
            self.partitioner, list(range(self.nshards)), results
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close file-backed shard stores."""
        for shard in self.shards:
            close = getattr(shard.store, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "ShardedSpatialStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedSpatialStore(nshards={self.nshards}, "
            f"points={len(self)})"
        )
