"""The merge-based range-search algorithm (Section 3.3, Figure 5).

Points are kept as a z-ordered sequence *P* of ``[z, pt]`` records; the
query box is decomposed into a z-ordered sequence *B* of ``[zlo, zhi]``
elements.  A merge of the two sequences reports each point whose z code
falls inside some box element.  Three variants are provided:

* :func:`range_search` — the paper's optimized algorithm: when the
  sequences diverge, a *random access* skips ahead ("parts of the space
  that could not possibly contribute to the result are skipped"), and
  the box elements are generated lazily on demand;
* :func:`range_search_simple` — the unoptimized O(\\|P\\| + \\|B\\|) merge
  over fully materialized sequences (ablation baseline);
* :func:`range_search_bigmin` — a decomposition-free variant that jumps
  with :func:`repro.core.zorder.bigmin` instead of box elements
  (ablation: what the skipping would look like without sequence B).

All variants work over any point source implementing the small
:class:`ZCursor` interface — a sorted in-memory list here, the leaf
chain of :mod:`repro.storage.btree` through ``BTreeCursor`` — which is
exactly the paper's point: "any data structure that supports both
random and sequential accessing can be used".  The zkd B+-tree's own
reads take the merge a range at a time instead
(:func:`repro.storage.btree.scan_ranges`); :func:`merge_search` over a
``BTreeCursor`` is their oracle, record by record.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import (
    Any,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.deadline import check_deadline
from repro.core.decompose import BoxElementCursor, Element
from repro.core.fastz import interleave_many
from repro.core.geometry import Box, ClassifyFn, Grid
from repro.core.zorder import bigmin, box_zbounds, zcode_in_box
from repro.obs.trace import current as _trace_current

__all__ = [
    "PointRecord",
    "ZCursor",
    "SortedPointCursor",
    "MergeStats",
    "merge_search",
    "range_search",
    "object_search",
    "range_search_simple",
    "range_search_bigmin",
    "brute_force_search",
    "build_point_sequence",
    "scan_intervals",
]

T = TypeVar("T")


class ElementCursorLike(Protocol):
    """Structural interface of the element side of the merge: the lazy
    cursors of :mod:`repro.core.decompose` and :mod:`repro.core.fastz`
    both qualify."""

    @property
    def current(self) -> Optional[Any]: ...

    def step(self) -> Optional[Any]: ...

    def seek(self, z: int) -> Optional[Any]: ...


@dataclass(frozen=True)
class PointRecord(Generic[T]):
    """A member of sequence P: ``[z, pt]`` (Section 3.3, step 1)."""

    z: int
    payload: T


class ZCursor(Generic[T]):
    """Sequential + random access over a z-ordered record sequence.

    Subclasses implement :attr:`current`, :meth:`step` and :meth:`seek`.
    """

    @property
    def current(self) -> Optional[PointRecord[T]]:
        raise NotImplementedError

    def step(self) -> Optional[PointRecord[T]]:
        """Advance to the next record."""
        raise NotImplementedError

    def seek(self, z: int) -> Optional[PointRecord[T]]:
        """Advance to the first record with z code ``>= z``; never moves
        backwards."""
        raise NotImplementedError


class SortedPointCursor(ZCursor[T]):
    """A :class:`ZCursor` over an in-memory list sorted by z code."""

    def __init__(self, records: Sequence[PointRecord[T]]) -> None:
        self._records = list(records)
        self._keys = [r.z for r in self._records]
        if any(a > b for a, b in zip(self._keys, self._keys[1:])):
            raise ValueError("records are not sorted by z code")
        self._index = 0
        self.steps = 0
        self.seeks = 0

    @property
    def current(self) -> Optional[PointRecord[T]]:
        if self._index < len(self._records):
            return self._records[self._index]
        return None

    def step(self) -> Optional[PointRecord[T]]:
        if self._index < len(self._records):
            self._index += 1
            self.steps += 1
        return self.current

    def seek(self, z: int) -> Optional[PointRecord[T]]:
        target = bisect.bisect_left(self._keys, z, lo=self._index)
        if target != self._index:
            self.seeks += 1
            self._index = target
        return self.current


@dataclass
class MergeStats:
    """Bookkeeping for one merge run (used by benches and tests).

    ``records_scanned`` counts record-vs-element comparisons (each loop
    iteration examines the cursor's current record against the current
    element once); ``matches`` is the reported subset — the "records
    scanned vs. reported" pair of the observability counters.
    """

    points_examined: int = 0
    point_seeks: int = 0
    elements_generated: int = 0
    element_seeks: int = 0
    matches: int = 0
    records_scanned: int = 0

    def publish(self) -> None:
        """Attach the merge's counters to the active trace as one closed
        ``rangesearch.merge`` span (no-op when tracing is disabled)."""
        _publish_merge(
            "rangesearch.merge",
            {
                "elements_generated": self.elements_generated,
                "point_seeks": self.point_seeks,
                "element_seeks": self.element_seeks,
                "records_scanned": self.records_scanned,
                "rows_reported": self.matches,
            },
        )


def _publish_merge(span_name: str, counters: dict) -> None:
    """Attach one closed counter span to the active trace (no-op when
    tracing is disabled).  Called once per search, never per record."""
    trace = _trace_current()
    if trace is not None:
        trace.active_span.child(span_name).add_counters(counters)


def build_point_sequence(
    grid: Grid,
    points: Iterable[Sequence[int]],
) -> List[PointRecord[Tuple[int, ...]]]:
    """Step 1 of the algorithm: shuffle every point and sort by z.

    The payload is the point's coordinate tuple (standing in for "a
    description of the point (e.g. the identifier)").  The whole batch
    goes through the table kernels of :mod:`repro.core.fastz`, which
    are bit-identical to the scalar :meth:`Grid.zvalue`.
    """
    pts = [tuple(p) for p in points]
    codes = interleave_many(pts, grid.depth, grid.ndims)
    records = [PointRecord(z, p) for z, p in zip(codes, pts)]
    records.sort(key=lambda r: r.z)
    return records


def merge_search(
    points: ZCursor[T],
    elements: ElementCursorLike,
    stats: Optional[MergeStats] = None,
) -> Iterator[T]:
    """The optimized merge of Section 3.3 over *any* seekable element
    stream: lazy element generation + bidirectional skipping.

    ``elements`` needs ``current``, ``step()`` and ``seek(z)`` returning
    objects with ``zlo``/``zhi`` — :class:`repro.core.decompose.
    ElementCursor` and its box specialization qualify, so the same merge
    answers box queries, circle queries, polygon queries, or any query
    region a specialized processor can classify.
    """
    if stats is None and _trace_current() is not None:
        stats = MergeStats()
    b = elements.current
    p = points.current
    try:
        while b is not None and p is not None:
            if stats:
                stats.records_scanned += 1
            if p.z < b.zlo:
                # Random access into P: skip points before this element.
                p = points.seek(b.zlo)
                if stats:
                    stats.point_seeks += 1
            elif p.z > b.zhi:
                # Random access into B: skip elements before this point.
                b = elements.seek(p.z)
                if stats:
                    stats.element_seeks += 1
            else:
                if stats:
                    stats.matches += 1
                    stats.points_examined += 1
                yield p.payload
                p = points.step()
    finally:
        # Publish on exhaustion *and* on early abandonment, so a
        # LIMIT-style consumer still leaves honest counters behind.
        if stats:
            stats.elements_generated = getattr(elements, "nodes_expanded", 0)
            stats.publish()


def range_search(
    points: ZCursor[T],
    grid: Grid,
    box: Box,
    stats: Optional[MergeStats] = None,
) -> Iterator[T]:
    """Optimized merge for a box query: lazy box decomposition +
    bidirectional skipping.  Yields all points inside ``box`` in z order.

    The element stream is always lazy — the box is decomposed as the
    merge needs its elements and nothing remembers it afterwards: all of
    a 100x100 box's elements would be ~0.3 ms on the box kernel against
    ~1 ms for the whole query on 50k points (the ledger's
    ``core.decompose_cold_ms`` / ``storage.range_ms``), and the merge's
    seeks skip most of even that.  The kernel under the cursor clips as
    it classifies its root, so a box wholly off the grid is an empty
    element stream.
    """
    yield from merge_search(points, BoxElementCursor(grid, box), stats)


def scan_intervals(
    points: ZCursor[T], intervals: Sequence[Tuple[int, int]]
) -> Tuple[Tuple[T, ...], ...]:
    """Payloads whose z codes fall inside each inclusive ``[zlo, zhi]``
    interval, one tuple per interval, in one forward cursor pass.

    The intervals must be ascending and pairwise disjoint (as the
    elements of a box decomposition are), so the cursor only ever seeks
    forward.  Over a ``BTreeCursor`` this is the oracle of the leaf
    chain's ``interval_query``, the shared scan of the batcher: the
    merged elements of a batch of boxes are exactly such an interval
    list.
    """
    out: List[Tuple[T, ...]] = []
    record = points.current
    for zlo, zhi in intervals:
        # Cooperative cancellation: a scan whose caller's budget is
        # spent must not wedge the worker thread (near-zero cost with
        # no deadline armed — one thread-local load per checkpoint).
        check_deadline("scan_intervals")
        if record is not None and record.z < zlo:
            record = points.seek(zlo)
        matched: List[T] = []
        scanned = 0
        while record is not None and record.z <= zhi:
            matched.append(record.payload)
            record = points.step()
            scanned += 1
            if not scanned & 1023:
                check_deadline("scan_intervals")
        out.append(tuple(matched))
    return tuple(out)


def object_search(
    points: ZCursor[T],
    grid: Grid,
    classify: ClassifyFn,
    stats: Optional[MergeStats] = None,
    max_depth: Optional[int] = None,
) -> Iterator[T]:
    """Range search against an *arbitrary* query region.

    ``classify`` is the region's inside/outside/boundary oracle; the
    merge runs against the lazy decomposition of that region, so a
    circle query or polygon query costs the same machinery as a box.
    With ``max_depth`` the region is coarsened (OUTER cover), making the
    result a superset to be refined by the caller.
    """
    from repro.core.decompose import ElementCursor

    cursor = ElementCursor(grid, classify, max_depth=max_depth)
    yield from merge_search(points, cursor, stats)


def range_search_simple(
    points: Sequence[PointRecord[T]],
    elements: Sequence[Element],
    stats: Optional[MergeStats] = None,
) -> Iterator[T]:
    """The plain merge of step 3, O(len(P) + len(B)), no random access.

    ``elements`` must be z-ordered and pairwise disjoint (as produced by
    :func:`repro.core.decompose.decompose_box`).
    """
    if stats is None and _trace_current() is not None:
        stats = MergeStats()
    pi = 0
    bi = 0
    try:
        while pi < len(points) and bi < len(elements):
            p = points[pi]
            b = elements[bi]
            if stats:
                stats.points_examined += 1
                stats.records_scanned += 1
            if p.z < b.zlo:
                pi += 1
            elif p.z > b.zhi:
                bi += 1
            else:
                if stats:
                    stats.matches += 1
                yield p.payload
                pi += 1
    finally:
        if stats:
            stats.elements_generated = len(elements)
            _publish_merge(
                "rangesearch.simple",
                {
                    "elements_generated": stats.elements_generated,
                    "records_scanned": stats.records_scanned,
                    "rows_reported": stats.matches,
                },
            )


def range_search_bigmin(
    points: ZCursor[T],
    grid: Grid,
    box: Box,
    stats: Optional[MergeStats] = None,
) -> Iterator[T]:
    """Decomposition-free variant: test each candidate point directly
    against the box and jump with BIGMIN on a miss."""
    clipped = box.clipped_to(grid.whole_space())
    if clipped is None:
        return
    if stats is None and _trace_current() is not None:
        stats = MergeStats()
    zmin, zmax = box_zbounds(clipped, grid.depth)
    p = points.seek(zmin)
    try:
        while p is not None and p.z <= zmax:
            if stats:
                stats.points_examined += 1
                stats.records_scanned += 1
            if zcode_in_box(p.z, clipped, grid.depth):
                if stats:
                    stats.matches += 1
                yield p.payload
                p = points.step()
            else:
                nxt = bigmin(p.z, clipped, grid.depth)
                if nxt is None:
                    break
                p = points.seek(nxt)
                if stats:
                    stats.point_seeks += 1
    finally:
        if stats:
            _publish_merge(
                "rangesearch.bigmin",
                {
                    "bigmin_skips": stats.point_seeks,
                    "records_scanned": stats.records_scanned,
                    "rows_reported": stats.matches,
                },
            )


def brute_force_search(
    grid: Grid, points: Iterable[Sequence[int]], box: Box
) -> List[Tuple[int, ...]]:
    """Ground truth for tests: scan every point."""
    return sorted(
        (tuple(p) for p in points if box.contains_point(p)),
        key=lambda p: grid.zvalue(p).bits,
    )
