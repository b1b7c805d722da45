"""How a z-scan's matches become result rows at an epoch.

Every spatial read of the database, of a snapshot session and of the
server is the same two steps — a point store answers with matching
*coordinates*, and those are joined back to the rows visible to the
reader (Gray et al.: every spatial predicate is a range lookup joined
back through the clustered key).  The readers differ only in *which
rows are visible, which store answers, at which epoch*:
:class:`SpatialReads` writes each read once over those three things,
and the primitives under it — the coordinate→rows rejoin, the rank→rows
gather of the k-NN operators, the row-scan fallback, the eps-join over
two row sets and the eps-seek of one row set into a store — exist here
and nowhere else.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import product
from operator import itemgetter
from types import SimpleNamespace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.deadline import check_deadline
from repro.core.fastz import interleave_many
from repro.core.geometry import Box, Grid
from repro.db.catalog import IndexEntry
from repro.db.planner import bump_planner_stat, plan_range_query
from repro.db.relation import Relation, VersionedRelation
from repro.db.schema import Schema
from repro.obs.trace import span as _span
from repro.proximity import ball_filter, zones_epsilon_join
from repro.storage.prefix_btree import ProximityReads

__all__ = [
    "RowStore",
    "SpatialReads",
    "coords_getter",
    "epsilon_join_rows",
    "epsilon_seek_rows",
    "gather_ranked",
    "rejoin",
    "scan_rows",
    "seek_cell_bits",
    "visible_rows",
]

Point = Tuple[int, ...]
Row = Tuple[Any, ...]
CoordsOf = Callable[[Row], Point]


def coords_getter(schema: Schema, cols: Sequence[str]) -> CoordsOf:
    """``row -> coordinate tuple`` over the named columns."""
    indices = [schema.index_of(c) for c in cols]
    if len(indices) == 1:
        (only,) = indices
        return lambda row: (row[only],)
    return itemgetter(*indices)


def visible_rows(
    relation: VersionedRelation, epoch: Optional[int] = None
) -> List[Row]:
    """The relation's rows as of ``epoch`` (``None``: the live state)."""
    return relation.rows if epoch is None else relation.rows_at(epoch)


def rejoin(
    relation: VersionedRelation,
    epoch: Optional[int],
    matched: Iterable[Point],
    entry: Optional[IndexEntry],
    cols: Sequence[str],
) -> List[Row]:
    """The rows of ``relation`` visible at ``epoch`` whose coordinates
    a store reported in ``matched``, in relation order: fetched through
    the index ``entry``'s positions map — O(matches) — or, when no
    index the reader may see covers ``cols``, by scanning the visible
    rows."""
    wanted = set(matched)
    if entry is not None:
        return relation.fetch(entry.positions_of(wanted), epoch)
    coords = coords_getter(relation.schema, cols)
    return [
        row for row in visible_rows(relation, epoch) if coords(row) in wanted
    ]


def gather_ranked(
    relation: VersionedRelation,
    epoch: Optional[int],
    ranked: Sequence[Point],
    k: int,
    entry: Optional[IndexEntry],
    cols: Sequence[str],
) -> List[Row]:
    """The first ``k`` visible rows in point-rank order (relation order
    within a point) — byte-identical to stable-sorting every row by its
    point's rank and truncating."""
    if entry is not None:
        out: List[Row] = []
        for point in dict.fromkeys(ranked):
            if len(out) >= k:
                break
            out.extend(relation.fetch(entry.positions_of((point,)), epoch))
        return out[:k]
    coords = coords_getter(relation.schema, cols)
    rank = {point: i for i, point in enumerate(ranked)}
    return sorted(
        (
            row
            for row in visible_rows(relation, epoch)
            if coords(row) in rank
        ),
        key=lambda row: rank[coords(row)],
    )[:k]


def scan_rows(rows: Iterable[Row], coords: CoordsOf, box: Box) -> List[Row]:
    """No store answers: test every visible row against ``box``."""
    out: List[Row] = []
    for position, row in enumerate(rows):
        if not position & 1023:
            check_deadline("db.scan_rows")
        if box.contains_point(coords(row)):
            out.append(row)
    return out


def epsilon_join_rows(
    database: Any,
    rows_a: Sequence[Row],
    coords_a: CoordsOf,
    rows_b: Sequence[Row],
    coords_b: CoordsOf,
    eps: float,
) -> List[Row]:
    """Concatenated row pairs whose points lie within ``eps`` — the
    zones sweep — sorted canonically by ``(point_a, point_b, ordinal_a,
    ordinal_b)`` and tallied in ``database.planner_stats`` (and on the
    active trace) exactly once."""
    pts_a = list(map(coords_a, rows_a))
    pts_b = list(map(coords_b, rows_b))
    with _span("join[eps-zones]") as span:
        if span is not None:
            span.set("eps", eps)
            span.add("rows_in", len(rows_a) + len(rows_b))
        pairs = zones_epsilon_join(pts_a, pts_b, eps)
        rows = [rows_a[i] + rows_b[j] for i, j in pairs]
        if span is not None:
            span.add("rows_out", len(rows))
    stats = getattr(database, "planner_stats", None)
    bump_planner_stat(stats, "planner.eps_joins")
    return rows


def seek_cell_bits(eps: float) -> int:
    """The eps-seek's cell size: the smallest ``m`` with ``2**m >=
    2 * (2 * ceil(eps) + 1)``, so a point's ``ceil(eps)`` box spans at
    most two aligned ``2**m``-wide cells per axis."""
    return (2 * (2 * math.ceil(eps) + 1) - 1).bit_length()


def _seek_matches(
    store: Any, points: Sequence[Point], eps: float, span: Any
) -> List[Tuple[int, Point]]:
    """``(i, q)`` for every distinct point ``q`` of ``store`` within
    ``eps`` of ``points[i]``.

    Section 5's coarsening drives the read: each point's ``ceil(eps)``
    box, clipped to the grid, is covered by aligned ``2**m``-wide cells
    (:func:`seek_cell_bits`), and the cell with code ``c`` at depth
    ``depth - m`` is the one z interval ``[c << d*m, ((c + 1) << d*m) -
    1]``.  The cells, deduplicated and merged where adjacent, are one
    ``interval_query``; each point then bisects the returned keys once
    per cell of its own and runs the exact distance test (Gray et al.'s
    coarse cover, then fine filter)."""
    grid = store.grid
    reach = math.ceil(eps)
    m = min(seek_cell_bits(eps), grid.depth)
    shift = grid.ndims * m
    top = grid.side - 1
    owned = [
        list(
            product(
                *(
                    range(max(c - reach, 0) >> m, (min(c + reach, top) >> m) + 1)
                    for c in p
                )
            )
        )
        for p in points
    ]
    distinct = list(dict.fromkeys(cell for cells in owned for cell in cells))
    code_of = dict(
        zip(distinct, interleave_many(distinct, grid.depth - m, grid.ndims))
    )
    intervals: List[Tuple[int, int]] = []
    for code in sorted(code_of.values()):
        if intervals and intervals[-1][1] == code - 1:
            intervals[-1] = (intervals[-1][0], code)
        else:
            intervals.append((code, code))
    keys: List[int] = []
    found: List[Point] = []
    for run_keys, run in store.interval_query(
        [(lo << shift, ((hi + 1) << shift) - 1) for lo, hi in intervals]
    ):
        for key, point in zip(run_keys, run):
            if not keys or keys[-1] != key:  # rows sharing a point
                keys.append(key)
                found.append(point)
    near = ball_filter(grid.ndims, eps)
    slices: Dict[int, Tuple[int, int]] = {}
    hits: List[Tuple[int, Point]] = []
    candidates = 0
    for i, (p, cells) in enumerate(zip(points, owned)):
        if not i & 1023:
            check_deadline("db.eps_seek")
        for cell in cells:
            code = code_of[cell]
            at = slices.get(code)
            if at is None:
                at = slices[code] = (
                    bisect_left(keys, code << shift),
                    bisect_left(keys, (code + 1) << shift),
                )
            lo, hi = at
            candidates += hi - lo
            hits.extend((i, found[lo + k]) for k in near(p, found[lo:hi]))
    if span is not None:
        span.set("eps", eps)
        span.set("cell_bits", m)
        span.add_counters(
            {
                "cells": len(code_of),
                "intervals": len(intervals),
                "candidates": candidates,
            }
        )
    return hits


def epsilon_seek_rows(
    reader: "SpatialReads",
    rows: Sequence[Row],
    coords: CoordsOf,
    table: str,
    cols: Sequence[str],
    eps: float,
    refine: Callable[[Relation], Relation],
    rows_left: bool,
) -> List[Row]:
    """Concatenated row pairs of ``rows`` and the rows of ``table``
    within ``eps`` — ``rows`` drive, ``table`` is sought — in
    :func:`epsilon_join_rows`' canonical order, with ``rows`` the left
    side when ``rows_left``.

    ``table`` is read through the reader's answering store (a live
    tree, a snapshot view, or the visible rows) by one
    ``interval_query`` at the driving points' cells; only the matched
    points are joined back to rows, visible at the reader's epoch, and
    ``refine`` — the side's other pushed filters — runs over them."""
    database, epoch = reader._reading()
    relation = database.catalog.relation(table)
    points = list(map(coords, rows))
    with _span("join[eps-seek]") as span:
        hits = _seek_matches(
            reader._point_store(table, cols), points, eps, span
        )
        partner = refine(
            Relation._derived(
                f"seek({table})",
                relation.schema,
                rejoin(
                    relation,
                    epoch,
                    {q for _, q in hits},
                    reader._entry(table, cols),
                    cols,
                ),
            )
        ).rows
        at = coords_getter(relation.schema, cols)
        rows_at: Dict[Point, List[int]] = {}
        for k, row in enumerate(partner):
            rows_at.setdefault(at(row), []).append(k)
        # (point_a, point_b, ordinal_a, ordinal_b) is unique per pair,
        # so the sort never compares the rows themselves.
        pairs = sorted(
            (points[i], q, i, k, rows[i] + partner[k])
            if rows_left
            else (q, points[i], k, i, partner[k] + rows[i])
            for i, q in hits
            for k in rows_at.get(q, ())
        )
        out = [pair[-1] for pair in pairs]
        if span is not None:
            span.add("pairs", len(out))
    bump_planner_stat(
        getattr(database, "planner_stats", None), "planner.eps_joins"
    )
    return out


class RowStore(ProximityReads):
    """A row set's distinct coordinates as a minimal point store — what
    answers a session's proximity, k-NN and eps-seek reads when no index
    is visible at its snapshot."""

    def __init__(self, grid: Grid, points: Iterable[Point]) -> None:
        self.grid = grid
        self._points = set(points)

    def __len__(self) -> int:
        return len(self._points)

    def interval_query(
        self, intervals: Sequence[Tuple[int, int]]
    ) -> Tuple[Tuple[Tuple[int, ...], Tuple[Point, ...]], ...]:
        """The ``(keys, payloads)`` of the points whose z codes fall in
        each ascending ``[zlo, zhi]`` interval, one pair per interval —
        a leaf chain's :meth:`~repro.storage.prefix_btree.LeafChainReads.
        interval_query` over the row set."""
        points = list(self._points)
        coded = sorted(
            zip(interleave_many(points, self.grid.depth, self.grid.ndims), points)
        )
        keys = [code for code, _ in coded]
        out = []
        for zlo, zhi in intervals:
            check_deadline("scan_intervals")
            lo, hi = bisect_left(keys, zlo), bisect_right(keys, zhi)
            out.append(
                (tuple(keys[lo:hi]), tuple(p for _, p in coded[lo:hi]))
            )
        return tuple(out)

    def _matching(self, keep: Callable[[Point], bool]) -> SimpleNamespace:
        return SimpleNamespace(matches=[p for p in self._points if keep(p)])

    def range_query(self, box: Box) -> SimpleNamespace:
        """The points inside ``box`` in z order, as a leaf chain's scan
        returns them."""
        hits = [p for p in self._points if box.contains_point(p)]
        codes = interleave_many(hits, self.grid.depth, self.grid.ndims)
        return SimpleNamespace(
            matches=[p for _, p in sorted(zip(codes, hits))]
        )

    def within_distance(
        self, center: Sequence[int], radius: float
    ) -> SimpleNamespace:
        if radius < 0:
            raise ValueError("radius must be non-negative")
        limit = radius * radius
        return self._matching(
            lambda p: sum((a - b) ** 2 for a, b in zip(p, center)) <= limit
        )


class SpatialReads:
    """The spatial reads of a database and of a snapshot session,
    written once.

    A reader supplies two hooks: :meth:`_reading` — the database and
    the epoch whose rows it sees — and :meth:`_answering` — the point
    store that answers for an index.
    """

    def _reading(self) -> Tuple[Any, Optional[int]]:
        """``(database, epoch)``; ``epoch=None`` reads the live rows."""
        raise NotImplementedError

    def _answering(self, table: str, cols: Sequence[str]) -> Any:
        """The store of the index on ``table(cols)``; ``None`` when
        the reader may fall back to its rows."""
        raise NotImplementedError

    def _entry(
        self, table: str, cols: Sequence[str]
    ) -> Optional[IndexEntry]:
        """The index on ``table(cols)`` this reader may use: it must
        exist and have been born by the reader's epoch."""
        database, epoch = self._reading()
        entry = database._index_for(table, cols)
        if entry is None or not entry.visible_at(epoch):
            return None
        return entry

    def _visible(
        self, table: str, cols: Sequence[str]
    ) -> Tuple[Schema, List[Row], CoordsOf]:
        database, epoch = self._reading()
        relation = database.catalog.relation(table)
        return (
            relation.schema,
            visible_rows(relation, epoch),
            coords_getter(relation.schema, cols),
        )

    def _matched_relation(
        self,
        name: str,
        table: str,
        cols: Sequence[str],
        matched: Iterable[Point],
    ) -> Relation:
        database, epoch = self._reading()
        relation = database.catalog.relation(table)
        return Relation._derived(
            name,
            relation.schema,
            rejoin(relation, epoch, matched, self._entry(table, cols), cols),
        )

    def _range_rows(
        self,
        table: str,
        cols: Sequence[str],
        box: Box,
        store: Any = None,
    ) -> Relation:
        """Rows inside ``box``: a z-scan of ``store`` plus rejoin, or a
        row scan without one."""
        if store is None:
            schema, rows, coords = self._visible(table, cols)
            return Relation._derived(
                f"range({table})", schema, scan_rows(rows, coords, box)
            )
        matched = store.range_query(box).matches
        return self._matched_relation(f"range({table})", table, cols, matched)

    def _point_store(self, table: str, cols: Sequence[str]) -> Any:
        """What answers a proximity read: the index store, or — a
        session with no index visible at its pin — the visible rows'
        own coordinates."""
        database, _ = self._reading()  # a closed session raises here
        store = self._answering(table, cols)
        if store is None:
            _, rows, coords = self._visible(table, cols)
            store = RowStore(database.grid, map(coords, rows))
        return store

    def range_query(
        self, table: str, coord_cols: Sequence[str], box: Box
    ) -> Relation:
        """Rows of ``table`` whose coordinates fall inside ``box``, as
        this reader sees them.

        Planned by predicted page cost (Section 5.3.1's analysis as a
        cost model), the same for every reader: an index scan through a
        zkd index the reader may use when it is estimated cheaper, a
        row scan otherwise or without one.
        ``plan_range_query(reader, ...).explain()`` shows the decision.
        """
        return plan_range_query(self, table, coord_cols, box).execute()

    def range_query_stats(
        self, table: str, coord_cols: Sequence[str], box: Box
    ) -> Any:
        """Index-only range query returning the paper's cost measures
        (requires an index the reader can see)."""
        self._reading()  # a closed session raises here
        store = self._answering(table, coord_cols)
        if store is None:
            raise ValueError(
                f"no snapshot-visible index on "
                f"{table}({', '.join(coord_cols)})"
            )
        return store.range_query(box)

    def proximity_query(
        self,
        table: str,
        coord_cols: Sequence[str],
        center: Sequence[int],
        radius: float,
    ) -> Relation:
        """Rows within Euclidean ``radius`` of ``center`` — Section 6's
        proximity queries, translated into an overlap query against a
        ball."""
        store = self._point_store(table, coord_cols)
        matched = store.within_distance(tuple(center), radius).matches
        return self._matched_relation(
            f"near({table})", table, coord_cols, matched
        )

    def knn_query(
        self,
        table: str,
        coord_cols: Sequence[str],
        center: Sequence[int],
        k: int = 1,
    ) -> Relation:
        """The ``k`` rows nearest ``center``, by the answering store's
        :meth:`~repro.storage.prefix_btree.ProximityReads.
        nearest_neighbours`.

        Distinct nearest points are fetched first, then their rows are
        gathered in point rank order (relation order within a point), so
        the result is byte-identical to stable-sorting every row by
        ``(distance^2, z code)`` and truncating — whatever store
        answers: a live index, a frozen snapshot view, or (a session
        with no index visible at its pin) the visible row set itself.
        """
        database, epoch = self._reading()
        relation = database.catalog.relation(table)
        ranked = self._point_store(table, coord_cols).nearest_neighbours(
            center, k
        )
        return Relation._derived(
            f"knn({table})",
            relation.schema,
            gather_ranked(
                relation,
                epoch,
                ranked,
                k,
                self._entry(table, coord_cols),
                coord_cols,
            ),
        )

    def epsilon_join(
        self,
        table_a: str,
        cols_a: Sequence[str],
        table_b: str,
        cols_b: Sequence[str],
        eps: float,
    ) -> Relation:
        """All row pairs of ``table_a`` x ``table_b`` whose coordinate
        points lie within Euclidean ``eps`` — the cross-match join, by
        the zones sweep.  Output columns are qualified
        ``{table}_{column}``; rows are sorted canonically by
        ``(point_a, point_b, ordinal_a, ordinal_b)``.
        """
        database, _ = self._reading()
        schema_a, rows_a, coords_a = self._visible(table_a, cols_a)
        schema_b, rows_b, coords_b = self._visible(table_b, cols_b)
        return Relation._derived(
            f"epsjoin({table_a},{table_b})",
            schema_a.concat(schema_b, f"{table_a}_", f"{table_b}_"),
            epsilon_join_rows(
                database, rows_a, coords_a, rows_b, coords_b, eps
            ),
        )
