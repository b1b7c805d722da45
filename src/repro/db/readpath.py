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
two row sets — exist here and nowhere else.
"""

from __future__ import annotations

from operator import itemgetter
from types import SimpleNamespace
from typing import (
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cache import cached_range_matches
from repro.core.deadline import check_deadline
from repro.core.geometry import Box, Grid
from repro.db.catalog import IndexEntry
from repro.db.planner import bump_planner_stat
from repro.db.relation import Relation, VersionedRelation
from repro.db.schema import Schema
from repro.obs.trace import span as _span
from repro.proximity import zones_epsilon_join
from repro.storage.prefix_btree import ProximityReads

__all__ = [
    "RowStore",
    "SpatialReads",
    "coords_getter",
    "epsilon_join_rows",
    "gather_ranked",
    "rejoin",
    "scan_rows",
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


class RowStore(ProximityReads):
    """A row set's distinct coordinates as a minimal point store — what
    answers a session's proximity and k-NN reads when no index is
    visible at its snapshot."""

    def __init__(self, grid: Grid, points: Iterable[Point]) -> None:
        self.grid = grid
        self._points = set(points)

    def __len__(self) -> int:
        return len(self._points)

    def _matching(self, keep: Callable[[Point], bool]) -> SimpleNamespace:
        return SimpleNamespace(matches=[p for p in self._points if keep(p)])

    def range_query(self, box: Box) -> SimpleNamespace:
        return self._matching(box.contains_point)

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
    store (with its result cache) that answers for an index.
    """

    def _reading(self) -> Tuple[Any, Optional[int]]:
        """``(database, epoch)``; ``epoch=None`` reads the live rows."""
        raise NotImplementedError

    def _answering(
        self, table: str, cols: Sequence[str]
    ) -> Tuple[Any, Any]:
        """``(store, result cache)`` of the index on ``table(cols)``;
        ``(None, None)`` when the reader may fall back to its rows."""
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
        cache: Any = None,
    ) -> Relation:
        """Rows inside ``box``: a z-scan of ``store`` plus rejoin, or a
        row scan without one.  A store carrying a semantic result
        ``cache`` is read through it: the cache consults only entries
        valid at the reader's epoch and scans the same store, so rows
        equal the uncached read by construction."""
        if store is None:
            schema, rows, coords = self._visible(table, cols)
            return Relation._derived(
                f"range({table})", schema, scan_rows(rows, coords, box)
            )
        if cache is not None:
            database, epoch = self._reading()
            matched = cached_range_matches(
                cache, store, database.grid, box, epoch=epoch
            )
        else:
            matched = store.range_query(box).matches
        return self._matched_relation(f"range({table})", table, cols, matched)

    def _point_store(self, table: str, cols: Sequence[str]) -> Any:
        """What answers a proximity read: the index store, or — a
        session with no index visible at its pin — the visible rows'
        own coordinates."""
        database, _ = self._reading()  # a closed session raises here
        store, _ = self._answering(table, cols)
        if store is None:
            _, rows, coords = self._visible(table, cols)
            store = RowStore(database.grid, map(coords, rows))
        return store

    def range_query_stats(
        self, table: str, coord_cols: Sequence[str], box: Box
    ) -> Any:
        """Index-only range query returning the paper's cost measures
        (requires an index the reader can see)."""
        self._reading()  # a closed session raises here
        store, _ = self._answering(table, coord_cols)
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
