"""The database facade — PROBE's spatial query processing in miniature.

:class:`SpatialDatabase` ties the pieces together: a catalog of typed
relations, zkd B+-tree indexes over coordinate columns, the spatial
operators of Section 4, and index-accelerated range queries that fall
back to a row scan when no index exists.

This is deliberately a thin coordination layer; every algorithm lives in
:mod:`repro.core` (approximate geometry) or :mod:`repro.storage` (file
organization) — which is the paper's architectural thesis: the DBMS
needs only "very minor modifications" to support spatial queries.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import repeat
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.core.geometry import Grid
from repro.db.catalog import Catalog, IndexEntry, coordinate_map
from repro.db.readpath import CoordsOf, SpatialReads, coords_getter
from repro.db.relation import Relation, VersionedRelation
from repro.db.schema import Schema
from repro.db.spatial import overlap_query
from repro.storage.buffer import ReplacementPolicy
from repro.storage.prefix_btree import ZkdTree

__all__ = ["SpatialDatabase", "INDEX_FILL_FACTOR"]

#: Leaf fill of the index ``create_index`` bulk-loads: 14 of
#: 20 records, the occupancy random inserts settle at (Yao's ln 2), so
#: the first insert into a loaded leaf does not split it.
INDEX_FILL_FACTOR = 0.7


class SpatialDatabase(SpatialReads):
    """A small object-oriented DBMS with built-in approximate geometry.

    >>> from repro.db.types import OID, INTEGER
    >>> from repro.db.schema import Schema
    >>> from repro.core.geometry import Grid, Box
    >>> db = SpatialDatabase(Grid(ndims=2, depth=6))
    >>> _ = db.create_table("cities", Schema.of(
    ...     ("city@", OID), ("x", INTEGER), ("y", INTEGER)))
    >>> db.insert("cities", ("rome", 10, 20))
    >>> _ = db.create_index("cities_xy", "cities", ("x", "y"))
    >>> result = db.range_query("cities", ("x", "y"), Box(((0, 15), (0, 63))))
    >>> result.rows
    [('rome', 10, 20)]
    """

    def __init__(
        self,
        grid: Grid,
        page_capacity: int = 20,
        concurrency: bool = True,
        cache: bool = False,
    ) -> None:
        # Kept for benchmarks/ledger/workloads.py, which passes True.
        if concurrency is not True:
            raise ValueError(
                f"concurrency={concurrency!r}: every database is "
                "versioned, only True is accepted"
            )
        # Kept only for benchmarks/ledger/workloads.py, which passes
        # cache=True; there is no result cache, so the flag is ignored.
        # ROADMAP item 1 removes it together with ``concurrency``.
        if not isinstance(cache, bool):
            raise TypeError(
                f"cache={cache!r}: there is no result cache to tune, "
                "only a bool is accepted (and ignored)"
            )
        self.grid = grid
        self.page_capacity = page_capacity
        self.catalog = Catalog()
        # Every table is a VersionedRelation, every index store carries
        # a PageVersionMap, and all mutations group-commit through one
        # SnapshotManager, so sessions can pin consistent cross-table
        # snapshots and a failed batch rolls back in one place.  (Imported
        # here: a process that never builds a database, such as a bare
        # tree benchmark, does not load the concurrency package.)
        from repro.concurrency import SnapshotManager

        self.snapshots = SnapshotManager()
        # Index operations the open commit has applied, in order:
        # (entry, coordinates, inserted position | None for a delete) —
        # what an aborted batch undoes.
        self._applied: List[Tuple[IndexEntry, Tuple[int, ...], Any]] = []
        # Cumulative planner.* stats of the multi-predicate planner
        # (the server's /stats planner section reads these).
        self.planner_stats: dict = {}

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> VersionedRelation:
        relation = VersionedRelation(name, schema, self.snapshots)
        self.catalog.register(relation)
        return relation

    def table(self, name: str) -> VersionedRelation:
        return self.catalog.relation(name)

    @contextmanager
    def _group_commit(self) -> Iterator[Any]:
        """One atomic commit spanning the catalog's relations and index
        trees: the snapshot manager's write transaction, the only scope
        a database write opens; yields its handle (``epoch`` is set at
        exit).  Each tree mutation inside opens the tree's own
        transaction, which joins this one — no second lock, no second
        epoch — and flushes that one tree, so a statement touches only
        the trees it writes.

        A failing batch is rolled back *here and nowhere else*:
        relations return to their pre-transaction state (rows stamped
        with the pending epoch would otherwise surface once a later
        transaction commits), every index operation already applied is
        undone in reverse — the tree entry and the coordinate map
        position together.  The trees' pages were rewritten under the
        pending epoch, so the (now logically empty) transaction still
        commits: the epoch advances over an unchanged state, and a
        later pin finds every page image it needs."""
        failure: Optional[Exception] = None
        try:
            with self.snapshots.write_transaction() as txn:
                undo = [
                    (relation, relation._undo_state())
                    for relation in map(
                        self.catalog.relation, self.catalog.relation_names()
                    )
                ]
                try:
                    yield txn
                except BaseException as exc:
                    for relation, state in undo:
                        relation._restore(state)
                    for entry, coords, position in self._applied:
                        if position is not None:
                            entry.forget(coords, position)
                    # A CrashPoint is a dead process: its trees are
                    # abandoned, not repaired.
                    if not isinstance(exc, Exception):
                        raise
                    for entry, coords, position in reversed(self._applied):
                        if position is None:
                            entry.tree.insert(coords)
                        else:
                            entry.tree.delete(coords)
                    failure = exc
        finally:
            self._applied.clear()
        if failure is not None:
            raise failure

    def insert(self, table: str, row: Sequence[Any]) -> None:
        with self._group_commit():
            self._insert_unlocked(table, row)

    def _maintained(
        self, relation: VersionedRelation
    ) -> List[Tuple[IndexEntry, CoordsOf]]:
        """The indexes a write to ``relation`` must keep up, each with
        its ``row -> coordinates`` getter."""
        return [
            (entry, coords_getter(relation.schema, entry.coord_cols))
            for entry in self.catalog.indexes_on(relation.name)
        ]

    def _insert_unlocked(self, table: str, row: Sequence[Any]) -> None:
        relation = self.catalog.relation(table)
        position = relation.insert(row)
        for entry, coords_of in self._maintained(relation):
            coords = coords_of(row)
            entry.tree.insert(coords)
            entry.add(coords, position)
            self._applied.append((entry, coords, position))

    def insert_many(self, table: str, rows: Sequence[Sequence[Any]]) -> None:
        """Store ``rows`` and maintain each index with one batched tree
        call: one shuffle and one flush per tree, rows entering it in
        batch order.  The tree shuffles (and so checks) the whole batch
        before its first write, so an off-grid row fails it whole."""
        with self._group_commit():
            relation = self.catalog.relation(table)
            rows = list(rows)
            positions = relation.insert_many(rows)
            for entry, coords_of in self._maintained(relation):
                points = list(map(coords_of, rows))
                entry.tree.insert_many(points)
                for point, position in zip(points, positions):
                    entry.add(point, position)
                self._applied.extend(zip(repeat(entry), points, positions))

    def delete(self, table: str, row: Sequence[Any]) -> bool:
        """Delete the first row equal to ``row`` and its entry in every
        index (the trees hold one entry per row)."""
        with self._group_commit():
            return self._delete_unlocked(table, row)

    def _delete_unlocked(self, table: str, row: Sequence[Any]) -> bool:
        relation = self.catalog.relation(table)
        position = relation._delete(row)
        if position is None:
            return False
        for entry, coords_of in self._maintained(relation):
            coords = coords_of(row)
            # The map keeps the position: the row stays, stamped dead,
            # for the snapshots pinned before this commit.
            entry.tree.delete(coords)
            self._applied.append((entry, coords, None))
        return True

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def create_index(
        self,
        index_name: str,
        table: str,
        coord_cols: Sequence[str],
        buffer_frames: int = 8,
        policy: ReplacementPolicy = ReplacementPolicy.LRU,
    ) -> IndexEntry:
        """Build a zkd B+-tree over coordinate columns of ``table``.

        The index stores coordinate tuples in z order; existing rows are
        bulk-loaded as one sorted run and later inserts are maintained.
        """
        relation = self.catalog.relation(table)
        cols = tuple(coord_cols)
        if len(cols) != self.grid.ndims:
            raise ValueError(
                f"index needs {self.grid.ndims} coordinate columns"
            )
        # Building an index is itself a group commit.  The tree is
        # loaded plain — no page is cloned while it grows — and then
        # versioned once: its pages are born at the commit's epoch, so
        # the finished tree becomes visible at one epoch boundary.
        with self.snapshots.write_transaction() as txn:
            # One pass over the stored rows extracts the coordinates
            # that feed the tree build and the positions map, in order.
            positions, rows = relation._stored()
            points = list(map(coords_getter(relation.schema, cols), rows))
            del rows  # a copy of the row list: free it before the build
            tree = ZkdTree(
                self.grid,
                page_capacity=self.page_capacity,
                buffer_frames=buffer_frames,
                policy=policy,
            )
            tree.bulk_load(points, INDEX_FILL_FACTOR)
            tree.attach_snapshots(self.snapshots)
        entry = IndexEntry(
            index_name,
            table,
            cols,
            tree,
            txn.epoch,
            positions=coordinate_map(points, positions),
        )
        self.catalog.register_index(entry)
        return entry

    def drop_index(self, index_name: str) -> None:
        """Remove an index."""
        self.catalog.drop_index(index_name)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def session(self) -> "Any":
        """Open a snapshot-isolated session.

        The session pins the current commit epoch: every read inside it
        sees exactly the committed state at that instant, no matter how
        many writers commit concurrently.  Writes buffer locally and
        group-commit on :meth:`~repro.concurrency.session.Session.
        commit`.  Use as a context manager::

            with db.session() as s:
                rows = s.range_query("cities", ("x", "y"), box).rows
        """
        from repro.concurrency.session import Session

        return Session(self)

    def _index_for(
        self, table: str, coord_cols: Sequence[str]
    ) -> Optional[IndexEntry]:
        cols = tuple(coord_cols)
        for entry in self.catalog.indexes_on(table):
            if entry.coord_cols == cols:
                return entry
        return None

    # ------------------------------------------------------------------
    # Queries: live rows, live index trees, no epoch.  range_query,
    # proximity_query, knn_query, epsilon_join and range_query_stats
    # are SpatialReads'.
    # ------------------------------------------------------------------

    def _reading(self) -> Tuple[Any, Optional[int]]:
        return self, None

    def _answering(self, table: str, cols: Sequence[str]) -> Any:
        entry = self._index_for(table, cols)
        if entry is None:
            raise ValueError(f"no index on {table}({', '.join(cols)})")
        return entry.tree

    def overlap_query(
        self,
        table_p: str,
        table_q: str,
        object_col: str,
        id_col_p: str,
        id_col_q: Optional[str] = None,
        max_depth: Optional[int] = None,
    ) -> Relation:
        """Which objects of ``table_p`` overlap which of ``table_q``?
        The full Decompose / spatial-join / project pipeline."""
        return overlap_query(
            self.catalog.relation(table_p),
            self.catalog.relation(table_q),
            object_col,
            id_col_p,
            id_col_q,
            grid=self.grid,
            max_depth=max_depth,
        )
