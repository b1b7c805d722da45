"""The database facade — PROBE's spatial query processing in miniature.

:class:`SpatialDatabase` ties the pieces together: a catalog of typed
relations, zkd B+-tree indexes over coordinate columns, the spatial
operators of Section 4, and index-accelerated range queries that fall
back to the relational plan when no index exists.

This is deliberately a thin coordination layer; every algorithm lives in
:mod:`repro.core` (approximate geometry) or :mod:`repro.storage` (file
organization) — which is the paper's architectural thesis: the DBMS
needs only "very minor modifications" to support spatial queries.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.core.geometry import Box, Grid
from repro.db.catalog import Catalog, IndexEntry, coordinate_map
from repro.db.readpath import CoordsOf, SpatialReads, coords_getter
from repro.db.relation import Relation, VersionedRelation
from repro.db.schema import Schema
from repro.db.spatial import overlap_query, range_search_plan
from repro.storage.buffer import ReplacementPolicy
from repro.storage.prefix_btree import ZkdTree

__all__ = ["SpatialDatabase"]


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
        cache: Any = False,
    ) -> None:
        # Kept for benchmarks/ledger/workloads.py, which passes True.
        if concurrency is not True:
            raise ValueError(
                f"concurrency={concurrency!r}: every database is "
                "versioned, only True is accepted"
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
        # cache=True attaches a semantic result cache (repro.cache.
        # QueryResultCache) to every index created afterwards; a dict
        # passes tuning knobs (budget_points, max_entries, ...) through.
        if isinstance(cache, dict):
            self._cache_opts: Optional[dict] = dict(cache)
        else:
            self._cache_opts = {} if cache else None
        # Pending dirty z codes of the open commit, keyed by index name;
        # flushed into each index's cache with the commit epoch.
        self._dirty_codes: dict = {}
        # Index operations the open commit has applied, in order:
        # (entry, coordinates, inserted position | None for a delete) —
        # what an aborted batch undoes.
        self._applied: List[Tuple[IndexEntry, Tuple[int, ...], Any]] = []
        # Multi-predicate planner bookkeeping: cumulative planner.*
        # stats (the server's /stats planner section reads these) and a
        # cache of per-column equi-depth histograms, invalidated by the
        # relation's mutation counter.
        self.planner_stats: dict = {}
        self._column_histograms: dict = {}

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
        """One atomic commit spanning the catalog's relations and every
        index store: a single snapshot-manager write transaction holding
        one storage transaction per index tree open; yields the
        transaction handle (its ``epoch`` is set at exit).

        A failing batch is rolled back *here and nowhere else*:
        relations return to their pre-transaction state (rows stamped
        with the pending epoch would otherwise surface once a later
        transaction commits), every index operation already applied is
        undone in reverse — the tree entry and the coordinate map
        position together — and the batch's dirty codes are discarded.
        The trees' pages were rewritten under the pending epoch, so the
        (now logically empty) transaction still commits: the epoch
        advances over an unchanged state, and a later pin finds every
        page image it needs.

        Result-cache coherence rides on the same boundary: the batch's
        dirty z codes flush into each index's cache *after* the commit
        epoch is assigned (the handle's epoch is set at the outermost
        transaction exit), so cache invalidation carries exactly the
        epoch at which the writes became visible."""
        failure: Optional[Exception] = None
        try:
            with self.snapshots.write_transaction() as txn:
                undo = [
                    (relation, relation._undo_state())
                    for relation in map(
                        self.catalog.relation, self.catalog.relation_names()
                    )
                ]
                with ExitStack() as stack:
                    for entry in self.catalog.indexes():
                        stack.enter_context(entry.tree.transaction())
                    try:
                        yield txn
                    except BaseException as exc:
                        for relation, state in undo:
                            relation._restore(state)
                        for entry, coords, position in self._applied:
                            if position is not None:
                                entry.forget(coords, position)
                        self._dirty_codes.clear()
                        # A CrashPoint is a dead process: its trees are
                        # abandoned, not repaired.
                        if not isinstance(exc, Exception):
                            raise
                        for entry, coords, position in reversed(
                            self._applied
                        ):
                            if position is None:
                                entry.tree.insert(coords)
                            else:
                                entry.tree.delete(coords)
                        failure = exc
        finally:
            self._applied.clear()
        if failure is not None:
            raise failure
        self._flush_dirty(txn.epoch)

    def _log_dirty(self, entry: IndexEntry, coords: Tuple[int, ...]) -> None:
        """Note a mutated point's z code against the open commit (only
        for indexes that carry a cache)."""
        if entry.cache is None:
            return
        self._dirty_codes.setdefault(entry.index_name, []).append(
            self.grid.zvalue(coords).bits
        )

    def _flush_dirty(self, epoch: int) -> None:
        """Publish the committed batch's dirty codes into each affected
        index cache at the commit ``epoch``."""
        if not self._dirty_codes:
            return
        pending, self._dirty_codes = self._dirty_codes, {}
        for entry in self.catalog.indexes():
            codes = pending.get(entry.index_name)
            if codes and entry.cache is not None:
                entry.cache.record_commit(codes, epoch)

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
        self._store_row(relation, self._maintained(relation), row)

    def _store_row(
        self,
        relation: VersionedRelation,
        maintained: List[Tuple[IndexEntry, CoordsOf]],
        row: Sequence[Any],
    ) -> None:
        position = relation.insert(row)
        for entry, coords_of in maintained:
            coords = coords_of(row)
            entry.tree.insert(coords)
            entry.add(coords, position)
            self._applied.append((entry, coords, position))
            self._log_dirty(entry, coords)

    def insert_many(self, table: str, rows: Sequence[Sequence[Any]]) -> None:
        with self._group_commit():
            relation = self.catalog.relation(table)
            maintained = self._maintained(relation)
            if not maintained:
                relation.insert_many(rows)
                return
            for row in rows:
                self._store_row(relation, maintained, row)

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
            self._log_dirty(entry, coords)
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
        shards: int = 1,
        executor: str = "serial",
        partition: str = "equi",
        resilience: Any = None,
    ) -> IndexEntry:
        """Build a zkd B+-tree over coordinate columns of ``table``.

        The index stores coordinate tuples in z order; existing rows are
        loaded immediately and later inserts are maintained.

        With ``shards > 1`` the index is a :class:`~repro.shard.store.
        ShardedSpatialStore` — ``shards`` z-range shards queried
        scatter–gather style; ``partition`` picks the cut policy
        (``equi`` or the data-balanced ``balanced``); ``resilience``
        overrides the scatter's :class:`~repro.shard.scatter.
        ResiliencePolicy` (retries and backoff).  Query results are
        identical to the single-tree index.
        """
        # Kept for benchmarks/ledger/workloads.py, which passes "serial".
        if executor != "serial":
            raise ValueError(
                f"executor={executor!r}: shards are read in shard order, "
                "only 'serial' is accepted"
            )
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
            if shards > 1:
                from repro.shard import ShardedSpatialStore

                tree = ShardedSpatialStore.build(
                    self.grid,
                    points,
                    nshards=shards,
                    partition=partition,
                    page_capacity=self.page_capacity,
                    buffer_frames=buffer_frames,
                    policy=policy,
                    resilience=resilience,
                )
            else:
                tree = ZkdTree(
                    self.grid,
                    page_capacity=self.page_capacity,
                    buffer_frames=buffer_frames,
                    policy=policy,
                )
                # Batch-shuffle the whole column set through the fast
                # kernels; the insert sequence (and hence the tree shape)
                # is unchanged.
                tree.insert_many(points)
            tree.attach_snapshots(self.snapshots)
        result_cache = None
        if self._cache_opts is not None:
            from repro.cache import QueryResultCache

            result_cache = QueryResultCache(
                self.grid, snapshots=self.snapshots, **self._cache_opts
            )
        entry = IndexEntry(
            index_name,
            table,
            cols,
            tree,
            txn.epoch,
            cache=result_cache,
            positions=coordinate_map(points, positions),
        )
        self.catalog.register_index(entry)
        return entry

    def drop_index(self, index_name: str) -> None:
        """Remove an index, releasing its result cache (schema changes
        must not leave cached state behind)."""
        entry = self.catalog.index(index_name)
        self.catalog.drop_index(index_name)
        self._dirty_codes.pop(index_name, None)
        if entry.cache is not None:
            entry.cache.evict(len(entry.cache))

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

    def column_histogram(self, table: str, column: str) -> "Any":
        """The equi-depth histogram of one numeric column (None when the
        column holds no numeric values), cached until the table next
        mutates — the attribute-selectivity source of the
        multi-predicate planner."""
        from repro.db.statistics import ColumnHistogram

        relation = self.catalog.relation(table)
        stamp = (relation, relation.mutations)
        cached = self._column_histograms.get((table, column))
        if cached is None or cached[0] != stamp:
            index = relation.schema.index_of(column)
            cached = (
                stamp,
                ColumnHistogram.of_values(row[index] for row in relation),
            )
            self._column_histograms[(table, column)] = cached
        histogram = cached[1]
        return histogram if histogram.nrecords else None

    def _index_for(
        self, table: str, coord_cols: Sequence[str]
    ) -> Optional[IndexEntry]:
        cols = tuple(coord_cols)
        for entry in self.catalog.indexes_on(table):
            if entry.coord_cols == cols:
                return entry
        return None

    # ------------------------------------------------------------------
    # Queries: live rows, live index trees, no epoch.  proximity_query,
    # knn_query, epsilon_join and range_query_stats are SpatialReads'.
    # ------------------------------------------------------------------

    def _reading(self) -> Tuple[Any, Optional[int]]:
        return self, None

    def _answering(
        self, table: str, cols: Sequence[str]
    ) -> Tuple[Any, Any]:
        entry = self._index_for(table, cols)
        if entry is None:
            raise ValueError(f"no index on {table}({', '.join(cols)})")
        return entry.tree, entry.cache

    def range_query(
        self,
        table: str,
        coord_cols: Sequence[str],
        box: Box,
    ) -> Relation:
        """Rows of ``table`` whose coordinates fall inside ``box``.

        Planned by predicted page cost (Section 5.3.1's analysis as a
        cost model): an index scan through a matching zkd index when it
        is estimated cheaper, a scan otherwise; without an index the
        relational spatial-join plan of Section 4 evaluates the query.
        Use :meth:`explain_range_query` to see the decision.
        """
        from repro.db.planner import plan_range_query

        return plan_range_query(self, table, coord_cols, box).execute()

    def explain_range_query(
        self,
        table: str,
        coord_cols: Sequence[str],
        box: Box,
    ) -> str:
        """The access plan (and its cost estimates) as text."""
        from repro.db.planner import plan_range_query

        return plan_range_query(self, table, coord_cols, box).explain()

    # -- the planner's no-index fallback (index and scan plans run
    # -- SpatialReads._range_rows directly) ------------------------------

    def _range_query_via_plan(
        self,
        table: str,
        coord_cols: Sequence[str],
        box: Box,
    ) -> Relation:
        plan = range_search_plan(
            self.catalog.relation(table), list(coord_cols), box, self.grid
        )
        return self._matched_relation(
            f"range({table})", table, coord_cols, plan.rows
        )

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
