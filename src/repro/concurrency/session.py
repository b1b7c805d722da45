"""Snapshot-isolated client sessions.

A :class:`Session` pins the database's commit epoch at construction and
from then on every read — row scans, index-backed range and proximity
queries, merge joins — sees exactly the state committed at that instant.
Concurrent writers keep committing; the session is oblivious.

Writes made through a session buffer locally and apply atomically on
:meth:`Session.commit` as one group commit (one epoch, one WAL commit
per store).  The session's *reads* still serve the pinned snapshot after
a commit — call :meth:`Session.refresh` to advance to the newest epoch.

Reads are lock-free: they walk index graphs frozen at pin time and
resolve data pages through the stores' epoch-aware ``read_at``.  The
only lock a session ever takes is during :meth:`commit` (the manager's
exclusive write side) and the brief shared-side acquisition at pin /
refresh time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.geometry import Box
from repro.db.readpath import SpatialReads, visible_rows
from repro.db.relation import Relation

__all__ = ["Session"]

Point = Tuple[int, ...]
Row = Tuple[Any, ...]


class Session(SpatialReads):
    """One client's consistent view of a :class:`~repro.db.database.
    SpatialDatabase`.

    Use as a context manager; the snapshot unpins (and its retained
    page versions become reclaimable) when the block exits.  Exiting
    does *not* commit buffered writes — commit explicitly.
    """

    def __init__(self, db: "Any") -> None:
        self._db = db
        self._manager = db.snapshots
        self._epoch: int = self._manager.pin()
        self._views: Dict[str, Any] = {}
        self._pending: List[Tuple[str, str, Row]] = []
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The pinned commit epoch this session reads at."""
        return self._epoch

    @property
    def pending_ops(self) -> int:
        return len(self._pending)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Unpin the snapshot (idempotent); buffered writes are dropped."""
        if self._closed:
            return
        self._closed = True
        self._views.clear()
        self._pending.clear()
        self._manager.unpin(self._epoch)

    def refresh(self) -> int:
        """Re-pin at the newest committed epoch (e.g. to observe one's
        own commit); buffered writes survive.  Returns the new epoch."""
        self._check_open()
        old = self._epoch
        self._views.clear()
        self._epoch = self._manager.pin()
        self._manager.unpin(old)
        return self._epoch

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    # -- reads: pinned rows, snapshot views, pinned epoch -----------------
    # (proximity_query, knn_query, epsilon_join and range_query_stats
    # are SpatialReads' — the same code the database runs live.)

    def _reading(self) -> Tuple[Any, Optional[int]]:
        self._check_open()
        return self._db, self._epoch

    def _answering(
        self, table: str, cols: Sequence[str]
    ) -> Tuple[Any, Any]:
        """The snapshot view (and result cache) of a matching index;
        ``(None, None)`` when there is none or it was created after this
        snapshot was pinned (no capture exists for our epoch — the
        visible rows answer instead)."""
        entry = self._entry(table, cols)
        if entry is None:
            return None, None
        view = self._views.get(entry.index_name)
        if view is None:
            view = entry.tree.snapshot_view(self._epoch)
            self._views[entry.index_name] = view
        return view, entry.cache

    def table(self, name: str) -> Relation:
        """The relation's visible rows as an immutable plain relation."""
        self._check_open()
        relation = self._db.catalog.relation(name)
        return Relation._derived(
            name, relation.schema, visible_rows(relation, self._epoch)
        )

    def range_query(
        self,
        table: str,
        coord_cols: Sequence[str],
        box: Box,
    ) -> Relation:
        """Rows inside ``box`` as of the snapshot — index-backed when a
        matching index predates the pin, row scan otherwise."""
        self._check_open()
        view, cache = self._answering(table, coord_cols)
        return self._range_rows(table, coord_cols, box, view, cache)

    def join_points(
        self,
        table_a: str,
        cols_a: Sequence[str],
        table_b: str,
        cols_b: Sequence[str],
    ) -> List[Point]:
        """Distinct coordinate tuples present in both tables at the
        snapshot, in z order — a zkd merge join over two frozen leaf
        chains when both sides have snapshot-visible indexes (the
        cursors *seek*, skipping whole subtrees between matches), a
        z-sorted set intersection otherwise."""
        self._check_open()
        va, _ = self._answering(table_a, cols_a)
        vb, _ = self._answering(table_b, cols_b)
        # Sharded snapshot views have no single leaf chain to merge
        # over; fall through to the set intersection for those.
        if (
            va is not None
            and vb is not None
            and hasattr(va, "cursor")
            and hasattr(vb, "cursor")
        ):
            return self._merge_join(va, vb)
        points: List[set] = []
        for table, cols in ((table_a, cols_a), (table_b, cols_b)):
            _, rows, coords = self._visible(table, cols)
            points.append(set(map(coords, rows)))
        grid = self._db.grid
        return sorted(
            points[0] & points[1], key=lambda p: grid.zvalue(p).bits
        )

    @staticmethod
    def _merge_join(va: "Any", vb: "Any") -> List[Point]:
        # Classic sorted-merge over z codes; z is a bijection with the
        # point at full depth so equal z means equal point.  seek()
        # descends from the frozen root when the gap leaves the current
        # page, so disjoint key ranges cost O(height), not O(leaves).
        out: List[Point] = []
        ca, cb = va.cursor(), vb.cursor()
        ra, rb = ca.current, cb.current
        last: Optional[int] = None
        while ra is not None and rb is not None:
            if ra.z < rb.z:
                ra = ca.seek(rb.z)
            elif rb.z < ra.z:
                rb = cb.seek(ra.z)
            else:
                if ra.z != last:
                    out.append(ra.payload)
                    last = ra.z
                ra = ca.step()
                rb = cb.step()
        return out

    # -- writes ----------------------------------------------------------

    def insert(self, table: str, row: Sequence[Any]) -> None:
        """Buffer an insert; applied atomically by :meth:`commit`."""
        self._check_open()
        self._pending.append(("insert", table, tuple(row)))

    def delete(self, table: str, row: Sequence[Any]) -> None:
        """Buffer a delete; applied atomically by :meth:`commit`."""
        self._check_open()
        self._pending.append(("delete", table, tuple(row)))

    def commit(self) -> Optional[int]:
        """Apply every buffered write as one group commit.

        Returns the commit epoch the batch created (``None`` when there
        was nothing to commit).  The session's snapshot does **not**
        advance — reads still serve the pinned epoch until
        :meth:`refresh`.  On failure the buffered ops are dropped and
        the database's group commit rolls every partial change back.
        """
        self._check_open()
        ops, self._pending = self._pending, []
        if not ops:
            return None
        db = self._db
        with db._group_commit() as txn:
            for op, table, row in ops:
                if op == "insert":
                    db._insert_unlocked(table, row)
                else:
                    db._delete_unlocked(table, row)
        return txn.epoch
