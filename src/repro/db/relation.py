"""Relations: schema + a multiset of typed rows."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.db.schema import Schema

__all__ = ["Relation", "VersionedRelation"]

Row = Tuple[Any, ...]

_INF = float("inf")


class Relation:
    """An in-memory relation (bag semantics, like the paper's 1NF
    intermediate results — duplicate (p@, q@) pairs appear until the
    final projection removes them).

    Rows are validated exactly once, on the way in (the constructor,
    :meth:`insert`, :meth:`insert_many`).  A row's *position* — its
    index in the store — never changes: a delete frees the slot instead
    of closing the gap, so an index's coordinate -> positions map (see
    :class:`repro.db.catalog.IndexEntry`) stays valid across deletes.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Sequence[Any]] = (),
    ) -> None:
        self.name = name
        self.schema = schema
        validate = schema.validate_row
        self._rows: List[Any] = [validate(r) for r in rows]
        self._freed = 0
        #: Bumped by every insert, delete and rollback; derived
        #: statistics key their caches on it.
        self.mutations = 0

    @classmethod
    def _derived(
        cls, name: str, schema: Schema, rows: Iterable[Row]
    ) -> "Relation":
        """A relation over rows that some relation of this schema (or
        of the schemas it was assembled from) already validated — what
        every operator that only re-arranges rows builds its result
        with.  Nothing is re-validated; a ``list`` is adopted as is."""
        out = Relation.__new__(Relation)
        out.name = name
        out.schema = schema
        out._rows = rows if type(rows) is list else list(rows)
        out._freed = 0
        out.mutations = 0
        return out

    def insert(self, row: Sequence[Any]) -> int:
        """Store ``row``; returns its position."""
        self._rows.append(self.schema.validate_row(row))
        self.mutations += 1
        return len(self._rows) - 1

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> range:
        """Store every row, or none if one is invalid; returns their
        positions."""
        validate = self.schema.validate_row
        validated = [validate(r) for r in rows]
        start = len(self._rows)
        self._rows.extend(validated)
        self.mutations += 1
        return range(start, start + len(validated))

    def delete(self, row: Sequence[Any]) -> bool:
        """Remove the first row equal to ``row``; False when absent
        (bag semantics: one delete removes one duplicate)."""
        return self._delete(row) is not None

    def _delete(self, row: Sequence[Any]) -> Optional[int]:
        """:meth:`delete`, returning the freed position (``None`` when
        no row matched)."""
        target = self.schema.validate_row(row)
        try:
            position = self._rows.index(target)
        except ValueError:
            return None
        self._rows[position] = None
        self._freed += 1
        self.mutations += 1
        return position

    def _live_rows(self) -> List[Row]:
        return self._stored()[1]

    def _stored(self) -> Tuple[Sequence[int], List[Row]]:
        """The live rows and their positions, in relation order."""
        if not self._freed:
            return range(len(self._rows)), self._rows
        positions = [
            i for i, row in enumerate(self._rows) if row is not None
        ]
        return positions, [self._rows[i] for i in positions]

    def fetch(
        self, positions: Iterable[int], epoch: Optional[int] = None
    ) -> List[Row]:
        """The rows at ``positions`` (an index map's, so all live)."""
        rows = self._rows
        return [rows[i] for i in positions]

    def __len__(self) -> int:
        return len(self._rows) - self._freed

    def __iter__(self) -> Iterator[Row]:
        return iter(self._live_rows())

    @property
    def rows(self) -> List[Row]:
        return list(self._live_rows())

    def column_values(self, name: str) -> List[Any]:
        index = self.schema.index_of(name)
        return [row[index] for row in self._live_rows()]

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {len(self)} rows)"

    def pretty(self, limit: int = 20) -> str:
        """A small fixed-width rendering for examples and docs."""
        live = self._live_rows()
        header = " | ".join(self.schema.names)
        rule = "-" * len(header)
        body = [" | ".join(str(v) for v in row) for row in live[:limit]]
        if len(live) > limit:
            body.append(f"... ({len(live) - limit} more rows)")
        return "\n".join([header, rule, *body])


class VersionedRelation(Relation):
    """A relation whose rows carry commit-epoch birth/death stamps.

    Storage is append-only: ``_rows[i]`` is live at epoch ``e`` iff
    ``_births[i] <= e < _deaths.get(i, inf)``.  Deletes tombstone, they
    never remove, so positions are stable *across epochs* — one
    coordinate -> positions map per index serves every snapshot — and
    lock-free snapshot readers can iterate a prefix of the lists
    without coordination.
    The birth stamp is appended *before* the row itself, so a reader
    that sees ``_rows[i]`` always finds ``_births[i]`` populated.

    All mutations must run inside the snapshot manager's exclusive
    write transaction; reads take no locks.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        manager: "object",
        rows: Iterable[Sequence[Any]] = (),
    ) -> None:
        super().__init__(name, schema)
        self._manager = manager
        self._births: List[int] = []
        self._deaths: Dict[int, int] = {}
        # The deaths again, in stamping order: both stamp sequences only
        # ever grow (commit epochs do), so a bisect counts the rows born
        # or dead by an epoch, and a rollback pops what a batch stamped.
        self._death_log: List[Tuple[int, int]] = []
        for row in rows:
            self.insert(row)

    def _require_write_lock(self) -> int:
        lock = self._manager._lock  # type: ignore[attr-defined]
        if not lock.owned_by_me():
            raise RuntimeError(
                f"mutating versioned relation {self.name!r} outside a "
                "write transaction; use db.session() or a group commit"
            )
        return self._manager.current_epoch + 1  # type: ignore[attr-defined]

    def insert(self, row: Sequence[Any]) -> int:
        pending = self._require_write_lock()
        validated = self.schema.validate_row(row)
        self._births.append(pending)
        self._rows.append(validated)
        self.mutations += 1
        return len(self._rows) - 1

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> range:
        pending = self._require_write_lock()
        validate = self.schema.validate_row
        validated = [validate(r) for r in rows]
        start = len(self._rows)
        self._births.extend([pending] * len(validated))
        self._rows.extend(validated)
        self.mutations += 1
        return range(start, start + len(validated))

    def _delete(self, row: Sequence[Any]) -> Optional[int]:
        pending = self._require_write_lock()
        target = self.schema.validate_row(row)
        for i, existing in enumerate(self._rows):
            if existing == target and self._is_live(i, pending):
                self._deaths[i] = pending
                self._death_log.append((pending, i))
                self.mutations += 1
                return i
        return None

    def _is_live(self, i: int, epoch: int) -> bool:
        return (
            self._births[i] <= epoch
            and self._deaths.get(i, _INF) > epoch
        )

    def rows_at(self, epoch: int) -> List[Row]:
        """The committed rows visible to a snapshot at ``epoch``."""
        return self._stored_at(epoch)[1]

    def _stored_at(self, epoch: int) -> Tuple[Sequence[int], List[Row]]:
        """Positions and rows live at ``epoch``.  Births only grow, so
        the rows born by ``epoch`` are a prefix; only the (few) deaths
        need a per-row look."""
        born = bisect_right(self._births, epoch)
        rows = self._rows[:born]
        deaths = self._deaths
        if not deaths:
            return range(born), rows
        positions = [
            i for i in range(born) if deaths.get(i, _INF) > epoch
        ]
        return positions, [rows[i] for i in positions]

    def _read_epoch(self) -> int:
        epoch = self._manager.current_epoch  # type: ignore[attr-defined]
        if self._manager._lock.owned_by_me():  # type: ignore[attr-defined]
            epoch += 1  # a writer sees its own uncommitted rows
        return epoch

    def _stored(self) -> Tuple[Sequence[int], List[Row]]:
        return self._stored_at(self._read_epoch())

    def fetch(
        self, positions: Iterable[int], epoch: Optional[int] = None
    ) -> List[Row]:
        """The rows at ``positions`` that are live at ``epoch``
        (``None``: the newest state this thread may see).  Lock-free:
        an index map may already name a position a running commit has
        stamped with its pending epoch (filtered here, the birth is
        written before the row and the row before the map) or one an
        abort is just truncating (skipped)."""
        if epoch is None:
            epoch = self._read_epoch()
        births, deaths, rows = self._births, self._deaths, self._rows
        out: List[Row] = []
        for i in positions:
            try:
                if births[i] <= epoch < deaths.get(i, _INF):
                    out.append(rows[i])
            except IndexError:
                continue
        return out

    def __len__(self) -> int:
        epoch = self._read_epoch()
        # (epoch + 1, -1) sorts just above every death stamped <= epoch
        return bisect_right(self._births, epoch) - bisect_left(
            self._death_log, (epoch + 1, -1)
        )

    def __repr__(self) -> str:
        return f"VersionedRelation({self.name!r}, {len(self)} rows)"

    # -- group-commit rollback support ----------------------------------

    def _undo_state(self) -> Tuple[int, int]:
        return len(self._rows), len(self._death_log)

    def _restore(self, state: Tuple[int, int]) -> None:
        """Roll back to a pre-transaction :meth:`_undo_state`.

        Required for aborted group commits: rows born at the pending
        epoch would otherwise become visible once a *later* transaction
        commits (the epoch counter never advanced for the abort, so the
        stamps would collide with the next successful commit).
        """
        nrows, ndeaths = state
        del self._rows[nrows:]
        del self._births[nrows:]
        for _, position in self._death_log[ndeaths:]:
            del self._deaths[position]
        del self._death_log[ndeaths:]
        self.mutations += 1
