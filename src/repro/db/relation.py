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
    :meth:`insert`, :meth:`insert_many`).  This is the type of derived
    and operator results; a database's tables are versioned
    (:class:`VersionedRelation`).
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

    def _live_rows(self) -> List[Row]:
        return self._stored()[1]

    def _stored(self) -> Tuple[Sequence[int], List[Row]]:
        """The live rows and their positions, in relation order."""
        return range(len(self._rows)), self._rows

    def __len__(self) -> int:
        return len(self._rows)

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

    Storage is append-only: ``_rows[i]`` is live at epoch ``e`` iff it
    was born by ``e`` and ``e < _deaths.get(i, inf)``.  Births only grow,
    so the rows born by ``e`` are a prefix of ``_rows``; ``_births``
    holds one ``(epoch, rows born by it)`` entry per commit that stored
    rows here.  Deletes tombstone, they never remove, so positions are
    stable *across epochs* — one coordinate -> positions map per index
    serves every snapshot — and lock-free snapshot readers can iterate
    a prefix of the lists without coordination: a reader consults only
    the entries of committed epochs, and those never change again.

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
        self._births: List[Tuple[int, int]] = []
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
        return self._append(pending, [self.schema.validate_row(row)])

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> range:
        pending = self._require_write_lock()
        validate = self.schema.validate_row
        validated = [validate(r) for r in rows]
        start = self._append(pending, validated)
        return range(start, start + len(validated))

    def _append(self, pending: int, validated: List[Row]) -> int:
        """Store validated rows, born at the ``pending`` epoch; returns
        the first one's position."""
        start = len(self._rows)
        self._rows.extend(validated)
        births = self._births
        if births and births[-1][0] == pending:
            births[-1] = (pending, len(self._rows))
        else:
            births.append((pending, len(self._rows)))
        self.mutations += 1
        return start

    def _delete(self, row: Sequence[Any]) -> Optional[int]:
        """Stamp the first row equal to ``row`` and live now dead at the
        pending epoch (bag semantics: one delete removes one duplicate);
        returns its position, ``None`` when no live row matched."""
        pending = self._require_write_lock()
        target = self.schema.validate_row(row)
        # every stored row is born by the pending epoch: live means
        # not yet stamped dead
        for i, existing in enumerate(self._rows):
            if existing == target and i not in self._deaths:
                self._deaths[i] = pending
                self._death_log.append((pending, i))
                self.mutations += 1
                return i
        return None

    def _born(self, epoch: int) -> int:
        """How many rows were born by ``epoch`` (they are a prefix)."""
        births = self._births
        k = bisect_right(births, (epoch, _INF))
        return births[k - 1][1] if k else 0

    def rows_at(self, epoch: int) -> List[Row]:
        """The committed rows visible to a snapshot at ``epoch``."""
        return self._stored_at(epoch)[1]

    def _stored_at(self, epoch: int) -> Tuple[Sequence[int], List[Row]]:
        """Positions and rows live at ``epoch``: the prefix born by
        ``epoch``, where only the (few) deaths need a per-row look."""
        born = self._born(epoch)
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

    @property
    def rows(self) -> List[Row]:
        return self._live_rows()  # already a fresh list

    def fetch(
        self, positions: Iterable[int], epoch: Optional[int] = None
    ) -> List[Row]:
        """The rows at ``positions`` (ascending) that are live at
        ``epoch`` (``None``: the newest state this thread may see).

        One bisect finds the prefix of rows born by ``epoch``: the
        positions below it are live unless dead, and the ones above it
        — a running commit's pending rows, or rows an abort is
        truncating — are skipped.  Lock-free: a row in the prefix
        belongs to a committed batch (or to this writer's own), so it
        is fully stored."""
        if epoch is None:
            epoch = self._read_epoch()
        born = self._born(epoch)
        rows, deaths = self._rows, self._deaths
        if not deaths:
            return [rows[i] for i in positions if i < born]
        return [
            rows[i]
            for i in positions
            if i < born and deaths.get(i, _INF) > epoch
        ]

    def __len__(self) -> int:
        epoch = self._read_epoch()
        # (epoch + 1, -1) sorts just above every death stamped <= epoch
        return self._born(epoch) - bisect_left(
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
        births = self._births
        while births and births[-1][1] > nrows:
            epoch = births.pop()[0]
            if (births[-1][1] if births else 0) < nrows:
                births.append((epoch, nrows))
        for _, position in self._death_log[ndeaths:]:
            del self._deaths[position]
        del self._death_log[ndeaths:]
        self.mutations += 1
