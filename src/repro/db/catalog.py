"""System catalog: named relations and their spatial indexes."""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple, Union

from repro.db.relation import VersionedRelation
from repro.storage.prefix_btree import ZkdTree

__all__ = [
    "Catalog",
    "IndexEntry",
    "PositionMap",
    "StatementCache",
    "coordinate_map",
]


Point = Tuple[int, ...]
#: coordinate -> the position of the stored row there (a bare ``int``,
#: the common case) or the ascending positions of the rows sharing it.
PositionMap = Dict[Point, Union[int, List[int]]]


def _record(mapping: PositionMap, point: Point, position: int) -> None:
    """``point`` gains a row at ``position`` (above its earlier ones)."""
    held = mapping.get(point)
    if held is None:
        mapping[point] = position
    elif type(held) is list:
        held.append(position)
    else:
        mapping[point] = [held, position]


def coordinate_map(
    points: Iterable[Point], positions: Optional[Iterable[int]] = None
) -> PositionMap:
    """The coordinate -> row positions map of ``points`` stored, in
    order, at ``positions`` (default ``0, 1, 2, ...``)."""
    mapping: PositionMap = {}
    if positions is None:
        positions = itertools.count()
    for point, position in zip(points, positions):
        _record(mapping, point, position)
    return mapping


class IndexEntry:
    """A zkd B+-tree index over coordinate columns of a relation, and
    the map that joins its matches back to rows.

    The tree stores bare coordinates (one entry per row); ``positions``
    says where the rows with those coordinates are stored, so a read
    touches O(matches) rows.  Stored positions never move and the
    relation filters them by epoch on fetch (see
    :class:`~repro.db.relation.VersionedRelation`), so the one map
    serves the live state and every snapshot pinned since
    ``born_epoch``.  It is built by ``create_index`` and changed only
    by the database's insert/delete/rollback; readers take no lock.
    """

    def __init__(
        self,
        index_name: str,
        relation_name: str,
        coord_cols: Tuple[str, ...],
        tree: ZkdTree,
        born_epoch: int = 0,
        positions: Optional[PositionMap] = None,
    ) -> None:
        self.index_name = index_name
        self.relation_name = relation_name
        self.coord_cols = coord_cols
        self.tree = tree
        # Commit epoch at which the index became visible.  Snapshots
        # pinned before this epoch must not consult the index (its
        # frozen captures only exist from born_epoch onwards, and its
        # map never saw rows that died before it).
        self.born_epoch = born_epoch
        self.positions: PositionMap = {} if positions is None else positions

    def __repr__(self) -> str:
        cols = ", ".join(self.coord_cols)
        return f"IndexEntry({self.index_name!r} on {self.relation_name}({cols}))"

    def visible_at(self, epoch: Optional[int]) -> bool:
        """May a reader at ``epoch`` (``None``: live) use this index?"""
        return epoch is None or self.born_epoch <= epoch

    def add(self, point: Point, position: int) -> None:
        """A row was stored at ``position`` (above every earlier one)."""
        _record(self.positions, point, position)

    def forget(self, point: Point, position: int) -> None:
        """The row at ``position`` is gone for every reader."""
        held = self.positions.get(point)
        if type(held) is list:
            held.remove(position)
            if len(held) == 1:
                self.positions[point] = held[0]
        elif held == position:
            del self.positions[point]

    def positions_of(self, points: Iterable[Point]) -> List[int]:
        """Ascending positions of the rows stored at any of the
        (distinct) ``points`` — relation order."""
        held_at = self.positions.get
        hits: List[int] = []
        for point in points:
            held = held_at(point)
            if held is None:
                continue
            if type(held) is list:
                hits.extend(held)
            else:
                hits.append(held)
        hits.sort()
        return hits


class StatementCache:
    """A bounded, lock-guarded LRU from a SQL statement's shape (its
    tokens, literals replaced by their kind) to what parsing and
    binding it learnt (:mod:`repro.sql.shapes`).

    A binding holds only while the schemas it read do, so the catalog
    clears the cache whenever a relation is registered or dropped; a
    clear bumps :attr:`generation`, and :meth:`put` drops an entry
    bound before the last clear.  ``hits`` and ``misses`` count
    :meth:`get`; ``len()`` is the number of entries.
    """

    #: Entries kept; the least recently used one goes first.
    CAPACITY = 128

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.generation = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any:
        """The entry for ``key`` (now the most recently used), or
        ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
            return entry

    def put(self, key: Hashable, entry: Any, generation: int) -> None:
        """Keep ``entry``, bound while :attr:`generation` read
        ``generation``, evicting the least recently used beyond
        :attr:`CAPACITY`."""
        with self._lock:
            if generation != self.generation:
                return
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.CAPACITY:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.generation += 1

    def counters(self) -> Dict[str, int]:
        """Hits, misses and entries, as the server's ``/stats`` shows
        them."""
        return {
            "planner.shape_cache.hits": self.hits,
            "planner.shape_cache.misses": self.misses,
            "planner.shape_cache.entries": len(self._entries),
        }


class Catalog:
    """Name -> relation / index registry with uniqueness enforcement,
    and the SQL statement cache its schemas validate."""

    def __init__(self) -> None:
        self._relations: Dict[str, VersionedRelation] = {}
        self._indexes: Dict[str, IndexEntry] = {}
        self.statements = StatementCache()

    # -- relations --------------------------------------------------------

    def register(self, relation: VersionedRelation) -> None:
        if relation.name in self._relations:
            raise ValueError(f"relation {relation.name!r} already exists")
        self._relations[relation.name] = relation
        self.statements.clear()

    def relation(self, name: str) -> VersionedRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(
                f"no relation {name!r}; have {sorted(self._relations)}"
            ) from None

    def drop_relation(self, name: str) -> None:
        self.relation(name)  # raise if absent
        del self._relations[name]
        self.statements.clear()
        for index_name in [
            n
            for n, entry in self._indexes.items()
            if entry.relation_name == name
        ]:
            del self._indexes[index_name]

    def relation_names(self) -> List[str]:
        return sorted(self._relations)

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    # -- indexes ------------------------------------------------------------

    def register_index(self, entry: IndexEntry) -> None:
        if entry.index_name in self._indexes:
            raise ValueError(f"index {entry.index_name!r} already exists")
        self.relation(entry.relation_name)  # must exist
        self._indexes[entry.index_name] = entry

    def index(self, name: str) -> IndexEntry:
        try:
            return self._indexes[name]
        except KeyError:
            raise KeyError(
                f"no index {name!r}; have {sorted(self._indexes)}"
            ) from None

    def indexes(self) -> List[IndexEntry]:
        return list(self._indexes.values())

    def indexes_on(self, relation_name: str) -> List[IndexEntry]:
        return [
            entry
            for entry in self._indexes.values()
            if entry.relation_name == relation_name
        ]

    def drop_index(self, name: str) -> None:
        self.index(name)
        del self._indexes[name]
