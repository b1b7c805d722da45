"""System catalog: named relations and their spatial indexes."""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.db.relation import VersionedRelation
from repro.storage.prefix_btree import ZkdTree

__all__ = ["Catalog", "IndexEntry", "PositionMap", "coordinate_map"]


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
        cache=None,
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
        # Optional semantic result cache (repro.cache.QueryResultCache)
        # attached when the database runs with cache= enabled.
        self.cache = cache
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


class Catalog:
    """Name -> relation / index registry with uniqueness enforcement."""

    def __init__(self) -> None:
        self._relations: Dict[str, VersionedRelation] = {}
        self._indexes: Dict[str, IndexEntry] = {}

    # -- relations --------------------------------------------------------

    def register(self, relation: VersionedRelation) -> None:
        if relation.name in self._relations:
            raise ValueError(f"relation {relation.name!r} already exists")
        self._relations[relation.name] = relation

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
