"""Read-only snapshot views over ZkdTrees.

A view binds a pinned epoch to (a) the B+-tree inner graph frozen at
pin time and (b) the store's ``read_at`` method, which resolves a leaf
page id to the image it had at that epoch (retained copy-on-write
version, or the live base when the page was not dirtied since).  A
view holds nothing else, so readers build one per read.

The crucial trick is that the leaf scan
(:func:`~repro.storage.btree.scan_ranges`) and
:class:`~repro.storage.btree.BTreeCursor` only ever call
``tree._leftmost_leaf_for`` and ``tree._load_leaf`` on the tree they
walk — so a tiny adapter over the frozen graph lets the *unmodified*
reads of :class:`~repro.storage.prefix_btree.LeafChainReads` run against
a historical state.  Query results are
:class:`~repro.storage.prefix_btree.QueryResult` objects with the same
cost accounting as live queries, so plans, traces and tests treat both
identically.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, List, Optional

from repro.core.geometry import Box
from repro.core.rangesearch import MergeStats
from repro.obs.trace import current as _trace_current
from repro.storage.btree import _InnerNode
from repro.storage.page import Page
from repro.storage.prefix_btree import Elements, LeafChainReads, QueryResult

__all__ = ["FrozenIndex", "SnapshotTreeView"]


class FrozenIndex:
    """An immutable capture of a tree's in-memory index at one epoch."""

    __slots__ = ("root", "first_leaf", "nrecords")

    def __init__(self, root: Any, first_leaf: int, nrecords: int) -> None:
        self.root = root
        self.first_leaf = first_leaf
        self.nrecords = nrecords


class _FrozenIndexReader:
    """Quacks like a ``BPlusTree`` for the leaf scan and :class:`~repro.
    storage.btree.BTreeCursor`.

    Descends the frozen inner graph and resolves leaves through the
    epoch-aware ``read_leaf`` callable; keeps the same access-log /
    descent counters as the live tree so the view's cost accounting is
    directly comparable.
    """

    def __init__(
        self, root: Any, read_leaf: Callable[[int], Page]
    ) -> None:
        self._root = root
        self._read_leaf = read_leaf
        self.leaf_accesses: List[int] = []
        self.descents = 0
        self.node_visits = 0

    def _leftmost_leaf_for(self, key: int) -> int:
        self.descents += 1
        node = self._root
        while isinstance(node, _InnerNode):
            self.node_visits += 1
            node = node.children[bisect.bisect_left(node.keys, key)]
        return node

    def _load_leaf(self, page_id: int) -> Page:
        self.leaf_accesses.append(page_id)
        return self._read_leaf(page_id)


class SnapshotTreeView(LeafChainReads):
    """Queries against one ZkdTree as of a pinned epoch.

    Entirely lock-free: the index graph was captured at pin time and
    leaf reads go through ``store.read_at``, so concurrent writers can
    split, merge and free pages without disturbing this view.
    """

    def __init__(self, tree: "Any", epoch: int) -> None:
        self._tree = tree
        self.grid = tree.grid
        self.epoch = epoch
        frozen = tree._index_snapshots.get(epoch)
        if frozen is None:
            raise KeyError(
                f"no index capture for epoch {epoch}: pin the snapshot "
                "through the SnapshotManager before building views"
            )
        self._frozen: FrozenIndex = frozen

    def __len__(self) -> int:
        return self._frozen.nrecords

    # -- plumbing --------------------------------------------------------

    def _reader(self, cow_stats: Dict[str, int]) -> _FrozenIndexReader:
        store = self._tree.store
        epoch = self.epoch

        def read_leaf(page_id: int) -> Page:
            return store.read_at(page_id, epoch, cow_stats)

        return _FrozenIndexReader(self._frozen.root, read_leaf)

    def _leaves(self) -> _FrozenIndexReader:
        return self._reader({})

    def _scan(
        self, name: str, box: Optional[Box], elements: Elements
    ) -> QueryResult:
        cow_stats: Dict[str, int] = {"cow.page_version_reads": 0}
        reader = self._reader(cow_stats)
        stats = MergeStats()
        loaded: Dict[int, int] = {}
        matches = self._matches(reader, elements, loaded, stats)
        records = sum(loaded.values())
        trace = _trace_current()
        if trace is not None:
            with trace.span(f"snapshot.{name}") as span:
                if box is not None:
                    span.set("box", repr(box))
                span.set("snapshot.epoch", self.epoch)
                counters = {
                    "pages_accessed": len(loaded),
                    "records_on_pages": records,
                    "leaf_loads": len(reader.leaf_accesses),
                    "node_visits": reader.node_visits,
                    "descents": reader.descents,
                }
                # Publish only when nonzero so the committed
                # trace-counter baseline is COW-invariant.
                for key, value in cow_stats.items():
                    if value:
                        counters[key] = value
                span.add_counters(counters)
        return QueryResult(
            matches=matches,
            pages_accessed=len(loaded),
            records_on_pages=records,
            merge=stats,
            buffer_stats={},
        )

