"""The snapshot manager: epochs, pins, group commit, reclamation.

One :class:`SnapshotManager` coordinates every store and index tree of
a database.  Time is a single integer *commit epoch*: it starts at 0
and advances by exactly one when the outermost
:meth:`~SnapshotManager.write_transaction` commits (the group-commit
boundary — all tree/WAL transactions opened inside belong to that one
epoch).  A *snapshot* is a pinned epoch: sessions pin the current epoch
and from then on read only state as of that commit, regardless of later
writers.

Pinning is the only read-side operation that takes the
:class:`~repro.concurrency.rwlock.RWLock` (shared side — so it cannot
interleave with a half-applied commit).  While the pin is being
established the manager *eagerly freezes* the in-memory B-tree inner
graph of every registered tree (:meth:`ZkdTree._capture_index`), one
capture per (tree, epoch) no matter how many sessions pin it.  Queries
then walk the frozen graph and resolve leaf pages through
``store.read_at(page_id, epoch)``, which serves retained copy-on-write
versions for pages dirtied after the pin — entirely lock-free.

Unpinning triggers epoch-based reclamation: any page version or index
capture no longer covered by a pinned epoch is dropped immediately.
With no pins active the maps retain no page images, only birth/death
integers; the in-memory page store still clones a page on every read
miss and write-back (see :mod:`repro.concurrency.versions`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.trace import add as _trace_add

from .rwlock import RWLock
from .versions import PageVersionMap

__all__ = ["SnapshotManager", "TxnHandle"]


class TxnHandle:
    """Yielded by :meth:`SnapshotManager.write_transaction`.

    ``epoch`` is filled in when the *outermost* transaction commits, so
    a writer can record exactly which snapshot boundary its batch
    created (the linearizability harness keys its oracle on this).
    """

    __slots__ = ("epoch",)

    def __init__(self) -> None:
        self.epoch: Optional[int] = None


class SnapshotManager:
    """Coordinates snapshots across the stores and trees of one database."""

    def __init__(self) -> None:
        self._lock = RWLock()
        self._mutex = threading.Lock()
        self._capture_mutex = threading.Lock()
        self._epoch = 0
        self._txn_depth = 0
        self._pins: Dict[int, int] = {}
        self._pinned_cache: Tuple[int, ...] = ()
        self._version_maps: List[PageVersionMap] = []
        self._trees: List[object] = []
        self.stats: Dict[str, int] = {
            "snapshot.pins": 0,
            "snapshot.unpins": 0,
            "snapshot.commits": 0,
            "snapshot.captures": 0,
            "cow.retained": 0,
            "cow.reclaimed": 0,
        }

    # -- wiring ----------------------------------------------------------

    def new_version_map(self) -> PageVersionMap:
        """Create and register the version map for one page store."""
        versions = PageVersionMap(self)
        self._version_maps.append(versions)
        return versions

    def register_tree(self, tree: "object") -> None:
        """Register a ZkdTree whose index graph must freeze at pin time."""
        self._trees.append(tree)

    # -- epochs and pins -------------------------------------------------

    @property
    def current_epoch(self) -> int:
        return self._epoch

    @property
    def pinned_epochs(self) -> Tuple[int, ...]:
        """Sorted tuple of currently pinned epochs (shared, immutable)."""
        return self._pinned_cache

    def pin(self) -> int:
        """Pin the current epoch; returns it.

        Blocks while a write transaction is in flight so the pinned
        epoch always names a fully committed state.  Must not be called
        from inside :meth:`write_transaction` — an index capture taken
        mid-mutation would freeze a half-applied tree.
        """
        if self._lock.owned_by_me():
            raise RuntimeError(
                "cannot pin a snapshot inside a write transaction"
            )
        with self._lock.read():
            with self._mutex:
                epoch = self._epoch
                self._pins[epoch] = self._pins.get(epoch, 0) + 1
                self._pinned_cache = tuple(sorted(self._pins))
                self.stats["snapshot.pins"] += 1
            with self._capture_mutex:
                for tree in list(self._trees):
                    tree._capture_index(epoch)  # type: ignore[attr-defined]
        _trace_add("snapshot.pins")
        return epoch

    def unpin(self, epoch: int) -> None:
        with self._mutex:
            count = self._pins.get(epoch, 0)
            if count <= 0:
                raise ValueError(f"epoch {epoch} is not pinned")
            if count == 1:
                del self._pins[epoch]
            else:
                self._pins[epoch] = count - 1
            self._pinned_cache = tuple(sorted(self._pins))
            self.stats["snapshot.unpins"] += 1
        _trace_add("snapshot.unpins")
        self.reclaim()

    # -- write transactions ----------------------------------------------

    @contextmanager
    def write_transaction(self) -> Iterator[TxnHandle]:
        """Exclusive write scope; reentrant; one epoch per outermost exit.

        Every store/tree transaction opened inside commits its WAL
        record within this scope, so the epoch bump at the outermost
        exit is always a transaction boundary (group commit).  On an
        exception the epoch does not advance: retained birth records
        point at an epoch that never becomes visible, which is
        harmless because page ids are never reused.
        """
        handle = TxnHandle()
        with self._lock.write():
            self._txn_depth += 1
            try:
                yield handle
            except BaseException:
                self._txn_depth -= 1
                raise
            else:
                self._txn_depth -= 1
                if self._txn_depth == 0:
                    with self._mutex:
                        self._epoch += 1
                        handle.epoch = self._epoch
                    self.stats["snapshot.commits"] += 1
                    _trace_add("snapshot.commits")

    # -- reclamation -----------------------------------------------------

    def reclaim(self) -> int:
        """Free every page version / index capture no pin still covers.

        The whole pass holds ``_mutex``: the pinned set must not grow
        between reading it and sweeping the maps, or a reclaim unpin
        kicked off could free versions retained for a pin (and its
        write transaction) that raced in after the read — the sweep
        would then be working from a stale view of who still reads.
        """
        freed = 0
        with self._mutex:
            pinned = self._pinned_cache
            for versions in list(self._version_maps):
                freed += versions.reclaim(pinned)
            keep = set(pinned)
            with self._capture_mutex:
                for tree in list(self._trees):
                    tree._drop_captures(keep)  # type: ignore[attr-defined]
        if freed:
            self.stats["cow.reclaimed"] += freed
            _trace_add("cow.reclaimed", freed)
        return freed

    # -- introspection ---------------------------------------------------

    def leak_stats(self) -> Dict[str, int]:
        """Resources that must all be zero once every session has exited."""
        return {
            "snapshot.active_pins": sum(self._pins.values()),
            "snapshot.captured_indexes": sum(
                len(tree._index_snapshots)  # type: ignore[attr-defined]
                for tree in self._trees
            ),
            "cow.live_page_versions": sum(
                versions.live_versions() for versions in self._version_maps
            ),
        }

    def counters(self) -> Dict[str, int]:
        stats = dict(self.stats)
        stats["cow.retained"] = sum(
            versions.retained_total for versions in self._version_maps
        )
        return stats
