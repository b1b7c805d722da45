"""Copy-on-write page version chains keyed by commit epoch.

Every page slot in a store has a *base* copy (the live, most recently
committed image) plus an optional chain of retained pre-images.  A
chain entry ``(birth, death, image)`` means "this image was the page's
content for commit epochs ``birth <= e < death``".  The base copy is
valid from ``current_birth(page) <= e``.

Writers call :meth:`on_write` / :meth:`on_free` at commit time, *before*
installing the new base image.  A pre-image is retained only when some
pinned snapshot still needs it — when no session is pinned the maps
hold birth/death integers and no images.  (The store itself still
copies: a versioned in-memory page store clones the page on every read
miss and write-back, so no buffer frame aliases a committed image.  A
tree is therefore loaded plain and attached to its map once, by
:meth:`~repro.storage.prefix_btree.ZkdTree.attach_snapshots`.)

Readers never take the map's lock.  The ordering contract with writers
is:

1. writer appends the chain entry (making the pre-image reachable),
2. writer bumps ``current_birth`` past the pinned epoch,
3. writer installs the new base image in the store.

A reader at snapshot ``s`` scans the chain first; on a miss it reads the
base and then *re-checks* ``current_birth <= s``.  If the check fails
the writer raced it between steps, and the retained entry from step 1
is now guaranteed visible, so one rescan suffices (we allow three for
paranoia).  CPython's GIL makes the individual dict/list operations
atomic, which is all the protocol needs.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["PageVersionMap"]

_INF = float("inf")


class PageVersionMap:
    """Version bookkeeping for one page store.

    The ``image`` payload is opaque: the in-memory store retains
    :class:`~repro.storage.page.Page` objects, the disk store retains
    raw committed slot bytes.  ``loader`` callables passed to
    :meth:`on_write` / :meth:`on_free` produce the pre-image lazily so
    that no copy is made when no snapshot is pinned.
    """

    def __init__(self, manager: "object") -> None:
        self._manager = manager
        # page_id -> epoch at which the current base image was born.
        self._births: Dict[int, int] = {}
        # page_id -> epoch at which the page was freed (absent = live).
        self._deaths: Dict[int, int] = {}
        # page_id -> list of (birth, death, image), death ascending.
        self._chains: Dict[int, List[Tuple[int, int, object]]] = {}
        self._mut = threading.Lock()
        self.retained_total = 0
        self.reclaimed_total = 0

    # -- writer side (called under the manager's exclusive lock) --------

    def note_birth(self, page_id: int) -> None:
        """Record that ``page_id`` was allocated by the pending commit."""
        with self._mut:
            self._births[page_id] = self._pending()

    def on_write(self, page_id: int, loader: Callable[[], object]) -> None:
        """Retain the committed pre-image of ``page_id`` if pinned.

        Must run before the new base image is installed in the store.
        """
        self._retire(page_id, loader)

    def on_free(self, page_id: int, loader: Callable[[], object]) -> None:
        """Like :meth:`on_write`, but also records the page's death."""
        pending = self._retire(page_id, loader)
        with self._mut:
            self._deaths[page_id] = pending

    def _pending(self) -> int:
        return self._manager.current_epoch + 1  # type: ignore[attr-defined]

    def _retire(self, page_id: int, loader: Callable[[], object]) -> int:
        pending = self._pending()
        with self._mut:
            birth = self._births.get(page_id, 0)
            if birth >= pending:
                # Already retired during this commit (page written twice
                # in one group commit): the first retirement captured
                # the committed pre-image; nothing more to keep.
                return pending
            pinned = self._manager.pinned_epochs  # type: ignore[attr-defined]
            if pinned and pinned[-1] >= birth:
                image = loader()
                if image is not None:
                    chain = self._chains.setdefault(page_id, [])
                    chain.append((birth, pending, image))
                    self.retained_total += 1
            self._births[page_id] = pending
        return pending

    # -- reader side (lock-free) ----------------------------------------

    def current_birth(self, page_id: int) -> int:
        return self._births.get(page_id, 0)

    def base_valid(self, page_id: int, epoch: int) -> bool:
        """Whether the store's live base image serves ``epoch``."""
        if self._births.get(page_id, 0) > epoch:
            return False
        return self._deaths.get(page_id, _INF) > epoch

    def find(self, page_id: int, epoch: int) -> Optional[object]:
        """Return the retained image covering ``epoch``, if any.

        ``None`` means "not in a chain — consult the base image".
        Raises ``KeyError`` when the page was not yet born or already
        freed at ``epoch`` (a frozen index can never reference such a
        page, so this indicates a protocol bug).
        """
        death = self._deaths.get(page_id)
        if death is not None and epoch >= death:
            raise KeyError(f"page {page_id} freed at epoch {death}")
        for entry in self._chains.get(page_id, ()):
            if entry[0] <= epoch < entry[1]:
                return entry[2]
        return None

    # -- reclamation -----------------------------------------------------

    def reclaim(self, pinned: Sequence[int]) -> int:
        """Drop every chain entry no pinned epoch can still read.

        An entry ``(b, d, img)`` is needed iff some pinned epoch lies in
        ``[b, d)``.  ``pinned`` must be sorted ascending.  Returns the
        number of entries freed.  Fresh lists are swapped in wholesale
        so concurrent lock-free readers only ever see a complete chain.
        """
        freed = 0
        with self._mut:
            for page_id in list(self._chains):
                chain = self._chains[page_id]
                kept = [e for e in chain if self._needed(e, pinned)]
                if len(kept) != len(chain):
                    freed += len(chain) - len(kept)
                    if kept:
                        self._chains[page_id] = kept
                    else:
                        del self._chains[page_id]
            self.reclaimed_total += freed
        return freed

    @staticmethod
    def _needed(entry: Tuple[int, int, object], pinned: Sequence[int]) -> bool:
        birth, death, _ = entry
        lo = bisect_left(pinned, birth)
        hi = bisect_right(pinned, death - 1)
        return hi > lo

    # -- introspection ---------------------------------------------------

    def live_versions(self) -> int:
        with self._mut:
            return sum(len(c) for c in self._chains.values())
