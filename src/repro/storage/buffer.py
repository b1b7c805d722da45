"""Buffer management.

Section 4: "The LRU buffering strategy will work well because of our
reliance on merging in AG algorithms: each page is accessed at most
once, its contents are processed, and then the page will not be needed
again for the rest of the merge."

:class:`BufferManager` caches pages from a :class:`~repro.storage.page.
PageStore` under a replacement policy.  LRU is the default; FIFO and MRU
are provided so the benches can demonstrate *why* LRU (or indeed any
policy) is fine for merge-driven access patterns — the paper's claim is
really that merges make replacement policy irrelevant, which the
ablation bench confirms.
"""

from __future__ import annotations

import collections
import enum
import threading
from typing import Dict

from repro.faults import register_site
from repro.storage.page import Page, PageStore

__all__ = ["ReplacementPolicy", "BufferManager"]

#: Failpoint on the eviction/flush write-back path — the classic
#: "dirty page lost because the write failed" site.
SITE_WRITEBACK = register_site("buffer.writeback", "point")


class ReplacementPolicy(enum.Enum):
    LRU = "lru"
    FIFO = "fifo"
    MRU = "mru"


class BufferManager:
    """A page cache with pluggable replacement and hit/miss accounting."""

    def __init__(
        self,
        store: PageStore,
        capacity: int = 8,
        policy: ReplacementPolicy = ReplacementPolicy.LRU,
    ) -> None:
        if capacity < 1:
            raise ValueError("buffer needs at least one frame")
        self._store = store
        self._capacity = capacity
        self._policy = policy
        # Ordered dict: iteration order is eviction-relevant order.
        self._frames: "collections.OrderedDict[int, Page]" = (
            collections.OrderedDict()
        )
        self._dirty: Dict[int, bool] = {}
        # Guards the frame table: `get`'s membership-check +
        # move_to_end + lookup is not atomic, so a concurrent eviction
        # between the check and the lookup raised KeyError.  Snapshot
        # readers bypass the buffer entirely; this lock covers the
        # remaining traffic (live queries racing maintenance).
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def store(self) -> PageStore:
        return self._store

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._frames)

    def get(self, page_id: int) -> Page:
        """Fetch a page through the cache."""
        with self._lock:
            if page_id in self._frames:
                self.hits += 1
                if self._policy in (
                    ReplacementPolicy.LRU,
                    ReplacementPolicy.MRU,
                ):
                    self._frames.move_to_end(page_id)
                return self._frames[page_id]
            self.misses += 1
            page = self._store.read(page_id)
            self._admit(page_id, page)
            return page

    def put(self, page: Page, dirty: bool = True) -> None:
        """Install a (possibly new or modified) page in the cache."""
        with self._lock:
            if page.page_id in self._frames:
                self._frames[page.page_id] = page
                # FIFO evicts by *admission* order: a re-put must not
                # refresh recency, or FIFO silently degenerates into LRU.
                if self._policy is not ReplacementPolicy.FIFO:
                    self._frames.move_to_end(page.page_id)
                self._dirty[page.page_id] = (
                    self._dirty.get(page.page_id, False) or dirty
                )
                return
            self._admit(page.page_id, page, dirty)

    def peek(self, page_id: int) -> Page:
        """Coherent, uncounted read: the buffered (possibly dirty) copy
        when present, the stored copy otherwise.  For introspection and
        structure maintenance, not for data-path accesses."""
        with self._lock:
            if page_id in self._frames:
                return self._frames[page_id]
        return self._store.peek(page_id)

    def mark_dirty(self, page_id: int) -> None:
        with self._lock:
            if page_id not in self._frames:
                raise KeyError(f"page {page_id} is not buffered")
            self._dirty[page_id] = True

    def _admit(self, page_id: int, page: Page, dirty: bool = False) -> None:
        while len(self._frames) >= self._capacity:
            self._evict_one()
        self._frames[page_id] = page
        self._dirty[page_id] = dirty

    def _evict_one(self) -> None:
        if self._policy is ReplacementPolicy.MRU:
            victim_id = next(reversed(self._frames))
        else:  # LRU and FIFO both evict the oldest entry; they differ
            # only in whether `get` refreshes recency (see `get`).
            victim_id = next(iter(self._frames))
        # Write back *before* dropping the frame: if the store raises,
        # the dirty page stays resident (and dirty) instead of being
        # silently lost — the caller sees the error and can retry.
        if self._dirty.get(victim_id, False):
            self._write_back(victim_id, self._frames[victim_id])
        del self._frames[victim_id]
        self._dirty.pop(victim_id, None)
        self.evictions += 1

    def _write_back(self, page_id: int, page: Page) -> None:
        faults = getattr(self._store, "faults", None)
        if faults is not None:
            faults.hit(SITE_WRITEBACK, page=page_id)
        self._store.write(page)
        self._dirty[page_id] = False

    def flush(self) -> None:
        """Write back every dirty page (kept cached)."""
        with self._lock:
            for page_id, page in self._frames.items():
                if self._dirty.get(page_id):
                    self._write_back(page_id, page)

    def invalidate(self, page_id: int) -> None:
        """Drop a page from the cache without write-back (after free)."""
        with self._lock:
            self._frames.pop(page_id, None)
            self._dirty.pop(page_id, None)

    def clear(self) -> None:
        """Drop every frame without write-back (flush first to keep
        dirty pages)."""
        with self._lock:
            self._frames.clear()
            self._dirty.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Snapshot of the accounting counters (what a query trace
        publishes as ``buffer_hits`` / ``buffer_misses`` / ...)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def reset_stats(self) -> None:
        """Zero the accounting counters (cached pages stay resident).

        Queries no longer call this (they diff counter snapshots, so
        concurrent sessions never clobber each other's accounting); it
        remains for tests and interactive use."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
