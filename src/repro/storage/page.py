"""Disk-page model.

The experiments of Section 5.3.2 measure "the number of (data) pages
accessed for each query" with "page capacity ... 20 points".  A
:class:`Page` is therefore a fixed-capacity container of ``(key, value)``
records kept sorted by key; :class:`PageStore` plays the disk, counting
physical reads and writes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["Record", "Page", "PageStore"]

Record = Tuple[int, Any]


@dataclass
class Page:
    """A fixed-capacity data page of key-sorted records.

    ``next_page`` links leaf pages into the sequence-set chain of the
    B+-tree, giving the sequential access the merge algorithms need.
    """

    page_id: int
    capacity: int
    records: List[Record] = field(default_factory=list)
    next_page: Optional[int] = None

    def __post_init__(self) -> None:
        if self.capacity < 2:
            raise ValueError("pages must hold at least two records")

    @property
    def nrecords(self) -> int:
        return len(self.records)

    @property
    def is_full(self) -> bool:
        return len(self.records) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self.records

    @property
    def low_key(self) -> int:
        if not self.records:
            raise ValueError(f"page {self.page_id} is empty")
        return self.records[0][0]

    @property
    def high_key(self) -> int:
        if not self.records:
            raise ValueError(f"page {self.page_id} is empty")
        return self.records[-1][0]

    def keys(self) -> List[int]:
        return [key for key, _ in self.records]

    def insert(self, key: int, value: Any) -> None:
        """Insert keeping key order (duplicates allowed, stable)."""
        if self.is_full:
            raise ValueError(f"page {self.page_id} is full")
        index = bisect.bisect_right(self.keys(), key)
        self.records.insert(index, (key, value))

    def remove(self, key: int, value: Any = None) -> bool:
        """Remove one record with ``key`` (and ``value`` when given).
        Returns whether a record was removed."""
        keys = self.keys()
        index = bisect.bisect_left(keys, key)
        while index < len(self.records) and self.records[index][0] == key:
            if value is None or self.records[index][1] == value:
                del self.records[index]
                return True
            index += 1
        return False

    def find(self, key: int) -> List[Any]:
        """All values stored under ``key``."""
        keys = self.keys()
        lo = bisect.bisect_left(keys, key)
        hi = bisect.bisect_right(keys, key)
        return [value for _, value in self.records[lo:hi]]

    def split(self, new_page_id: int) -> "Page":
        """Move the upper half of the records to a fresh page and return
        it; the chain pointer is threaded through."""
        mid = len(self.records) // 2
        sibling = Page(
            page_id=new_page_id,
            capacity=self.capacity,
            records=self.records[mid:],
            next_page=self.next_page,
        )
        self.records = self.records[:mid]
        self.next_page = new_page_id
        return sibling

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)


class PageStore:
    """An in-memory stand-in for the disk: a dictionary of pages with
    read/write accounting.

    All page traffic in the storage engine flows through :meth:`read`
    and :meth:`write`; the experiment harness snapshots the counters to
    measure per-query I/O.

    Unversioned (a standalone tree, or one still loading) :meth:`read`
    returns the stored object itself, so callers' in-place mutations are
    visible without an explicit :meth:`write` — the historical in-memory
    behaviour.  After :meth:`attach_versions` the store switches to
    real-disk semantics: reads return copies, writes copy in, and the
    displaced committed image is offered to the version map so pinned
    snapshots can keep reading it (:meth:`read_at`).
    """

    def __init__(self, page_capacity: int) -> None:
        if page_capacity < 2:
            raise ValueError("page capacity must be at least 2")
        self.page_capacity = page_capacity
        self._pages: Dict[int, Page] = {}
        self._next_id = 0
        self._versions = None
        self.reads = 0
        self.writes = 0
        self.allocations = 0

    def __len__(self) -> int:
        return len(self._pages)

    def page_ids(self) -> List[int]:
        return sorted(self._pages)

    def attach_versions(self, versions) -> None:
        """Enable copy-on-write snapshots: route page lifecycle events
        through a :class:`~repro.concurrency.versions.PageVersionMap`."""
        self._versions = versions

    @staticmethod
    def _clone(page: Page) -> Page:
        return Page(
            page_id=page.page_id,
            capacity=page.capacity,
            records=list(page.records),
            next_page=page.next_page,
        )

    def allocate(self) -> Page:
        page = Page(page_id=self._next_id, capacity=self.page_capacity)
        if self._versions is None:
            self._pages[self._next_id] = page
        else:
            self._versions.note_birth(page.page_id)
            self._pages[self._next_id] = self._clone(page)
        self._next_id += 1
        self.allocations += 1
        return page

    def read(self, page_id: int) -> Page:
        try:
            page = self._pages[page_id]
        except KeyError:
            raise KeyError(f"no such page: {page_id}") from None
        self.reads += 1
        if self._versions is not None:
            return self._clone(page)
        return page

    def write(self, page: Page) -> None:
        if page.page_id not in self._pages:
            raise KeyError(f"no such page: {page.page_id}")
        if self._versions is None:
            self._pages[page.page_id] = page
        else:
            old = self._pages[page.page_id]
            self._versions.on_write(page.page_id, lambda: old)
            self._pages[page.page_id] = self._clone(page)
        self.writes += 1

    def free(self, page_id: int) -> None:
        if page_id not in self._pages:
            raise KeyError(f"no such page: {page_id}")
        if self._versions is not None:
            old = self._pages[page_id]
            self._versions.on_free(page_id, lambda: old)
        del self._pages[page_id]

    def peek(self, page_id: int) -> Page:
        """Read without counting — for tests and figure rendering only."""
        page = self._pages[page_id]
        if self._versions is not None:
            return self._clone(page)
        return page

    def read_at(self, page_id: int, epoch: int, stats=None) -> Page:
        """The page's image as of commit ``epoch`` (versioned mode only).

        Serves retained copy-on-write versions for pages dirtied after
        the epoch, the live base otherwise.  Lock-free: on the rare race
        with a committing writer the version map's re-check protocol
        retries the scan.  Returned pages are read-only by contract.
        """
        versions = self._versions
        if versions is None:
            raise RuntimeError("read_at requires attach_versions()")
        for _ in range(3):
            image = versions.find(page_id, epoch)
            if image is not None:
                if stats is not None:
                    stats["cow.page_version_reads"] = (
                        stats.get("cow.page_version_reads", 0) + 1
                    )
                return image
            page = self._pages.get(page_id)
            if page is not None and versions.base_valid(page_id, epoch):
                return page
        raise KeyError(f"page {page_id} has no image at epoch {epoch}")

    def io_stats(self) -> Dict[str, int]:
        """Snapshot of the physical I/O counters; query traces diff two
        snapshots to attribute I/O to one query."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "allocations": self.allocations,
        }
