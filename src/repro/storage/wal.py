"""A write-ahead log with redo recovery for :class:`~repro.storage.
diskstore.FilePageStore`.

ARIES reduced to what a page store with full-page images needs:

* **redo-only, physical logging** — every transaction appends the
  complete after-image of each page it touches (plus the header's
  ``next_id``), then a COMMIT record; there is no undo, because pages
  are never written in place until *after* the commit record is on
  disk;
* **checkpoint-on-commit** — right after commit the images are applied
  in place and the log is reset, so the log stays one transaction
  long; a crash anywhere in that window is repaired by replaying the
  committed images (replay is idempotent: images are absolute);
* **torn-tail tolerance** — every record carries a CRC32 over its
  header and payload; replay stops at the first short or corrupt
  record, which discards exactly the uncommitted tail a crash can
  leave behind.

Record framing (little-endian)::

    file:    magic "ZWAL1\\x00\\x00\\x00" | record*
    record:  kind u8 | page_id u32 | length u32 | crc u32 | payload

``crc`` covers ``kind | page_id | length | payload``.  Kinds: BEGIN
(resets the pending set, so an aborted transaction's records cannot
leak into the next commit even if truncation failed), PAGE (payload =
encoded page slot), FREE, HEADER (payload = ``next_id`` u32), COMMIT.

The file is opened unbuffered so that in crash *simulations* (a
:class:`~repro.faults.CrashPoint` raised mid-operation) every byte
"written" before the crash is genuinely visible to a fresh handle —
user-space write buffering would make the simulation dishonest.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import BinaryIO, Dict, Iterator, List, Optional, Tuple

from repro.faults import FaultInjector, register_site

__all__ = [
    "WriteAheadLog",
    "WalRecord",
    "WAL_BEGIN",
    "WAL_PAGE",
    "WAL_FREE",
    "WAL_HEADER",
    "WAL_COMMIT",
    "SITE_WAL_APPEND",
    "SITE_WAL_COMMIT",
]

_WAL_MAGIC = b"ZWAL1\x00\x00\x00"
_RECORD_HEAD = struct.Struct("<BIII")  # kind, page_id, length, crc

WAL_BEGIN = 0
WAL_PAGE = 1
WAL_FREE = 2
WAL_HEADER = 3
WAL_COMMIT = 4

#: Failpoint sites: every log append, and the instant before the
#: commit record (the classic "crash after force, before apply").
SITE_WAL_APPEND = register_site("wal.append", "write")
SITE_WAL_COMMIT = register_site("wal.commit", "point")

#: One replayed operation: ``(kind, page_id, payload)``.
WalRecord = Tuple[int, int, bytes]


class WriteAheadLog:
    """Append/replay/reset over one log file."""

    def __init__(
        self,
        path: str,
        fsync_on_commit: bool = False,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.path = path
        self.fsync_on_commit = fsync_on_commit
        self._faults = faults
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        self._file: BinaryIO = open(
            path, "r+b" if exists else "w+b", buffering=0
        )
        if not exists:
            self._file.write(_WAL_MAGIC)

    # -- appending -----------------------------------------------------

    def _append(self, kind: int, page_id: int, payload: bytes) -> None:
        head = _RECORD_HEAD.pack(
            kind,
            page_id,
            len(payload),
            zlib.crc32(
                struct.pack("<BII", kind, page_id, len(payload)) + payload
            ),
        )
        record = head + payload
        self._file.seek(0, os.SEEK_END)
        if self._faults is None:
            self._file.write(record)
        else:
            self._faults.do_write(
                SITE_WAL_APPEND,
                self._file.write,
                record,
                kind=kind,
                page=page_id,
            )

    def begin(self) -> None:
        self._append(WAL_BEGIN, 0, b"")

    def append_page(self, page_id: int, image: bytes) -> None:
        self._append(WAL_PAGE, page_id, image)

    def append_free(self, page_id: int) -> None:
        self._append(WAL_FREE, page_id, b"")

    def append_header(self, next_id: int) -> None:
        self._append(WAL_HEADER, 0, struct.pack("<I", next_id))

    def commit(self) -> None:
        """Force the transaction: commit record, then (optionally)
        fsync.  Once this returns, the transaction is durable."""
        if self._faults is not None:
            self._faults.hit(SITE_WAL_COMMIT)
        self._append(WAL_COMMIT, 0, b"")
        if self.fsync_on_commit:
            os.fsync(self._file.fileno())

    # -- recovery ------------------------------------------------------

    def replay(
        self, stats: Optional[Dict[str, int]] = None
    ) -> Iterator[List[WalRecord]]:
        """Yield the operations of each *committed* transaction, in
        commit order; the uncommitted (or torn) tail is discarded.

        ``stats`` (optional, mutated in place) accumulates
        ``records_scanned`` / ``txns_committed`` / ``records_discarded``.
        """
        self._file.seek(0)
        magic = self._file.read(len(_WAL_MAGIC))
        if magic != _WAL_MAGIC:
            return
        pending: List[WalRecord] = []
        while True:
            head = self._file.read(_RECORD_HEAD.size)
            if len(head) < _RECORD_HEAD.size:
                break
            kind, page_id, length, crc = _RECORD_HEAD.unpack(head)
            payload = self._file.read(length)
            if len(payload) < length:
                break
            expect = zlib.crc32(
                struct.pack("<BII", kind, page_id, length) + payload
            )
            if crc != expect:
                break
            if stats is not None:
                stats["records_scanned"] = stats.get("records_scanned", 0) + 1
            if kind == WAL_BEGIN:
                pending = []
            elif kind == WAL_COMMIT:
                if stats is not None:
                    stats["txns_committed"] = (
                        stats.get("txns_committed", 0) + 1
                    )
                yield pending
                pending = []
            else:
                pending.append((kind, page_id, payload))
        if pending and stats is not None:
            stats["records_discarded"] = (
                stats.get("records_discarded", 0) + len(pending)
            )

    # -- maintenance ---------------------------------------------------

    def tell(self) -> int:
        self._file.seek(0, os.SEEK_END)
        return self._file.tell()

    def truncate_to(self, offset: int) -> None:
        """Drop everything after ``offset`` (abort path: discard the
        records of a transaction that will never commit)."""
        self._file.truncate(max(offset, len(_WAL_MAGIC)))

    def reset(self) -> None:
        """Checkpoint: the images are in place, the log is spent."""
        self._file.truncate(len(_WAL_MAGIC))

    def sync(self) -> None:
        os.fsync(self._file.fileno())

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __repr__(self) -> str:
        return f"WriteAheadLog({self.path!r})"
