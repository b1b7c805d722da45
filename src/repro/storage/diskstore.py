"""A file-backed page store: the same interface as the in-memory
:class:`~repro.storage.page.PageStore`, persisted to a single file of
fixed-size binary pages — and, unlike the first cut, *crash-safe*.

Section 4's integration claim is that spatial data needs nothing
special from the storage layer — z values are integer keys, pages are
pages.  This module makes that concrete: the zkd B+-tree runs unchanged
on top of a real file, and a tree written by one process can be
reopened and queried by another.  But a real DBMS's storage layer also
survives crashes, so the store now provides:

* **per-page CRC32 checksums** — every page slot carries a checksum
  over its contents; a torn write, short read or flipped bit surfaces
  as :class:`ChecksumError` instead of silently corrupt records;
* **a write-ahead log with redo recovery** (:mod:`repro.storage.wal`)
  — in-place writes happen only after the images are committed to the
  log, and :meth:`recovery <FilePageStore.__init__>` on open replays
  committed images and discards torn tails;
* **atomic multi-page commit** — :meth:`transaction` groups the page
  writes of one tree mutation (a split touches several pages) into a
  single all-or-nothing unit;
* **failpoint sites** (:mod:`repro.faults`) on every write and read
  path, so the crash-matrix harness can kill the store at any point
  and prove the reopen invariant.

File layout
-----------
A fixed-size header page, then one checksummed slot per page id::

    header:  magic | page_size | page_capacity | flags | crc
             ... at offset 32: next_id | crc
    page:    crc | used flag | next_page (+1, 0 = none) | nrecords |
             nrecords x (key, payload) records | zero padding

The header's mutable part (``next_id``) is self-checksummed and
recoverable: if its crc fails, the value is reconstructed from the WAL
and the file length, so a torn header write cannot brick the store.

Records are encoded with a small self-describing codec covering the
payload types the library stores (ints, strings, bytes, tuples/lists,
None, bools, floats).  A page whose encoding exceeds ``page_size``
raises :class:`PageOverflowError` — the physical analogue of the
in-memory capacity check, which remains the primary bound.

The file is opened unbuffered: every write is a syscall, so a
simulated crash (:class:`~repro.faults.CrashPoint`) leaves exactly the
bytes a real ``kill -9`` would — no user-space buffer to lie about
what reached the OS.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from contextlib import contextmanager
from typing import Any, BinaryIO, Dict, Iterator, List, Optional, Tuple

from repro.faults import FaultInjector, register_site
from repro.obs.trace import add as _trace_add
from repro.storage.page import Page
from repro.storage.wal import WAL_FREE, WAL_HEADER, WAL_PAGE, WriteAheadLog

__all__ = [
    "PageOverflowError",
    "ChecksumError",
    "FilePageStore",
    "encode_value",
    "decode_value",
    "SITE_PAGE_WRITE",
    "SITE_PAGE_READ",
    "SITE_HEADER_WRITE",
    "SITE_FREE_WRITE",
    "SITE_CHECKPOINT",
]

_MAGIC = b"ZKD2"
# magic, page_size, capacity, flags | crc over the preceding 13 bytes.
_HEADER_FIXED = struct.Struct("<4sIIBI")
# next_id | crc over it; at _NEXT_ID_OFFSET inside the header page.
_HEADER_NEXT = struct.Struct("<II")
_NEXT_ID_OFFSET = 32
_PAGE_HEAD = struct.Struct("<BII")  # used, next_page + 1, nrecords
_PAGE_CRC = struct.Struct("<I")

_FLAG_CHECKSUMS = 1
_FLAG_WAL = 2

#: Failpoint sites on the store's write/read paths.  Registering them
#: here opts each into the crash-matrix sweep.
SITE_PAGE_WRITE = register_site("diskstore.page_write", "write")
SITE_PAGE_READ = register_site("diskstore.page_read", "read")
SITE_HEADER_WRITE = register_site("diskstore.header_write", "write")
SITE_FREE_WRITE = register_site("diskstore.free_write", "write")
SITE_CHECKPOINT = register_site("wal.checkpoint", "point")


class PageOverflowError(ValueError):
    """A page's encoded form does not fit in ``page_size`` bytes."""


class ChecksumError(IOError):
    """A page's stored checksum does not match its contents — the
    bytes on disk are torn or corrupt, and are *not* returned."""


# ----------------------------------------------------------------------
# Value codec: tag byte + payload.
# ----------------------------------------------------------------------

_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_BYTES = 6
_T_TUPLE = 7
_T_LIST = 8


def encode_value(value: Any, out: io.BytesIO) -> None:
    """Serialize one payload value (tag + body)."""
    if value is None:
        out.write(bytes([_T_NONE]))
    elif value is False:
        out.write(bytes([_T_FALSE]))
    elif value is True:
        out.write(bytes([_T_TRUE]))
    elif isinstance(value, int):
        body = value.to_bytes(
            (value.bit_length() + 8) // 8 or 1, "big", signed=True
        )
        out.write(bytes([_T_INT]))
        out.write(struct.pack("<I", len(body)))
        out.write(body)
    elif isinstance(value, float):
        out.write(bytes([_T_FLOAT]))
        out.write(struct.pack("<d", value))
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out.write(bytes([_T_STR]))
        out.write(struct.pack("<I", len(body)))
        out.write(body)
    elif isinstance(value, bytes):
        out.write(bytes([_T_BYTES]))
        out.write(struct.pack("<I", len(value)))
        out.write(value)
    elif isinstance(value, (tuple, list)):
        out.write(bytes([_T_TUPLE if isinstance(value, tuple) else _T_LIST]))
        out.write(struct.pack("<I", len(value)))
        for item in value:
            encode_value(item, out)
    else:
        raise TypeError(f"cannot persist value of type {type(value).__name__}")


def decode_value(data: io.BytesIO) -> Any:
    tag = data.read(1)[0]
    if tag == _T_NONE:
        return None
    if tag == _T_FALSE:
        return False
    if tag == _T_TRUE:
        return True
    if tag == _T_INT:
        (length,) = struct.unpack("<I", data.read(4))
        return int.from_bytes(data.read(length), "big", signed=True)
    if tag == _T_FLOAT:
        return struct.unpack("<d", data.read(8))[0]
    if tag == _T_STR:
        (length,) = struct.unpack("<I", data.read(4))
        return data.read(length).decode("utf-8")
    if tag == _T_BYTES:
        (length,) = struct.unpack("<I", data.read(4))
        return data.read(length)
    if tag in (_T_TUPLE, _T_LIST):
        (length,) = struct.unpack("<I", data.read(4))
        items = [decode_value(data) for _ in range(length)]
        return tuple(items) if tag == _T_TUPLE else items
    raise ValueError(f"corrupt page: unknown value tag {tag}")


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


class FilePageStore:
    """Drop-in replacement for :class:`PageStore` backed by a file.

    Implements the same protocol (``page_capacity``, ``allocate``,
    ``read``, ``write``, ``free``, ``peek``, ``page_ids``, ``reads``,
    ``writes``, ``allocations``, ``len``), so ``BPlusTree`` and
    ``ZkdTree`` run on it unchanged.  ``read`` always deserializes from
    the file (the BufferManager above it provides caching), so the
    read/write counters measure true file I/O.

    ``wal`` and ``checksums`` select the durability features for a
    *new* store (an existing file's own flags always win on reopen);
    ``faults`` attaches a :class:`~repro.faults.FaultInjector` to every
    failpoint site; ``fsync_on_commit`` upgrades commits from
    crash-consistent (safe against process death, the default) to
    power-loss durable.

    On open, if a write-ahead log is present its committed transactions
    are replayed (redo) and its torn tail discarded before the page
    directory is scanned; the outcome is published as ``recovery.*``
    trace counters and kept in :attr:`recovery_stats`.
    """

    def __init__(
        self,
        path: str,
        page_capacity: Optional[int] = None,
        page_size: int = 4096,
        wal: bool = True,
        checksums: bool = True,
        fsync_on_commit: bool = False,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.path = path
        self._faults = faults
        self._versions = None
        self.reads = 0
        self.writes = 0
        self.allocations = 0
        self.checksum_failures = 0
        self.recovery_stats: Dict[str, int] = {}
        self._txn_depth = 0
        self._txn_images: Dict[int, Optional[bytes]] = {}
        self._txn_snapshot: Optional[Tuple[int, Dict[int, bool]]] = None
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        self._file: BinaryIO = open(
            path, "r+b" if exists else "w+b", buffering=0
        )
        if exists:
            self._load_header()
            if page_capacity is not None and page_capacity != self.page_capacity:
                raise ValueError(
                    f"file has capacity {self.page_capacity}, "
                    f"requested {page_capacity}"
                )
        else:
            if page_capacity is None:
                raise ValueError("a new store needs a page_capacity")
            if page_capacity < 2:
                raise ValueError("page capacity must be at least 2")
            if page_size < 96:
                raise ValueError("page size must be at least 96 bytes")
            self.page_capacity = page_capacity
            self.page_size = page_size
            self.checksums = checksums
            self._use_wal = wal
            self._next_id = 0
            self._live: Dict[int, bool] = {}
            self._wal = self._open_wal(fsync_on_commit)
            self._flush_header()
            return
        self._wal = self._open_wal(fsync_on_commit)
        self._recover()
        # Discover live pages.
        self._live = {}
        for page_id in range(self._next_id):
            head = self._read_raw_head(page_id)
            if head is not None and head[0]:
                self._live[page_id] = True

    @property
    def wal_path(self) -> str:
        return self.path + ".wal"

    @property
    def faults(self) -> Optional[FaultInjector]:
        return self._faults

    def _open_wal(self, fsync_on_commit: bool) -> Optional[WriteAheadLog]:
        if not self._use_wal:
            return None
        return WriteAheadLog(
            self.wal_path,
            fsync_on_commit=fsync_on_commit,
            faults=self._faults,
        )

    # -- header ----------------------------------------------------------

    def _flags(self) -> int:
        return (_FLAG_CHECKSUMS if self.checksums else 0) | (
            _FLAG_WAL if self._use_wal else 0
        )

    def _flush_header(self) -> None:
        fixed = _HEADER_FIXED.pack(
            _MAGIC,
            self.page_size,
            self.page_capacity,
            self._flags(),
            zlib.crc32(
                struct.pack(
                    "<4sIIB",
                    _MAGIC,
                    self.page_size,
                    self.page_capacity,
                    self._flags(),
                )
            ),
        )
        self._file.seek(0)
        self._file.write(fixed)
        self._write_next_id()

    def _write_next_id(self) -> None:
        data = _HEADER_NEXT.pack(
            self._next_id, zlib.crc32(struct.pack("<I", self._next_id))
        )

        def write(buf: bytes) -> None:
            self._file.seek(_NEXT_ID_OFFSET)
            self._file.write(buf)

        if self._faults is None:
            write(data)
        else:
            self._faults.do_write(
                SITE_HEADER_WRITE, write, data, next_id=self._next_id
            )

    def _load_header(self) -> None:
        self._file.seek(0)
        raw = self._file.read(_HEADER_FIXED.size)
        if len(raw) < _HEADER_FIXED.size:
            raise ValueError(f"{self.path}: truncated header")
        magic, page_size, capacity, flags, crc = _HEADER_FIXED.unpack(raw)
        if magic != _MAGIC:
            raise ValueError(f"{self.path}: not a zkd page file")
        if crc != zlib.crc32(raw[: _HEADER_FIXED.size - 4]):
            raise ChecksumError(f"{self.path}: header checksum mismatch")
        self.page_size = page_size
        self.page_capacity = capacity
        self.checksums = bool(flags & _FLAG_CHECKSUMS)
        self._use_wal = bool(flags & _FLAG_WAL)
        self._next_id = self._load_next_id()

    def _load_next_id(self) -> int:
        """The mutable header field, or ``-1`` when torn (recovery
        reconstructs it from the WAL and the file length)."""
        self._file.seek(_NEXT_ID_OFFSET)
        raw = self._file.read(_HEADER_NEXT.size)
        if len(raw) < _HEADER_NEXT.size:
            return -1
        next_id, crc = _HEADER_NEXT.unpack(raw)
        if crc != zlib.crc32(struct.pack("<I", next_id)):
            return -1
        return next_id

    def _offset(self, page_id: int) -> int:
        return self.page_size + page_id * self.page_size

    def _read_raw_head(self, page_id: int) -> Optional[Tuple[int, int, int]]:
        raw = os.pread(
            self._file.fileno(),
            _PAGE_HEAD.size,
            self._offset(page_id) + _PAGE_CRC.size,
        )
        if len(raw) < _PAGE_HEAD.size:
            return None
        return _PAGE_HEAD.unpack(raw)

    # -- recovery --------------------------------------------------------

    def _derived_next_id(self) -> int:
        """Upper bound on allocated pages from the file length alone
        (slots are only ever written for allocated ids)."""
        size = os.path.getsize(self.path)
        if size <= self.page_size:
            return 0
        return -(-(size - self.page_size) // self.page_size)

    def _recover(self) -> None:
        """Redo recovery: replay the WAL's committed transactions onto
        the main file, reconstruct ``next_id``, reset the log."""
        stats: Dict[str, int] = {}
        wal_next_id = -1
        if self._wal is not None:
            for txn in self._wal.replay(stats):
                for kind, page_id, payload in txn:
                    if kind == WAL_PAGE:
                        self._write_slot(page_id, payload)
                        stats["pages_redone"] = (
                            stats.get("pages_redone", 0) + 1
                        )
                    elif kind == WAL_FREE:
                        self._write_slot(page_id, self._free_slot_image())
                        stats["frees_redone"] = (
                            stats.get("frees_redone", 0) + 1
                        )
                    elif kind == WAL_HEADER:
                        (wal_next_id,) = struct.unpack("<I", payload)
        recovered = max(self._next_id, wal_next_id, self._derived_next_id())
        if recovered != self._next_id:
            stats["next_id_recovered"] = 1
        self._next_id = max(recovered, 0)
        if stats.get("txns_committed") or stats.get("next_id_recovered"):
            self._write_next_id()
        if self._wal is not None and (
            stats.get("records_scanned") or stats.get("records_discarded")
        ):
            self._wal.reset()
        if stats:
            self.recovery_stats = stats
            for key, n in stats.items():
                _trace_add(f"recovery.{key}", n)

    # -- PageStore protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self._live)

    def page_ids(self) -> List[int]:
        return sorted(self._live)

    def allocate(self) -> Page:
        if self._wal is not None and self._txn_depth == 0:
            # Autocommit: a lone allocation is its own transaction.
            with self.transaction():
                return self.allocate()
        page = Page(page_id=self._next_id, capacity=self.page_capacity)
        self._next_id += 1
        self.allocations += 1
        self._live[page.page_id] = True
        if self._versions is not None:
            self._versions.note_birth(page.page_id)
        if self._wal is None:
            self._write_slot(
                page.page_id, self._encode_page(page), SITE_PAGE_WRITE
            )
            self._write_next_id()
        else:
            self._txn_images[page.page_id] = self._encode_page(page)
        return page

    def _encode_page(self, page: Page) -> bytes:
        body = io.BytesIO()
        for key, payload in page.records:
            body.write(struct.pack("<Q", key))
            encode_value(payload, body)
        encoded = body.getvalue()
        head = _PAGE_HEAD.pack(
            1,
            0 if page.next_page is None else page.next_page + 1,
            page.nrecords,
        )
        total = _PAGE_CRC.size + len(head) + len(encoded)
        if total > self.page_size:
            raise PageOverflowError(
                f"page {page.page_id} needs {total} bytes, "
                f"page size is {self.page_size}"
            )
        payload_bytes = (
            head
            + encoded
            + b"\x00" * (self.page_size - total)
        )
        crc = zlib.crc32(payload_bytes) if self.checksums else 0
        return _PAGE_CRC.pack(crc) + payload_bytes

    def _free_slot_image(self) -> bytes:
        payload = _PAGE_HEAD.pack(0, 0, 0) + b"\x00" * (
            self.page_size - _PAGE_CRC.size - _PAGE_HEAD.size
        )
        crc = zlib.crc32(payload) if self.checksums else 0
        return _PAGE_CRC.pack(crc) + payload

    def _write_slot(
        self, page_id: int, data: bytes, site: str = SITE_PAGE_WRITE
    ) -> None:
        offset = self._offset(page_id)

        def write(buf: bytes) -> None:
            self._file.seek(offset)
            self._file.write(buf)

        if self._faults is None:
            write(data)
        else:
            self._faults.do_write(site, write, data, page=page_id)

    def read(self, page_id: int) -> Page:
        if page_id not in self._live:
            raise KeyError(f"no such page: {page_id}")
        self.reads += 1
        return self._read_page(page_id)

    def _read_slot_raw(self, page_id: int) -> bytes:
        """One verified slot read from the file, via ``pread`` so
        concurrent readers never race each other (or a committing
        writer) on the shared file offset."""
        raw = os.pread(
            self._file.fileno(), self.page_size, self._offset(page_id)
        )
        if self._faults is not None:
            raw = self._faults.filter_read(SITE_PAGE_READ, raw, page=page_id)
        if len(raw) < self.page_size:
            self._checksum_failure(
                f"page {page_id}: short read "
                f"({len(raw)}/{self.page_size} bytes)"
            )
        if self.checksums:
            (crc,) = _PAGE_CRC.unpack(raw[: _PAGE_CRC.size])
            if crc != zlib.crc32(raw[_PAGE_CRC.size :]):
                self._checksum_failure(f"page {page_id}: checksum mismatch")
        return raw

    def _read_page(self, page_id: int) -> Page:
        image = self._txn_images.get(page_id)
        if image is not None:
            raw = image
        else:
            if page_id in self._txn_images:  # freed inside the txn
                raise KeyError(f"page {page_id} is free")
            raw = self._read_slot_raw(page_id)
        return self._decode_slot(page_id, raw)

    def _decode_slot(self, page_id: int, raw: bytes) -> Page:
        used, next_plus_one, nrecords = _PAGE_HEAD.unpack(
            raw[_PAGE_CRC.size : _PAGE_CRC.size + _PAGE_HEAD.size]
        )
        if not used:
            raise KeyError(f"page {page_id} is free")
        data = io.BytesIO(raw[_PAGE_CRC.size + _PAGE_HEAD.size :])
        records = []
        for _ in range(nrecords):
            (key,) = struct.unpack("<Q", data.read(8))
            records.append((key, decode_value(data)))
        return Page(
            page_id=page_id,
            capacity=self.page_capacity,
            records=records,
            next_page=None if next_plus_one == 0 else next_plus_one - 1,
        )

    def _checksum_failure(self, message: str) -> None:
        self.checksum_failures += 1
        _trace_add("fault.checksum")
        raise ChecksumError(f"{self.path}: {message}")

    def write(self, page: Page) -> None:
        if page.page_id not in self._live:
            raise KeyError(f"no such page: {page.page_id}")
        if self._wal is not None and self._txn_depth == 0:
            with self.transaction():
                self.write(page)
            return
        self.writes += 1
        if self._wal is None:
            self._write_slot(
                page.page_id, self._encode_page(page), SITE_PAGE_WRITE
            )
        else:
            self._txn_images[page.page_id] = self._encode_page(page)

    def free(self, page_id: int) -> None:
        if page_id not in self._live:
            raise KeyError(f"no such page: {page_id}")
        if self._wal is not None and self._txn_depth == 0:
            with self.transaction():
                self.free(page_id)
            return
        del self._live[page_id]
        if self._wal is None:
            self._write_slot(
                page_id, self._free_slot_image(), SITE_FREE_WRITE
            )
        else:
            self._txn_images[page_id] = None

    def peek(self, page_id: int) -> Page:
        if page_id not in self._live:
            raise KeyError(f"no such page: {page_id}")
        return self._read_page(page_id)

    # -- snapshots (copy-on-write page versions) -------------------------

    def attach_versions(self, versions) -> None:
        """Enable snapshot reads: retained committed pre-images go into
        ``versions`` (a :class:`~repro.concurrency.versions.
        PageVersionMap`) at commit time, and :meth:`read_at` serves
        them.  Requires the WAL — a snapshot boundary is only
        well-defined at a transaction boundary."""
        if self._wal is None:
            raise ValueError(
                "snapshot versioning needs a WAL-enabled store (wal=True)"
            )
        self._versions = versions

    def _preimage_loader(self, page_id: int):
        def load() -> Optional[bytes]:
            try:
                return self._read_slot_raw(page_id)
            except (ChecksumError, OSError):  # pragma: no cover - defensive
                return None

        return load

    def read_at(self, page_id: int, epoch: int, stats=None) -> Page:
        """The committed image of ``page_id`` as of commit ``epoch``.

        Bypasses the transaction overlay (uncommitted writes are
        invisible to snapshots) and serves retained pre-image bytes for
        pages rewritten after the epoch.  Lock-free against committing
        writers: retention (and the birth bump) for every page of a
        transaction completes before any slot is rewritten in place, so
        a reader that passes the post-read validity check saw a clean
        committed slot, and one that fails it finds the retained chain
        entry on rescan.
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
                return self._decode_slot(page_id, image)
            raw = self._read_slot_raw(page_id)
            if versions.base_valid(page_id, epoch):
                return self._decode_slot(page_id, raw)
        raise KeyError(f"page {page_id} has no image at epoch {epoch}")

    def verify(self) -> int:
        """Read every live page (checksums verified when enabled);
        returns the number of pages scanned, raises
        :class:`ChecksumError` on the first corrupt one."""
        count = 0
        for page_id in self.page_ids():
            self._read_page(page_id)
            count += 1
        return count

    def io_stats(self) -> Dict[str, int]:
        """Snapshot of the file I/O counters (same shape as the
        in-memory :meth:`PageStore.io_stats`), so query traces measure
        true file reads when a tree runs on a real file."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "allocations": self.allocations,
        }

    # -- transactions ----------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator["FilePageStore"]:
        """Atomic multi-page unit: every ``write``/``allocate``/``free``
        inside the block is buffered, logged, committed, and only then
        applied in place.  Reentrant — only the outermost block commits.

        On an exception the transaction is rolled back (images dropped,
        allocation state restored); after a :class:`~repro.faults.
        CrashPoint` the store object must be abandoned and the path
        reopened, exactly as after a real crash.
        """
        self._begin()
        try:
            yield self
        except BaseException:
            self._rollback()
            raise
        else:
            self._txn_depth -= 1
            if self._txn_depth == 0:
                self._commit_txn()

    def _begin(self) -> None:
        if self._wal is None:
            raise ValueError(
                "transactions need a WAL-enabled store (wal=True)"
            )
        if self._txn_depth == 0:
            self._txn_snapshot = (self._next_id, dict(self._live))
        self._txn_depth += 1

    def _rollback(self) -> None:
        """Discard the open transaction (best effort: in-memory state
        reverts; any uncommitted WAL tail is truncated)."""
        if self._txn_depth == 0:
            return
        self._txn_depth = 0
        self._txn_images.clear()
        if self._txn_snapshot is not None:
            self._next_id, self._live = self._txn_snapshot
            self._txn_snapshot = None

    def _commit_txn(self) -> None:
        images = self._txn_images
        if not images:
            self._txn_snapshot = None
            return
        assert self._wal is not None
        mark = self._wal.tell()
        try:
            self._wal.begin()
            for page_id in sorted(images):
                image = images[page_id]
                if image is None:
                    self._wal.append_free(page_id)
                else:
                    self._wal.append_page(page_id, image)
            self._wal.append_header(self._next_id)
            self._wal.commit()
        except BaseException:
            # Commit never happened: drop the partial log records and
            # restore the pre-transaction allocation state.
            self._txn_images = {}
            if self._txn_snapshot is not None:
                self._next_id, self._live = self._txn_snapshot
                self._txn_snapshot = None
            try:
                self._wal.truncate_to(mark)
            except OSError:  # pragma: no cover - best effort
                pass
            raise
        self._txn_snapshot = None
        # Retain copy-on-write pre-images for pinned snapshots *before*
        # any slot is rewritten in place: each retirement also bumps the
        # page's birth epoch, so by the time the apply loop below can
        # tear a concurrent ``read_at``, that reader is already routed
        # to the retained chain entry.  Pre-images are the committed
        # slot bytes still on disk (the overlay holds only new images).
        if self._versions is not None:
            for page_id in sorted(images):
                loader = self._preimage_loader(page_id)
                if images[page_id] is None:
                    self._versions.on_free(page_id, loader)
                else:
                    self._versions.on_write(page_id, loader)
        # The transaction is durable; apply in place (checkpoint).  A
        # crash below is repaired by redo replay on the next open, so
        # the overlay must stay readable until every image is applied.
        if self._faults is not None:
            self._faults.hit(SITE_CHECKPOINT)
        for page_id in sorted(images):
            image = images[page_id]
            if image is None:
                self._write_slot(
                    page_id, self._free_slot_image(), SITE_FREE_WRITE
                )
            else:
                self._write_slot(page_id, image, SITE_PAGE_WRITE)
        self._write_next_id()
        self._txn_images = {}
        self._wal.reset()

    @property
    def in_transaction(self) -> bool:
        return self._txn_depth > 0

    @property
    def supports_transactions(self) -> bool:
        """Whether :meth:`transaction` is usable (a WAL is attached).
        :class:`~repro.storage.prefix_btree.ZkdTree` keys its mutation
        wrapping off this."""
        return self._wal is not None

    # -- lifecycle ---------------------------------------------------------

    def simulate_crash(self) -> None:
        """Abandon the store the way ``kill -9`` would: drop the raw
        handles with *no* header flush, fsync, or rollback.  The files
        keep exactly the bytes already written (they are unbuffered);
        reopening the path runs real recovery.  The crash-matrix
        harness calls this after every injected :class:`~repro.faults.
        CrashPoint` so the clean-close path cannot mask a durability
        bug.
        """
        if not self._file.closed:
            self._file.close()
        if self._wal is not None:
            self._wal.close()

    def sync(self) -> None:
        """Flush to the OS and ask for durability."""
        self._flush_header()
        os.fsync(self._file.fileno())
        if self._wal is not None:
            self._wal.sync()

    def close(self) -> None:
        """Flush the header, fsync, and release the handles.  An open
        transaction is rolled back (it never committed)."""
        if self._file.closed:
            return
        if self._txn_depth > 0:
            self._rollback()
        self._flush_header()
        os.fsync(self._file.fileno())
        self._file.close()
        if self._wal is not None:
            self._wal.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        # Destructors run during interpreter shutdown where module
        # globals (os, struct) may already be gone; never let that
        # escape as an exception.
        try:
            self.close()
        except BaseException:
            pass

    def __enter__(self) -> "FilePageStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
