"""Snapshot-isolated concurrent sessions.

The concurrency layer gives each client session a consistent snapshot
of the whole database — relations and spatial indexes together — while
writers keep group-committing underneath:

* :class:`~repro.concurrency.manager.SnapshotManager` — commit epochs,
  snapshot pins, the exclusive write transaction, and epoch-based
  reclamation of superseded page versions.
* :class:`~repro.concurrency.versions.PageVersionMap` — copy-on-write
  page version chains per store, retained only while a pin needs them.
* :class:`~repro.concurrency.view.SnapshotTreeView` — lock-free
  historical queries over one frozen index graph, built per read.
* :class:`~repro.concurrency.session.Session` — the user-facing handle:
  ``with db.session() as s: ...``; :meth:`~repro.concurrency.session.
  Session.fork` gives one read its own pin on the same epoch.
"""

from repro.concurrency.manager import SnapshotManager, TxnHandle
from repro.concurrency.rwlock import RWLock
from repro.concurrency.session import Session
from repro.concurrency.versions import PageVersionMap
from repro.concurrency.view import FrozenIndex, SnapshotTreeView

__all__ = [
    "SnapshotManager",
    "TxnHandle",
    "RWLock",
    "Session",
    "PageVersionMap",
    "FrozenIndex",
    "SnapshotTreeView",
]
