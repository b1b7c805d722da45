"""A reader-writer lock for the session protocol.

Snapshot *pins* take the shared side (many sessions may pin
concurrently); write transactions take the exclusive side, so a pin
never observes a half-applied mutation and a writer never runs while a
pin is being established.  Queries themselves take **no** lock at all —
they run against frozen index captures and copy-on-write page versions
(see :mod:`repro.concurrency.manager`), which is what lets N reader
threads proceed while a writer commits.

Neither side is re-entrant.  A thread takes the exclusive side once per
write transaction: the manager's nested scopes check
:meth:`RWLock.owned_by_me` and join the transaction they are already
in instead of locking again, and a pin refuses to run inside one.
Writers get mild preference: new readers queue behind a waiting
writer, so a steady stream of pins cannot starve commits.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = ["RWLock"]


class RWLock:
    """Shared/exclusive lock with the exclusive holder's identity."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: Optional[int] = None
        self._writers_waiting = 0

    def owned_by_me(self) -> bool:
        """Whether the calling thread holds the exclusive side."""
        return self._writer == threading.get_ident()

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            self._cond.wait_for(
                lambda: self._writer is None and self._writers_waiting == 0
            )
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                self._cond.wait_for(
                    lambda: self._writer is None and self._readers == 0
                )
            finally:
                self._writers_waiting -= 1
            self._writer = threading.get_ident()
        try:
            yield
        finally:
            with self._cond:
                self._writer = None
                self._cond.notify_all()
