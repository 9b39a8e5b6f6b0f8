"""A writer-preferring reader–writer lock for the database engine.

The paper's server ran every query through INGRES's serialised
transactions; the in-memory engine reproduced that with one coarse
re-entrant mutex, which made a fleet of read-only clients strictly
sequential.  This lock keeps the mutation invariants (journal ordering,
DCM data-version bumps happen under exclusive mode, exactly as before)
while letting queries declared ``side_effects=False`` run concurrently
in shared mode.

Semantics:

* **Writer-preferring** — once a writer is waiting, new readers queue
  behind it, so a read-heavy workload cannot starve mutations.
* **Writers in arrival order** — exclusive waiters get the lock in the
  order they asked for it, so a thread committing back to back cannot
  starve another writer (a checkpoint's ``gc_versions``): it releases
  and asks again behind whoever is already waiting.
* **Re-entrant exclusive** — a thread holding exclusive mode may
  re-acquire it (a write transaction's body may enter ``db.lock``),
  and may also take shared mode as a no-op, so helper code that
  only reads works from either side.
* **Re-entrant shared** — a reader may re-acquire shared mode even
  while a writer waits (blocking there would deadlock the reader
  against the writer it blocks).
* **No upgrades** — acquiring exclusive while holding only shared mode
  raises ``RuntimeError``: two upgraders would deadlock, and no caller
  in this codebase legitimately needs it (mutating paths take exclusive
  mode from the start).

``with lock:`` takes exclusive mode, so existing ``with db.lock:``
call sites keep their old serialising behaviour unchanged.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import Iterator

__all__ = ["RWLock"]


class RWLock:
    """Shared/exclusive lock; ``with lock:`` is exclusive mode."""

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers: dict[int, int] = {}   # thread ident -> hold count
        self._writer: int | None = None      # thread ident holding exclusive
        self._writer_count = 0               # exclusive re-entry depth
        self._waiting: deque[int] = deque()  # exclusive waiters, in order

    # -- shared (reader) mode -----------------------------------------------

    def acquire_shared(self) -> None:
        """Take the lock in shared mode (blocks while a writer holds or
        waits, except for re-entrant acquisitions)."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me or me in self._readers:
                # re-entry (including shared-under-exclusive): never wait
                self._readers[me] = self._readers.get(me, 0) + 1
                return
            while self._writer is not None or self._waiting:
                self._cond.wait()
            self._readers[me] = 1

    def release_shared(self) -> None:
        """Give back one shared hold."""
        me = threading.get_ident()
        with self._cond:
            count = self._readers.get(me, 0)
            if count <= 0:
                raise RuntimeError("release_shared without acquire_shared")
            if count == 1:
                del self._readers[me]
            else:
                self._readers[me] = count - 1
            if not self._readers:
                self._cond.notify_all()

    # -- exclusive (writer) mode --------------------------------------------

    def acquire_exclusive(self) -> None:
        """Take the lock in exclusive mode (re-entrant per thread),
        after every writer that asked before."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_count += 1
                return
            if me in self._readers:
                raise RuntimeError(
                    "cannot upgrade a shared hold to exclusive")
            waiting = self._waiting
            waiting.append(me)
            try:
                while (self._writer is not None or self._readers
                       or waiting[0] != me):
                    self._cond.wait()
            except BaseException:
                # the writer behind may be first now
                waiting.remove(me)
                self._cond.notify_all()
                raise
            waiting.popleft()
            self._writer = me
            self._writer_count = 1

    def release_exclusive(self) -> None:
        """Give back one exclusive hold."""
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise RuntimeError(
                    "release_exclusive by a non-holding thread")
            self._writer_count -= 1
            if self._writer_count == 0:
                self._writer = None
                self._cond.notify_all()

    # -- context managers -----------------------------------------------------

    @contextmanager
    def shared(self) -> Iterator[None]:
        """``with lock.shared():`` — reader critical section."""
        self.acquire_shared()
        try:
            yield
        finally:
            self.release_shared()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """``with lock.exclusive():`` — writer critical section."""
        self.acquire_exclusive()
        try:
            yield
        finally:
            self.release_exclusive()

    # ``with lock:`` == exclusive, preserving the coarse-RLock contract
    # for call sites that predate shared mode.

    def __enter__(self) -> "RWLock":
        self.acquire_exclusive()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release_exclusive()

    # -- introspection (tests, debugging) -------------------------------------

    @property
    def readers(self) -> int:
        """Number of threads currently holding shared mode."""
        with self._cond:
            return len(self._readers)

    @property
    def write_locked(self) -> bool:
        """Is exclusive mode currently held?"""
        with self._cond:
            return self._writer is not None
