"""The database's one writer lock: re-entrant, handed out in arrival order.

The paper's server ran every query through INGRES's serialised
transactions.  Here reads pin an MVCC snapshot and take no lock at
all, so the only contention left is writer against writer, and this
lock is all that orders them:

* **Arrival order** — waiters get the lock in the order they asked
  for it, so a thread committing back to back cannot starve another
  writer (a checkpoint's ``gc_versions``): it releases and asks again
  behind whoever is already waiting.
* **Re-entrant** — the holding thread may take it again (a write
  transaction's body may enter ``db.lock``).

``with lock:`` and ``with lock.exclusive():`` both take it.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import Iterator

__all__ = ["FairLock"]


class FairLock:
    """A re-entrant mutual-exclusion lock granted first come, first
    served."""

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._owner: int | None = None       # thread ident holding it
        self._depth = 0                      # re-entry depth
        self._waiting: deque[int] = deque()  # waiters, in arrival order

    def acquire_exclusive(self) -> None:
        """Take the lock (re-entrant per thread), after every thread
        that asked before."""
        me = threading.get_ident()
        with self._cond:
            if self._owner == me:
                self._depth += 1
                return
            waiting = self._waiting
            waiting.append(me)
            try:
                while self._owner is not None or waiting[0] != me:
                    self._cond.wait()
            except BaseException:
                # the waiter behind may be first now
                waiting.remove(me)
                self._cond.notify_all()
                raise
            waiting.popleft()
            self._owner = me
            self._depth = 1

    def release_exclusive(self) -> None:
        """Give back one hold."""
        me = threading.get_ident()
        with self._cond:
            if self._owner != me:
                raise RuntimeError(
                    "release_exclusive by a non-holding thread")
            self._depth -= 1
            if self._depth == 0:
                self._owner = None
                self._cond.notify_all()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """``with lock.exclusive():`` — the same as ``with lock:``."""
        self.acquire_exclusive()
        try:
            yield
        finally:
            self.release_exclusive()

    def __enter__(self) -> "FairLock":
        self.acquire_exclusive()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release_exclusive()

    @property
    def write_locked(self) -> bool:
        """Is the lock held? (tests, debugging)"""
        with self._cond:
            return self._owner is not None
