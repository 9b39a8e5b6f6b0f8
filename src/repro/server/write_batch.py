"""Group-committed write batching over sharded writer locks.

The seed server ran every mutation alone: take the exclusive lock, run
the handler, append + fsync the journal, release.  Two independent
costs dominate that path at scale — the fsync (milliseconds of real
I/O per write) and the serialisation of writes that touch disjoint
relations.  This module harvests both:

* **Lanes.**  Each write is mapped onto the writer *shards* its query
  footprint touches (``Query.tables`` → ``shards_for``); writes with
  the same shard set share a lane.  Lanes over disjoint shards run
  concurrently — a registration storm on the users shard no longer
  waits behind quota traffic.  An undeclared footprint falls back to
  the every-shard lane, which is exactly the seed's full exclusion —
  and an un-sharded backend has only that lane.

* **Group commit.**  The first writer into an idle lane becomes the
  *leader*: it drains up to ``window`` queued writes, takes the lane's
  shard locks **once**, runs each write through
  :func:`~repro.queries.base.run_write` as its own backend transaction
  (own commit seq, own journal entry, own undo log), then issues **one**
  ``journal.sync()`` for the whole batch.  Followers just wait on an
  event.  The leader keeps draining (conveyor) until the lane queue is
  empty, so under load the lock acquisition and fsync costs amortise
  across the window.

* **Error isolation.**  A write that raises :class:`MoiraError` (or any
  ``Exception``) aborts only its own transaction — the engine rolls its
  versions back and journals an ``_aborted`` marker when it consumed
  id/string bindings — and the error is re-raised on the submitting
  thread.  Its neighbours in the window commit normally, in their own
  seq order.  A ``BaseException`` (injected crash, torn write) is a
  process-death simulation: it fails the remaining queued writes and
  propagates.

Deadlock discipline: shard locks are always taken in sorted-name
order (here and in the engine's facade), commit seqs are allocated
only *after* a transaction holds every lock it will ever take, and the
in-order publication gate therefore always drains.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Optional, Sequence

from repro.errors import MoiraError
from repro.queries.base import run_write

__all__ = ["WriteBatcher", "shards_for"]


def shards_for(db, query, args) -> Optional[frozenset]:
    """The writer shards a query's declared footprint maps onto.

    Resolves the footprint (``Query.tables``) and asks the backend
    (:meth:`~repro.db.backend.StorageBackend.shards_for`).  None means
    full exclusion: the footprint is undeclared or unresolvable, or
    the backend says so.
    """
    tables = query.tables
    if callable(tables):
        try:
            tables = tables(args)
        except Exception:
            return None
    if tables is None:
        return None
    return db.shards_for(tables)


class _WriteItem:
    """One queued mutation and its eventual outcome."""

    __slots__ = ("ctx", "query", "query_args", "submitted", "started",
                 "result", "mutated", "error", "done")

    def __init__(self, ctx, query, query_args):
        self.ctx = ctx
        self.query = query
        self.query_args = query_args
        self.submitted = time.perf_counter()
        self.started: Optional[float] = None
        self.result: Optional[list] = None
        self.mutated: set = set()
        self.error: Optional[BaseException] = None
        self.done = threading.Event()


class _Lane:
    """One shard set's queue + leader flag."""

    __slots__ = ("key", "mutex", "queue", "leader")

    def __init__(self, key):
        self.key = key
        self.mutex = threading.Lock()
        self.queue: deque = deque()
        self.leader = False


class WriteBatcher:
    """Leader/follower group commit, one lane per shard set.

    *metrics*, when given, receives per-shard lock-wait observations
    (``record_shard_wait``) and feeds the occupancy counters surfaced
    by the ``_wal_stats`` pseudo-query.
    """

    def __init__(self, db, *, window: int = 8, metrics=None):
        self.db = db
        self.window = max(1, int(window))
        self.metrics = metrics
        self._all_shards = frozenset(db.shards or ())
        self._lanes: dict = {}
        self._lanes_mutex = threading.Lock()
        # occupancy accounting for _wal_stats
        self._stats_lock = threading.Lock()
        self._batches = 0
        self._batched_writes = 0
        self._max_batch = 0

    # -- public API -----------------------------------------------------------

    def submit(self, ctx, query, query_args,
               timing=None) -> tuple[list, set]:
        """Queue one write and block until it commits or fails.

        Returns ``(result_tuples, mutated_table_names)``; re-raises the
        write's own error.
        """
        item = _WriteItem(ctx, query, query_args)
        # no footprint, a system-only one, or an un-sharded backend:
        # the every-shard lane
        lane = self._lane(shards_for(ctx.db, query, query_args)
                          or self._all_shards)
        with lane.mutex:
            lane.queue.append(item)
            lead = not lane.leader
            if lead:
                lane.leader = True
        if lead:
            self._lead(lane)
        else:
            item.done.wait()
        if timing is not None and item.started is not None:
            timing["lock_wait_s"] = item.started - item.submitted
        if item.error is not None:
            raise item.error
        return item.result if item.result is not None else [], item.mutated

    def occupancy(self) -> dict:
        """Batch-window counters for ``_wal_stats``."""
        with self._stats_lock:
            batches = self._batches
            writes = self._batched_writes
            return {
                "batches": batches,
                "batched_writes": writes,
                "mean_batch_size": (writes / batches) if batches else 0.0,
                "max_batch_size": self._max_batch,
                "window": self.window,
                "lanes": len(self._lanes),
            }

    # -- leader protocol ------------------------------------------------------

    def _lane(self, key) -> _Lane:
        with self._lanes_mutex:
            lane = self._lanes.get(key)
            if lane is None:
                lane = self._lanes[key] = _Lane(key)
            return lane

    def _lead(self, lane: _Lane) -> None:
        """Drain the lane in windows until its queue is empty."""
        while True:
            with lane.mutex:
                batch = []
                while lane.queue and len(batch) < self.window:
                    batch.append(lane.queue.popleft())
                if not batch:
                    lane.leader = False
                    return
            try:
                self._run_batch(lane, batch)
            except BaseException as exc:
                # injected crash / torn write: the "process" died
                # mid-batch — every write still queued behind this
                # leader dies with it (their submitting threads must
                # not wait on a leader that no longer exists), then
                # release leadership so a post-recovery submit can
                # still make progress, and propagate
                with lane.mutex:
                    dead = list(lane.queue)
                    lane.queue.clear()
                    lane.leader = False
                for item in dead:
                    if item.error is None and item.result is None:
                        item.error = exc
                    item.done.set()
                raise

    def _run_batch(self, lane: _Lane, batch: list) -> None:
        with self._stats_lock:
            self._batches += 1
            self._batched_writes += len(batch)
            self._max_batch = max(self._max_batch, len(batch))
        journal = batch[0].ctx.journal
        try:
            if journal is not None:
                journal.refuse_if_fenced()
        except MoiraError as exc:
            # a newer epoch fenced this primary between admission and
            # the window: fail the whole lane retryably before any
            # handler runs — stale group commits must never land
            for item in batch:
                item.error = exc
                item.done.set()
            raise
        fatal: Optional[BaseException] = None
        try:
            self._run_window(lane, batch)
        except BaseException as exc:
            fatal = exc
        finally:
            if fatal is None and journal is not None:
                try:
                    # ONE fsync covers every write in the window; the
                    # journal.batch_flush fault point fires here, so an
                    # injected crash must still release the followers
                    journal.sync()
                except BaseException as exc:
                    fatal = exc
            for item in batch:
                if fatal is not None and item.error is None \
                        and item.result is None:
                    item.error = fatal
                item.done.set()
            if fatal is None:
                # version GC takes every shard; the lane's are released
                self.db.gc_if_due()
        if fatal is not None:
            raise fatal

    def _run_window(self, lane: _Lane, batch: list) -> None:
        """Hold the lane's shard locks once; each item is its own txn
        (re-entering the held locks).  An un-sharded backend has no
        shard locks to hold: each item's ``write_txn`` takes the one
        writer lock itself."""
        on_wait = self.metrics.record_shard_wait \
            if self.metrics is not None else None
        with self.db.hold_shards(lane.key, on_wait):
            for item in batch:
                self._run_item(item, lane.key)

    def _run_item(self, item: _WriteItem, shards) -> None:
        """Execute one write in its own transaction.  ``fsync=False``:
        entries land in exact commit-seq order inside the engine's
        publication gate, durability comes from the window's single
        ``sync()``.  An ``Exception`` fails only this item."""
        item.started = time.perf_counter()
        try:
            item.result, item.mutated = run_write(
                item.ctx, item.query, item.query_args,
                shards=shards, fsync=False)
        except Exception as exc:
            item.error = exc
