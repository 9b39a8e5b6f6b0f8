"""Per-query-handle metrics: calls, rows, and latency histograms.

§7.0.8 exposes the daemon's self-knowledge through pseudo-queries
answered from live server state (``_list_users``).  This module backs
the companion ``_query_stats`` handle: for every query name the server
has executed it keeps call/error/tuple counters plus wall-clock and
lock-wait time, the latter two both as running totals and as log2
microsecond histograms — enough to read p50/p99 off a long benchmark
run without sampling overhead on the hot path.

With the MVCC engine, reads never take the lock, so ``lock_wait_s`` is
``None`` for them and the lock-wait histogram becomes **writer-only**
— a direct view of writer–writer contention.  MVCC reads instead
report snapshot counters: row versions scanned vs returned (scan
selectivity) and the snapshot-pin age at release (how long each read
held back the version GC horizon), the age kept as its own log2-µs
histogram.

Recording is one dict lookup, a few integer adds, and a handful of
bucket increments under a per-handle lock, so threads serving
different handles never contend.  Wall time for a streamed
retrieval covers the full stream (first scan to last tuple drained),
matching what a client actually experiences.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional

__all__ = ["QueryMetrics", "HISTOGRAM_BUCKETS"]

# log2 microsecond buckets: bucket i holds durations in [2^i, 2^(i+1))
# µs; 28 buckets reach ~268 s, far beyond any single query here.
HISTOGRAM_BUCKETS = 28


def _bucket_of(us: int) -> int:
    if us <= 0:
        return 0
    return min(us.bit_length() - 1, HISTOGRAM_BUCKETS - 1)


def _quantile_us(hist: list[int], q: float) -> int:
    """Approximate quantile from a log2 histogram (bucket upper bound)."""
    total = sum(hist)
    if total == 0:
        return 0
    rank = q * total
    seen = 0
    for i, n in enumerate(hist):
        seen += n
        if seen >= rank:
            return 2 ** (i + 1) - 1
    return 2 ** HISTOGRAM_BUCKETS - 1


class _HandleMetrics:
    __slots__ = ("lock", "calls", "errors", "tuples",
                 "wall_us", "lock_wait_us", "locked_calls",
                 "rows_scanned", "rows_returned",
                 "snap_age_us", "snap_calls",
                 "wall_hist", "lock_hist", "snap_hist")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.calls = 0
        self.errors = 0
        self.tuples = 0
        self.wall_us = 0
        self.lock_wait_us = 0
        self.locked_calls = 0
        self.rows_scanned = 0
        self.rows_returned = 0
        self.snap_age_us = 0
        self.snap_calls = 0
        self.wall_hist = [0] * HISTOGRAM_BUCKETS
        self.lock_hist = [0] * HISTOGRAM_BUCKETS
        self.snap_hist = [0] * HISTOGRAM_BUCKETS


class QueryMetrics:
    """Thread-safe per-handle execution metrics."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._handles: dict[str, _HandleMetrics] = {}
        self._registry_lock = threading.Lock()
        # writer-shard lock-wait histograms: shard name -> (waits,
        # wait_us, log2-µs hist), fed by the write batcher's leaders
        self._shards: dict[str, list] = {}

    def record_shard_wait(self, shard: str, wait_s: float) -> None:
        """Fold one shard writer-lock acquisition wait into *shard*."""
        if not self.enabled:
            return
        found = self._shards.get(shard)
        if found is None:
            with self._registry_lock:
                found = self._shards.setdefault(
                    shard, [threading.Lock(), 0, 0,
                            [0] * HISTOGRAM_BUCKETS])
        wait_us = int(wait_s * 1e6)
        with found[0]:
            found[1] += 1
            found[2] += wait_us
            found[3][_bucket_of(wait_us)] += 1

    def shard_waits(self) -> dict[str, dict]:
        """Per-shard writer lock-wait counters and histograms."""
        out: dict[str, dict] = {}
        for shard, found in list(self._shards.items()):
            with found[0]:
                out[shard] = {
                    "waits": found[1],
                    "wait_us": found[2],
                    "hist": list(found[3]),
                    "wait_p50_us": _quantile_us(found[3], 0.50),
                    "wait_p99_us": _quantile_us(found[3], 0.99),
                }
        return out

    def _handle(self, name: str) -> _HandleMetrics:
        found = self._handles.get(name)
        if found is None:
            with self._registry_lock:
                found = self._handles.setdefault(name, _HandleMetrics())
        return found

    def record(self, name: str, *, wall_s: float, tuples: int = 0,
               error: bool = False,
               lock_wait_s: Optional[float] = 0.0,
               rows_scanned: int = 0, rows_returned: int = 0,
               snap_age_s: Optional[float] = None) -> None:
        """Fold one completed (or failed) execution into *name*'s row.

        ``lock_wait_s=None`` means the execution never took the lock
        (an MVCC snapshot read): it is excluded from the lock-wait
        histogram, keeping that histogram writer-only.  ``snap_age_s``
        is the snapshot-pin age at release for MVCC reads.
        """
        if not self.enabled:
            return
        wall_us = int(wall_s * 1e6)
        h = self._handle(name)
        with h.lock:
            h.calls += 1
            if error:
                h.errors += 1
            h.tuples += tuples
            h.wall_us += wall_us
            h.wall_hist[_bucket_of(wall_us)] += 1
            if lock_wait_s is not None:
                lock_us = int(lock_wait_s * 1e6)
                h.locked_calls += 1
                h.lock_wait_us += lock_us
                h.lock_hist[_bucket_of(lock_us)] += 1
            h.rows_scanned += rows_scanned
            h.rows_returned += rows_returned
            if snap_age_s is not None:
                snap_us = int(snap_age_s * 1e6)
                h.snap_calls += 1
                h.snap_age_us += snap_us
                h.snap_hist[_bucket_of(snap_us)] += 1

    def snapshot(self) -> dict[str, dict]:
        """Copy of every handle's counters and histograms."""
        out: dict[str, dict] = {}
        for name, h in list(self._handles.items()):
            with h.lock:
                out[name] = {
                    "calls": h.calls,
                    "errors": h.errors,
                    "tuples": h.tuples,
                    "wall_us": h.wall_us,
                    "lock_wait_us": h.lock_wait_us,
                    "locked_calls": h.locked_calls,
                    "rows_scanned": h.rows_scanned,
                    "rows_returned": h.rows_returned,
                    "snap_age_us": h.snap_age_us,
                    "snap_calls": h.snap_calls,
                    "wall_hist": list(h.wall_hist),
                    "lock_hist": list(h.lock_hist),
                    "snap_hist": list(h.snap_hist),
                    "wall_p50_us": _quantile_us(h.wall_hist, 0.50),
                    "wall_p99_us": _quantile_us(h.wall_hist, 0.99),
                    "snap_age_p50_us": _quantile_us(h.snap_hist, 0.50),
                    "snap_age_p99_us": _quantile_us(h.snap_hist, 0.99),
                }
        return out

    def report_tuples(self,
                      handle: Optional[str] = None) -> Iterator[tuple]:
        """Rows for the ``_query_stats`` pseudo-query, sorted by name.

        Each tuple: (name, calls, errors, tuples, wall_us,
        lock_wait_us, wall_p50_us, wall_p99_us, rows_scanned,
        rows_returned, snap_age_p50_us, snap_age_p99_us) — all
        stringified, as the wire wants.  ``lock_wait_us`` covers only
        executions that actually took the lock (writers, plus all
        queries on non-MVCC backends).
        """
        snap = self.snapshot()
        for name in sorted(snap):
            if handle and name != handle:
                continue
            row = snap[name]
            yield (name, str(row["calls"]), str(row["errors"]),
                   str(row["tuples"]), str(row["wall_us"]),
                   str(row["lock_wait_us"]), str(row["wall_p50_us"]),
                   str(row["wall_p99_us"]), str(row["rows_scanned"]),
                   str(row["rows_returned"]),
                   str(row["snap_age_p50_us"]),
                   str(row["snap_age_p99_us"]))
        if handle is None:
            # writer-shard lock-wait rows ride along, name-prefixed so
            # they sort after the per-handle rows
            for shard, row in sorted(self.shard_waits().items()):
                yield ("_shard." + shard, str(row["waits"]),
                       str(row["wait_us"]), str(row["wait_p50_us"]),
                       str(row["wait_p99_us"]))
