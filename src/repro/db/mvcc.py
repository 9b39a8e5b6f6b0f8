"""Multi-version concurrency control for the in-memory engine.

Snapshot-isolation reads over the live engine (docs/STORAGE_ENGINE.md):

* Every mutation statement is stamped with a **commit sequence** (the
  MVCC timeline; one seq per writer transaction, published through the
  database's in-order commit gate).
* Each mutated row gets an immutable :class:`_Version` — a frozen copy
  of the row dict with a ``[begin, end)`` visibility window — chained
  newest-first on a per-row :class:`_Record`.
* Scan order and index-bucket membership are mirrored by
  :class:`_Entry` objects carrying their own ``[begin, end)`` windows,
  so a snapshot reader sees exactly the rows — **in exactly the
  order** — a locked reader would have seen at that seq.  (Inserts
  append; an update that touches an indexed column retires the old
  bucket entry and appends a new one, mirroring the live index's
  remove+append; deletes retire every entry.)
* A reader **pins** the current committed seq (``Database.
  pin_snapshot``) and scans the version store without taking the
  RWLock's shared side at all: readers never block on writers and
  writers never wait on readers.  Only writer–writer exclusion
  remains on the lock.

Lock-free safety rests on CPython's per-opcode atomicity: version
``data`` dicts are never mutated after publication, list appends are
safe during iteration, and the publication order (create the new
version fully → close the old window → swap the chain head) means a
torn read can only ever observe a *consistent* older state.

Garbage collection (:meth:`Database.gc_versions`) reclaims versions and
entries whose windows closed at or before the **horizon** — the oldest
pinned seq (or the committed seq when nothing is pinned).  Whatever
closes a window queues what it retired, and a collection visits only
that queue: it copies and swaps just the buckets (and scan lists) the
retired entries sit in, so in-flight readers keep iterating the old
lists safely, and trims just the chains that hold a closed version.
"""

from __future__ import annotations

import bisect
import time
from contextlib import nullcontext
from typing import Any, Iterable, Iterator, Optional

from repro.db.backend import StorageTable
from repro.errors import MoiraError, MR_INTERNAL, MR_NO_ID, MR_NO_MATCH

__all__ = ["INF_SEQ", "Snapshot", "SnapshotTable", "TableVersionStore",
           "SnapshotStale"]

# The open end of a live visibility window; far beyond any real seq.
INF_SEQ = 2 ** 63


class SnapshotStale(Exception):
    """A shared structure moved past the pinned seq mid-read; the
    caller must fall back to a snapshot-local computation."""


class _Version:
    """One immutable row state, visible in ``[begin, end)``."""

    __slots__ = ("data", "begin", "end", "older")

    def __init__(self, data: dict, begin: int, end: int,
                 older: Optional["_Version"]):
        self.data = data
        self.begin = begin
        self.end = end
        self.older = older


class _Record:
    """The version chain of one logical row (newest first).

    ``live`` maps slot → the record's current open :class:`_Entry` per
    structure (``None`` slot = the scan list, a column name = a single
    index, a names-tuple = a composite index), so mutations can retire
    exactly the entries they invalidate.
    """

    __slots__ = ("current", "live")

    def __init__(self, current: _Version):
        self.current = current
        self.live: dict = {}


class _Entry:
    """Membership of a record in a scan list or index bucket over
    ``[begin, end)``.  Windows for one record within one bucket are
    disjoint, so at any snapshot at most one entry per record is
    valid — no deduplication is ever needed."""

    __slots__ = ("record", "begin", "end")

    def __init__(self, record: _Record, begin: int, end: int):
        self.record = record
        self.begin = begin
        self.end = end


def _visible(record: _Record, seq: int) -> Optional[dict]:
    """The row state of *record* at snapshot *seq*, or None."""
    v = record.current
    while v is not None and v.begin > seq:
        v = v.older
    if v is None or v.end <= seq:
        return None
    return v.data


class _MvIndex:
    """Versioned mirror of a single-column hash index.

    Buckets hold :class:`_Entry` lists in live-index order.  The sorted
    key list for prefix queries is epoch-validated: writers bump
    ``key_epoch`` whenever the key set changes, and a reader that
    cached against an older epoch recomputes — a stale cache can never
    be revalidated, only replaced.
    """

    def __init__(self, column):
        self.column = column
        self.buckets: dict[Any, list[_Entry]] = {}
        self.key_epoch = 0
        self._sorted_cache: Optional[tuple[int, list]] = None

    def key_of(self, value: Any) -> Any:
        if self.column.kind is str and self.column.fold_case:
            return str(value).lower()
        return value

    def append(self, key: Any, entry: _Entry) -> None:
        bucket = self.buckets.get(key)
        if bucket is None:
            self.buckets[key] = [entry]
            self.key_epoch += 1
        else:
            bucket.append(entry)

    def bucket(self, value: Any) -> list[_Entry]:
        return self.buckets.get(self.key_of(value), [])

    def prefix_entries(self, prefix: str) -> list[_Entry]:
        """Entries under keys starting with *prefix* (folded), in key
        order then bucket order — mirroring ``_Index.prefix_lookup``."""
        if self.column.fold_case:
            prefix = prefix.lower()
        epoch = self.key_epoch
        cached = self._sorted_cache
        if cached is not None and cached[0] == epoch:
            keys = cached[1]
        else:
            # list() materialises the key set atomically; sort a copy
            keys = sorted(k for k in list(self.buckets)
                          if isinstance(k, str))
            self._sorted_cache = (epoch, keys)
        out: list[_Entry] = []
        for i in range(bisect.bisect_left(keys, prefix), len(keys)):
            key = keys[i]
            if not key.startswith(prefix):
                break
            out.extend(self.buckets.get(key, ()))
        return out


class _MvComposite:
    """Versioned mirror of a composite (tuple-keyed) hash index."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        self.names = tuple(c.name for c in columns)
        self.buckets: dict[tuple, list[_Entry]] = {}

    @staticmethod
    def _fold(column, value: Any) -> Any:
        if column.kind is str and column.fold_case:
            return str(value).lower()
        return value

    def key_of(self, data: dict) -> tuple:
        return tuple(self._fold(c, data[c.name]) for c in self.columns)

    def append(self, key: tuple, entry: _Entry) -> None:
        self.buckets.setdefault(key, []).append(entry)

    def bucket_values(self, values: dict) -> list[_Entry]:
        key = tuple(self._fold(c, values[c.name]) for c in self.columns)
        return self.buckets.get(key, [])


class TableVersionStore:
    """The side version store of one :class:`~repro.db.engine.Table`.

    The live table's rows/indexes stay the writer's (and the byte-
    identity oracle's) structures; this store is an append-mostly
    mirror that snapshot readers scan lock-free.  All mutation methods
    run on the writer path (under the exclusive lock, or on the
    single-threaded setup path) — only the read side is concurrent.
    """

    def __init__(self, db, table, *, base_seq: int = 0):
        self.db = db
        self.table = table
        self.entries: list[_Entry] = []       # scan order (mirrors rows)
        self.indexes: dict[str, _MvIndex] = {
            name: _MvIndex(index.column)
            for name, index in table._indexes.items()}
        self.composites: dict[tuple, _MvComposite] = {
            names: _MvComposite(comp.columns)
            for names, comp in table._composites.items()}
        self.records: dict[int, _Record] = {}  # id(live row) -> record
        # what closed windows retired, for the collector: (slot, key) ->
        # entries closed in that bucket (slot None, key None: the scan
        # list), and id(record) -> records whose chain holds a closed
        # version
        self.retired: dict[tuple, list[_Entry]] = {}
        self.retired_chains: dict[int, _Record] = {}
        for row in table.rows:
            self._admit(row, base_seq)

    # -- writer-side hooks ---------------------------------------------------

    def _slot_key(self, slot, data: dict) -> Any:
        """The bucket key of *data* in structure *slot*."""
        if slot is None:
            return None
        if isinstance(slot, str):
            return self.indexes[slot].key_of(data[slot])
        return self.composites[slot].key_of(data)

    def _retire(self, slot, key, entry: _Entry) -> None:
        self.retired.setdefault((slot, key), []).append(entry)

    def _retire_live(self, record: _Record, seq: int) -> None:
        """Close every open entry of *record* at *seq* and queue them."""
        data = record.current.data
        for slot, entry in record.live.items():
            entry.end = seq
            self._retire(slot, self._slot_key(slot, data), entry)
        record.live = {}

    def _admit(self, row: dict, seq: int) -> _Record:
        data = dict(row)
        record = _Record(_Version(data, seq, INF_SEQ, None))
        self.records[id(row)] = record
        entry = _Entry(record, seq, INF_SEQ)
        self.entries.append(entry)
        record.live[None] = entry
        for name, index in self.indexes.items():
            entry = _Entry(record, seq, INF_SEQ)
            index.append(index.key_of(data[name]), entry)
            record.live[name] = entry
        for names, comp in self.composites.items():
            entry = _Entry(record, seq, INF_SEQ)
            comp.append(comp.key_of(data), entry)
            record.live[names] = entry
        return record

    def on_insert(self, row: dict, seq: int) -> None:
        self._admit(row, seq)
        self.db._mv_note(1, dead=0)

    def bulk_admit(self, rows: list, seq: int) -> None:
        """Admit a bulk-loaded batch in one pass (writer path).

        Semantically ``on_insert`` per row; the loop hoists every
        per-row attribute lookup and the per-index case-fold decision,
        so a million-row registrar's tape pays allocation cost only.
        """
        entries_append = self.entries.append
        records = self.records
        index_plan = []
        for name, index in self.indexes.items():
            column = index.column
            fold = column.kind is str and column.fold_case
            index_plan.append((name, index, fold, index.buckets))
        comp_plan = [(names, comp.key_of, comp.buckets)
                     for names, comp in self.composites.items()]
        inf = INF_SEQ
        for row in rows:
            data = dict(row)
            record = _Record(_Version(data, seq, inf, None))
            records[id(row)] = record
            live = record.live
            entry = _Entry(record, seq, inf)
            entries_append(entry)
            live[None] = entry
            for name, index, fold, buckets in index_plan:
                entry = _Entry(record, seq, inf)
                key = data[name]
                if fold:
                    key = str(key).lower()
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [entry]
                    index.key_epoch += 1
                else:
                    bucket.append(entry)
                live[name] = entry
            for names, key_of, buckets in comp_plan:
                entry = _Entry(record, seq, inf)
                buckets.setdefault(key_of(data), []).append(entry)
                live[names] = entry
        self.db._mv_note(len(rows), dead=0)

    def on_update(self, row: dict, changed: set, seq: int):
        """Version one row update; returns an opaque undo token (used
        by write-transaction aborts) or None for untracked rows."""
        record = self.records.get(id(row))
        if record is None:          # untracked row; nothing to version
            return None
        data = dict(row)            # the post-update state
        old = record.current
        fresh = _Version(data, seq, INF_SEQ, old)
        # publication order: close the old window, then swap the head —
        # a concurrent reader sees either (old, open) or (old, closed)
        # or (fresh → old), all of which resolve identically below seq
        old.end = seq
        record.current = fresh
        self.retired_chains[id(record)] = record
        # (slot, retired entry, fresh entry, fresh key) per re-bucketed
        # structure, so an abort can reopen exactly what this statement
        # closed
        replaced: list = []
        # the live index re-buckets a row (remove + append) only when an
        # update changes its key; mirror that exactly so bucket order
        # stays byte-identical.  A kept entry answers for both versions:
        # each reader resolves the record at its own seq.
        for name in changed:
            index = self.indexes.get(name)
            if index is None:
                continue
            key = index.key_of(data[name])
            stale_key = index.key_of(old.data[name])
            if key == stale_key:
                continue
            stale = record.live.get(name)
            if stale is not None:
                stale.end = seq
                self._retire(name, stale_key, stale)
            entry = _Entry(record, seq, INF_SEQ)
            index.append(key, entry)
            record.live[name] = entry
            replaced.append((name, stale, entry, key))
        for names, comp in self.composites.items():
            if not any(name in changed for name in names):
                continue
            key, stale_key = comp.key_of(data), comp.key_of(old.data)
            if key == stale_key:
                continue
            stale = record.live.get(names)
            if stale is not None:
                stale.end = seq
                self._retire(names, stale_key, stale)
            entry = _Entry(record, seq, INF_SEQ)
            comp.append(key, entry)
            record.live[names] = entry
            replaced.append((names, stale, entry, key))
        self.db._mv_note(1)
        return (row, old, replaced)

    def on_delete(self, row: dict, seq: int):
        """Retire one row; returns an opaque undo token or None."""
        record = self.records.pop(id(row), None)
        if record is None:
            return None
        token = (row, record, dict(record.live))
        record.current.end = seq
        self._retire_live(record, seq)
        self.db._mv_note(1)
        return token

    # -- abort undo (write transactions) -------------------------------------
    # All undo runs on the writer path, under the writer lock and
    # *before* the aborting transaction's seq publishes — so no
    # snapshot can ever be pinned at the aborted seq, and closing a
    # window to the empty range [seq, seq) makes the version dead for
    # every reader past and future.  GC reclaims the husks normally:
    # they are queued like any retirement, and an entry an abort
    # reopens leaves the queue when the collector finds it open.

    def undo_insert(self, row: dict, seq: int) -> None:
        record = self.records.pop(id(row), None)
        if record is None:
            return
        record.current.end = seq        # empty window: never visible
        self._retire_live(record, seq)

    def undo_update(self, token, seq: int) -> None:
        row, old, replaced = token
        record = self.records.get(id(row))
        if record is not None and record.current.begin == seq:
            # reopen the pre-update head, then swap it back (reverse of
            # the publication order; the aborted version is orphaned)
            old.end = INF_SEQ
            record.current = old
        for slot, stale, entry, key in replaced:
            entry.end = seq             # dead: [seq, seq)
            self._retire(slot, key, entry)
            if stale is not None:
                stale.end = INF_SEQ
                if record is not None:
                    record.live[slot] = stale

    def undo_delete(self, token) -> None:
        row, record, live = token
        self.records[id(row)] = record
        record.current.end = INF_SEQ
        for entry in live.values():
            entry.end = INF_SEQ
        record.live = live

    def scan_order(self, live: Iterable[dict],
                   reopened: list) -> list[dict]:
        """*live* (the table's rows, in scan order) with *reopened* —
        rows whose delete ``undo_delete`` just reversed — merged back
        in at their scan positions, read off the open scan entries.
        O(entries): abort undo only."""
        records = self.records
        back = {records[id(row)]: row for row in reopened}
        rest = iter(live)
        out = []
        for entry in self.entries:
            if entry.end != INF_SEQ:
                continue
            record = entry.record
            row = back.get(record)
            if row is None:
                row = next(rest, None)
                if row is None or records.get(id(row)) is not record:
                    raise MoiraError(MR_INTERNAL,
                                     "scan list out of step with live rows")
            out.append(row)
        if next(rest, None) is not None:
            raise MoiraError(MR_INTERNAL,
                             "scan list out of step with live rows")
        return out

    def on_clear(self, seq: int) -> None:
        for record in self.records.values():
            record.current.end = seq
            self._retire_live(record, seq)
        self.records.clear()
        self.db._mv_note(1)

    def on_add_index(self, column_name: str) -> None:
        """Backfill a new single-column mirror, windows included.

        Historical windows are reconstructed by coalescing equal-key
        runs along each record's version chain, so already-pinned
        snapshots resolve correctly through the new index too.
        """
        index = _MvIndex(self.table.columns[column_name])
        for scan_entry in self.entries:     # one scan entry per record
            record = scan_entry.record
            for key, begin, end, is_open in self._key_runs(
                    record, lambda data: index.key_of(data[column_name])):
                entry = _Entry(record, begin, end)
                index.append(key, entry)
                if is_open:
                    record.live[column_name] = entry
                else:
                    self._retire(column_name, key, entry)
        self.indexes[column_name] = index

    def on_add_composite_index(self, names: tuple) -> None:
        live = self.table._composites[tuple(names)]
        comp = _MvComposite(live.columns)
        for scan_entry in self.entries:
            record = scan_entry.record
            for key, begin, end, is_open in self._key_runs(
                    record, comp.key_of):
                entry = _Entry(record, begin, end)
                comp.append(key, entry)
                if is_open:
                    record.live[comp.names] = entry
                else:
                    self._retire(comp.names, key, entry)
        self.composites[comp.names] = comp

    @staticmethod
    def _key_runs(record: _Record, key_of) -> Iterator[tuple]:
        """(key, begin, end, is_open) runs along a version chain,
        oldest first, adjacent equal keys coalesced."""
        chain = []
        v = record.current
        while v is not None:
            chain.append(v)
            v = v.older
        chain.reverse()
        run_key = run_begin = run_end = None
        for v in chain:
            key = key_of(v.data)
            if run_key is not None and key == run_key:
                run_end = v.end
                continue
            if run_key is not None:
                yield run_key, run_begin, run_end, False
            run_key, run_begin, run_end = key, v.begin, v.end
        if run_key is not None:
            yield run_key, run_begin, run_end, run_end == INF_SEQ

    # -- garbage collection --------------------------------------------------

    def gc(self, horizon: int) -> tuple[int, int, int]:
        """Reclaim the retired entries and versions dead at *horizon*.

        Returns ``(entries_freed, versions_freed, visited)``, *visited*
        counting every queued item, list element and version looked
        at.  Runs under the exclusive lock and visits only what was
        retired: each bucket (or scan list) holding a dead retired
        entry is copied and swapped, and each queued chain trimmed.
        Items closed after *horizon* stay queued; an item an abort
        reopened is dropped.
        """
        entries_freed = versions_freed = visited = 0
        retired, self.retired = self.retired, {}
        for (slot, key), queued in retired.items():
            visited += len(queued)
            dead = []
            waiting = []
            for entry in dict.fromkeys(queued):
                if entry.end <= horizon:
                    dead.append(entry)
                elif entry.end != INF_SEQ:
                    waiting.append(entry)
            if waiting:
                self.retired[(slot, key)] = waiting
            if not dead:
                continue
            if slot is None:
                old = self.entries
                self.entries = [e for e in old if e.end > horizon]
                visited += len(old)
                entries_freed += len(old) - len(self.entries)
                for entry in dead:
                    v = entry.record.current
                    if v.end <= horizon:
                        # dead record: its whole chain goes with the
                        # scan entry
                        while v is not None:
                            versions_freed += 1
                            v = v.older
                continue
            structure = (self.indexes[slot] if isinstance(slot, str)
                         else self.composites[slot])
            bucket = structure.buckets.get(key, [])
            keep = [e for e in bucket if e.end > horizon]
            visited += len(bucket)
            entries_freed += len(bucket) - len(keep)
            if keep:
                structure.buckets[key] = keep
            elif key in structure.buckets:
                del structure.buckets[key]
                if isinstance(structure, _MvIndex):
                    structure.key_epoch += 1
        chains, self.retired_chains = self.retired_chains, {}
        for rid, record in chains.items():
            visited += 1
            current = record.current
            if current.end <= horizon:
                continue    # dead: the chain goes with its scan entry
            v = current
            while v.older is not None and v.older.end > horizon:
                v = v.older
                visited += 1
            cut = v.older
            if cut is not None:
                v.older = None
                while cut is not None:
                    versions_freed += 1
                    visited += 1
                    cut = cut.older
            if current.older is not None:
                self.retired_chains[rid] = record
        return entries_freed, versions_freed, visited


class _SnapshotClosure:
    """Seq-validated proxy over the live membership-closure index.

    The closure syncs itself from the live ``members`` changelog, so it
    is only usable by a snapshot while ``members`` has no mutation past
    the pinned seq — validated before *and* after each call.  On
    staleness it raises; :class:`~repro.queries.base.QueryContext`
    already falls back to the recursive walk (which then runs against
    the snapshot's ``members`` table, giving the seq-exact answer).
    """

    def __init__(self, closure, live_members, seq: int):
        self._closure = closure
        self._members = live_members
        self._seq = seq

    def _check(self) -> None:
        if self._members.mv_last_seq > self._seq:
            raise SnapshotStale(
                f"members moved past pinned seq {self._seq}")

    def contains(self, list_id: int, member_type: str,
                 member_id: int) -> bool:
        self._check()
        result = self._closure.contains(list_id, member_type, member_id)
        self._check()
        return result

    def lists_containing(self, member_type: str, member_id: int) -> set:
        self._check()
        result = self._closure.lists_containing(member_type, member_id)
        self._check()
        return result

    def stats(self) -> dict:
        return self._closure.stats()


class SnapshotTable:
    """One relation as of a pinned seq; quacks like a read-only
    :class:`~repro.db.engine.Table`.

    Plan *classification* is borrowed from the live table (shapes and
    schema epochs are thread-safe enough under the GIL), but every row
    and bucket comes from the version store — the live rows/indexes
    are never touched, so in-place writer mutations cannot tear a
    snapshot read.
    """

    def __init__(self, snapshot: "Snapshot", table, store: TableVersionStore):
        self._snap = snapshot
        self._table = table
        self._store = store
        self.name = table.name
        self.columns = table.columns
        self.stats = table.stats
        # captured once: stable for the caller-row memo's validity check
        self.version = table.version

    def column(self, name: str):
        return self._table.column(name)

    def changes_since(self, version: int):
        """Snapshots carry no changed-row log (incremental consumers
        run on the live writer path)."""
        return None

    # -- retrieval -----------------------------------------------------------

    def _resolve(self, entries) -> Iterator[dict]:
        """Visible row states from candidate entries, counting
        scanned row-versions on the owning snapshot."""
        snap = self._snap
        seq = snap.seq
        for entry in entries:
            snap.rows_scanned += 1
            if not (entry.begin <= seq < entry.end):
                continue
            data = _visible(entry.record, seq)
            if data is not None:
                yield data

    def _covered_entries(self, plan, exact: dict) -> list[_Entry]:
        store = self._store
        if plan.composite is not None and \
                len(plan.composite.names) == len(plan.exact):
            return store.composites[plan.composite.names] \
                .bucket_values(exact)
        name, _index = plan.single[0]
        return store.indexes[name].bucket(exact[name])

    def iter_select(self, where: Optional[dict] = None, *,
                    predicate=None) -> Iterator[dict]:
        """Yield rows matching *where* at the pinned seq — same
        classification, index choice, and result order as the live
        table's path at that seq."""
        table = self._table
        store = self._store
        snap = self._snap
        if not where:
            yield from self._matching(store.entries, predicate)
            return
        plan, exact, wild = table._bind_plan(where)
        if plan.covered:
            # bucket membership at seq *is* the full answer
            yield from self._matching(self._covered_entries(plan, exact),
                                      predicate)
            return
        from repro.db.engine import _literal_prefix
        best: Optional[list[_Entry]] = None
        if plan.composite is not None:
            best = store.composites[plan.composite.names] \
                .bucket_values(exact)
        for name, _index in plan.single:
            bucket = store.indexes[name].bucket(exact[name])
            if best is None or len(bucket) < len(best):
                best = bucket
        for (name, _column, index), pattern in zip(plan.wild, wild):
            if index is None:
                continue
            prefix = _literal_prefix(pattern.pattern)
            if prefix is None:
                continue
            bucket = store.indexes[name].prefix_entries(prefix)
            if best is None or len(bucket) < len(best):
                best = bucket
        if best is not None and not best:
            return
        candidates = store.entries if best is None else best
        columns = table.columns
        for data in self._resolve(candidates):
            ok = True
            for name, _column in plan.exact:
                if not columns[name].equal(data[name], exact[name]):
                    ok = False
                    break
            if ok:
                for (name, _column, _index), pattern in zip(plan.wild,
                                                            wild):
                    if not pattern.matches(str(data[name])):
                        ok = False
                        break
            if ok and predicate is not None and not predicate(data):
                ok = False
            if ok:
                snap.rows_returned += 1
                yield data

    def _matching(self, entries, predicate) -> Iterator[dict]:
        """Visible rows of *entries* that pass *predicate*, counted on
        the snapshot: one loop, no generator per stage — the whole
        table for a scan, one bucket for a covered plan."""
        snap = self._snap
        seq = snap.seq
        scanned = returned = 0
        try:
            for entry in entries:
                scanned += 1
                if entry.begin <= seq < entry.end:
                    data = _visible(entry.record, seq)
                    if data is not None and (predicate is None
                                             or predicate(data)):
                        returned += 1
                        yield data
        finally:
            snap.rows_scanned += scanned
            snap.rows_returned += returned

    def select(self, where: Optional[dict] = None, *,
               predicate=None) -> list[dict]:
        if where and predicate is None:
            plan, exact, _wild = self._table._bind_plan(where)
            if plan.covered:
                # one index bucket is the answer, resolved in one loop
                snap = self._snap
                seq = snap.seq
                entries = self._covered_entries(plan, exact)
                out = [data for entry in entries
                       if entry.begin <= seq < entry.end
                       and (data := _visible(entry.record, seq)) is not None]
                snap.rows_scanned += len(entries)
                snap.rows_returned += len(out)
                return out
        return list(self.iter_select(where, predicate=predicate))

    def probe(self, column: str):
        """The one-row join at the pinned seq: one bucket of *column*'s
        versioned index per value, its first entry visible here — no
        plan — counted on the snapshot as :meth:`select` counts."""
        index = self._store.indexes.get(column)
        if index is None:
            return StorageTable.probe(self, column)
        buckets = index.buckets
        kind, coerce = index.column.kind, index.column.coerce
        fold = kind is str and index.column.fold_case
        snap = self._snap
        seq = snap.seq

        def first(value):
            if type(value) is not kind:
                value = coerce(value)
            scanned = 0
            for entry in buckets.get(value.lower() if fold else value, ()):
                scanned += 1
                if entry.begin <= seq < entry.end:
                    data = _visible(entry.record, seq)
                    if data is not None:
                        snap.rows_scanned += scanned
                        snap.rows_returned += 1
                        return data
            snap.rows_scanned += scanned
            return None
        return first

    def count(self, where: Optional[dict] = None) -> int:
        seq = self._snap.seq
        if not where:
            return sum(1 for e in self._store.entries
                       if e.begin <= seq < e.end)
        plan, exact, _wild = self._table._bind_plan(where)
        if plan.covered:
            return sum(1 for e in self._covered_entries(plan, exact)
                       if e.begin <= seq < e.end)
        return sum(1 for _ in self.iter_select(where))

    @property
    def rows(self) -> list[dict]:
        """Visible row states in scan order (immutable dicts)."""
        seq = self._snap.seq
        out = []
        for entry in self.entries_snapshot():
            if entry.begin <= seq < entry.end:
                data = _visible(entry.record, seq)
                if data is not None:
                    out.append(data)
        return out

    def entries_snapshot(self) -> list[_Entry]:
        return self._store.entries

    def __len__(self) -> int:
        return self.count()


class Snapshot:
    """A pinned, consistent view of a Database at one committed seq.

    Quacks like :class:`~repro.db.engine.Database` for everything a
    side-effect-free query handler touches; mutation methods are
    deliberately absent so a mutating "read" fails loudly.  It is its
    own context manager — ``with db.read_view() as view:`` releases
    the pin on exit — or release it by hand with
    ``Database.unpin_snapshot(snapshot)``.
    """

    def __init__(self, db, seq: int):
        self.db = db
        self.seq = seq
        self.pinned_at = time.monotonic()
        self.rows_scanned = 0
        self.rows_returned = 0
        self._tables: dict[str, SnapshotTable] = {}

    def age(self) -> float:
        """Seconds since this snapshot was pinned."""
        return time.monotonic() - self.pinned_at

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.db.unpin_snapshot(self)

    def read_view(self):
        """A snapshot already is one committed cut: itself, with the
        pin left to whoever took it."""
        return nullcontext(self)

    def read_stats(self) -> dict:
        """The per-handle metric fields of a read served here."""
        return {"rows_scanned": self.rows_scanned,
                "rows_returned": self.rows_returned,
                "snap_age_s": self.age()}

    # -- Database surface ----------------------------------------------------

    def table(self, name: str):
        found = self._tables.get(name)
        if found is None:
            live = self.db.table(name)
            found = SnapshotTable(self, live, live._mv)
            self._tables[name] = found
        return found

    @property
    def tables(self) -> dict:
        return {name: self.table(name) for name in list(self.db.tables)}

    def __contains__(self, name: str) -> bool:
        return name in self.db.tables

    def membership_closure(self):
        inner = self.db.membership_closure()
        if inner is None:
            return None
        return _SnapshotClosure(inner, self.db.table("members"), self.seq)

    def intern_string(self, text: str, *, now: int = 0) -> int:
        """The ``string_id`` of *text* — lookup only: a read cannot
        allocate, so an unknown string is MR_NO_MATCH (nothing can
        reference a string that was never interned)."""
        rows = self.table("strings").select({"string": text})
        if not rows:
            raise MoiraError(MR_NO_MATCH, f"string {text!r}")
        return rows[0]["string_id"]

    def get_value(self, name: str) -> int:
        rows = self.table("values").select({"name": name})
        if not rows:
            raise MoiraError(MR_NO_ID, name)
        return int(rows[0]["value"])

    def table_stats(self) -> list[tuple]:
        return self.db.table_stats()

    def versions(self) -> dict[str, int]:
        return self.db.versions()
