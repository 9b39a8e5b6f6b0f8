"""Multi-version concurrency control for the in-memory engine.

Snapshot-isolation reads over the live engine (docs/STORAGE_ENGINE.md):

* Every mutation statement is stamped with a **commit sequence** (the
  MVCC timeline; one seq per exclusive-lock transaction, advanced when
  the outermost exclusive hold is released).
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
pinned seq (or the committed seq when nothing is pinned) — by
structure replacement, so in-flight readers keep iterating the old
lists safely.
"""

from __future__ import annotations

import bisect
import time
from contextlib import nullcontext
from typing import Any, Iterator, Optional

from repro.errors import MoiraError, MR_NO_ID, MR_NO_MATCH

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

    def gc(self, horizon: int) -> int:
        """Drop entries dead at *horizon*; returns the count dropped."""
        freed = 0
        fresh: dict[Any, list[_Entry]] = {}
        for key, bucket in list(self.buckets.items()):
            keep = [e for e in bucket if e.end > horizon]
            freed += len(bucket) - len(keep)
            if keep:
                fresh[key] = keep
        self.buckets = fresh
        self.key_epoch += 1
        self._sorted_cache = None
        return freed


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

    def gc(self, horizon: int) -> int:
        freed = 0
        fresh: dict[tuple, list[_Entry]] = {}
        for key, bucket in list(self.buckets.items()):
            keep = [e for e in bucket if e.end > horizon]
            freed += len(bucket) - len(keep)
            if keep:
                fresh[key] = keep
        self.buckets = fresh
        return freed


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
        for row in table.rows:
            self._admit(row, base_seq)

    # -- writer-side hooks ---------------------------------------------------

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
        by shard-transaction aborts) or None for untracked rows."""
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
        # (slot, retired entry, fresh entry) per re-bucketed structure,
        # so an abort can reopen exactly what this statement closed
        replaced: list = []
        # an assignment to an indexed column re-buckets the live index
        # (remove + append) even when the key value is unchanged;
        # mirror that exactly so bucket order stays byte-identical
        for name in changed:
            index = self.indexes.get(name)
            if index is None:
                continue
            stale = record.live.get(name)
            if stale is not None:
                stale.end = seq
            entry = _Entry(record, seq, INF_SEQ)
            index.append(index.key_of(data[name]), entry)
            record.live[name] = entry
            replaced.append((name, stale, entry))
        for names, comp in self.composites.items():
            if not any(name in changed for name in names):
                continue
            stale = record.live.get(names)
            if stale is not None:
                stale.end = seq
            entry = _Entry(record, seq, INF_SEQ)
            comp.append(comp.key_of(data), entry)
            record.live[names] = entry
            replaced.append((names, stale, entry))
        self.db._mv_note(1)
        return (row, old, replaced)

    def on_delete(self, row: dict, seq: int):
        """Retire one row; returns an opaque undo token or None."""
        record = self.records.pop(id(row), None)
        if record is None:
            return None
        token = (row, record, dict(record.live))
        record.current.end = seq
        for entry in record.live.values():
            entry.end = seq
        record.live = {}
        self.db._mv_note(1)
        return token

    # -- abort undo (shard transactions) -------------------------------------
    # All undo runs on the writer path, under the aborting transaction's
    # shard locks and *before* its seq publishes as an abort — so no
    # snapshot can ever be pinned at the aborted seq, and closing a
    # window to the empty range [seq, seq) makes the version dead for
    # every reader past and future.  GC reclaims the husks normally.

    def undo_insert(self, row: dict, seq: int) -> None:
        record = self.records.pop(id(row), None)
        if record is None:
            return
        record.current.end = seq        # empty window: never visible
        for entry in record.live.values():
            entry.end = seq
        record.live = {}

    def undo_update(self, token, seq: int) -> None:
        row, old, replaced = token
        record = self.records.get(id(row))
        if record is not None and record.current.begin == seq:
            # reopen the pre-update head, then swap it back (reverse of
            # the publication order; the aborted version is orphaned)
            old.end = INF_SEQ
            record.current = old
        for slot, stale, entry in replaced:
            entry.end = seq             # dead: [seq, seq)
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

    def on_clear(self, seq: int) -> None:
        for record in self.records.values():
            record.current.end = seq
            for entry in record.live.values():
                entry.end = seq
            record.live = {}
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

    def gc(self, horizon: int) -> tuple[int, int]:
        """Reclaim entries/versions dead at *horizon*.

        Returns ``(entries_freed, versions_freed)``.  Runs under the
        exclusive lock; every structure shrinks by replacement so
        concurrent readers keep their own consistent references.
        """
        entries_freed = versions_freed = 0
        keep: list[_Entry] = []
        for entry in self.entries:
            if entry.end > horizon:
                keep.append(entry)
                continue
            entries_freed += 1
            record = entry.record
            if record.current.end <= horizon:
                # dead record: its whole chain goes with the scan entry
                v = record.current
                while v is not None:
                    versions_freed += 1
                    v = v.older
        self.entries = keep
        for index in self.indexes.values():
            entries_freed += index.gc(horizon)
        for comp in self.composites.values():
            entries_freed += comp.gc(horizon)
        for record in self.records.values():
            v = record.current
            while v.older is not None and v.older.end > horizon:
                v = v.older
            cut = v.older
            if cut is not None:
                v.older = None
                while cut is not None:
                    versions_freed += 1
                    cut = cut.older
        return entries_freed, versions_freed


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
        where = where or {}
        table = self._table
        store = self._store
        snap = self._snap
        if not table._fast_path:
            yield from self._iter_select_legacy(where, predicate)
            return
        if not where:
            for data in self._resolve(store.entries):
                if predicate is None or predicate(data):
                    snap.rows_returned += 1
                    yield data
            return
        plan, exact, wild = table._bind_plan(where)
        if plan.covered:
            # bucket membership at seq *is* the full answer
            for data in self._resolve(self._covered_entries(plan, exact)):
                if predicate is None or predicate(data):
                    snap.rows_returned += 1
                    yield data
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

    def _iter_select_legacy(self, where: dict,
                            predicate=None) -> Iterator[dict]:
        """Per-call analysis mirroring ``Table._iter_select_legacy``,
        resolved against the version store (the ``set_fast_path(False)``
        oracle keeps working under pinned snapshots)."""
        from repro.db.engine import WildcardPattern, _literal_prefix
        store = self._store
        snap = self._snap
        exact: dict[str, Any] = {}
        wild: dict[str, Any] = {}
        for name, value in where.items():
            column = self._table.column(name)
            if column.kind is str and WildcardPattern.is_wild(str(value)):
                wild[name] = WildcardPattern(str(value), column.fold_case)
            else:
                exact[name] = column.coerce(value)
        best: Optional[list[_Entry]] = None
        for name, value in exact.items():
            index = store.indexes.get(name)
            if index is None:
                continue
            bucket = index.bucket(value)
            if best is None or len(bucket) < len(best):
                best = bucket
        for name, pattern in wild.items():
            index = store.indexes.get(name)
            prefix = _literal_prefix(pattern.pattern)
            if index is None or prefix is None:
                continue
            bucket = index.prefix_entries(prefix)
            if best is None or len(bucket) < len(best):
                best = bucket
        candidates = store.entries if best is None else best
        for data in self._resolve(candidates):
            ok = True
            for name, value in exact.items():
                if not self._table.columns[name].equal(data[name], value):
                    ok = False
                    break
            if ok:
                for name, pattern in wild.items():
                    if not pattern.matches(str(data[name])):
                        ok = False
                        break
            if ok and predicate is not None and not predicate(data):
                ok = False
            if ok:
                snap.rows_returned += 1
                yield data

    def select(self, where: Optional[dict] = None, *,
               predicate=None) -> list[dict]:
        return list(self.iter_select(where, predicate=predicate))

    def count(self, where: Optional[dict] = None) -> int:
        seq = self._snap.seq
        if not where:
            return sum(1 for e in self._store.entries
                       if e.begin <= seq < e.end)
        if self._table._fast_path:
            plan, exact, wild = self._table._bind_plan(where)
            if plan.covered and not wild:
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
            store = live._mv
            if store is None:
                # an unversioned system relation (values, strings):
                # serve the live table
                return live
            found = SnapshotTable(self, live, store)
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
