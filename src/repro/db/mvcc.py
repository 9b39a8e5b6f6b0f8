"""Multi-version concurrency control for the in-memory engine.

Each relation is stored once, in its :class:`TableVersionStore`
(docs/STORAGE_ENGINE.md), and the writer and snapshot readers both
read it:

* Every mutation statement is stamped with a **commit sequence** (the
  MVCC timeline; one seq per writer transaction, published through the
  database's in-order commit gate).
* Each row is a :class:`_Record`: a chain, newest first, of immutable
  :class:`_Version` row states, each with a ``[begin, end)``
  visibility window.  A row state is stored once: the dict an insert
  admits *is* its first version's ``data``, and an update builds one
  new dict (copy on write) and publishes it as the new head version.
  The **head** (the writer's view) is the open entries (``end ==
  INF_SEQ``) resolved to ``record.row``, which is always
  ``record.current.data``.  So a row a table hands out is a read-only
  value: to change it, call ``update_rows`` and select it again.
* The scan list and every index bucket hold :class:`_Entry` objects
  carrying ``[begin, end)`` windows.  A record has one entry for its
  lifetime, shared by the scan list and every bucket its keys have
  never left; inserts append it and a delete closes it once.  An
  update that first moves a key puts a closed copy of the shared
  entry in its place in the old bucket and appends an entry of the
  record's own to the new one; a later move of that key closes the
  own entry.  A bucket of one entry is the entry itself, of more a
  list.  A snapshot sees exactly the rows — **in exactly the order**
  — the head showed at its seq.
* A reader **pins** the current committed seq (``Database.
  pin_snapshot``) and scans the store without taking the writer
  lock at all: readers never block on writers and writers never wait
  on readers.  Only writer–writer exclusion remains on the lock.

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
import operator
import time
from contextlib import nullcontext
from typing import Any, Iterator, Optional

from repro.db.backend import StorageTable, memo_join
from repro.errors import MoiraError, MR_EXISTS, MR_NO_ID, MR_NO_MATCH

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
    """One logical row: its head row, its version chain (newest first)
    and its memberships.  ``row`` *is* ``current.data`` (the head reads
    it one hop sooner), and while the record is live the store's
    ``records`` is keyed by its ``id``.

    ``entry`` is the record's :class:`_Entry` over its lifetime: it
    stands in the scan list and in the bucket of every structure whose
    key the record never moved.  ``moved`` is None, or {position in the
    store's ``slots``: the record's own open entry} for each structure
    an update moved it in, so mutations can retire exactly the entries
    they invalidate.
    """

    __slots__ = ("row", "current", "entry", "moved")

    def __init__(self, data: dict, seq: int):
        # the version and the entry are made after the record that
        # holds them: the cyclic collector walks objects in the order
        # they were made, and one it reaches before every object that
        # refers to it is moved out of the reachable set and back in
        # (a full collection of the 10k-user world, when each record
        # held a list of its entries: 0.19-0.23 s with the list made
        # first, 0.11-0.15 s made after, on a 2-vCPU host)
        self.row = data
        self.current = _Version(data, seq, INF_SEQ, None)
        self.entry = _Entry(self, seq, INF_SEQ)
        self.moved: Optional[dict] = None


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


def entries_of(bucket) -> "list[_Entry] | tuple":
    """The entries of a bucket in either form (None: no bucket)."""
    if bucket is None:
        return ()
    return (bucket,) if bucket.__class__ is _Entry else bucket


def _bucket_add(buckets: dict, key: Any, entry: _Entry) -> bool:
    """Add *entry* at the end of *key*'s bucket; True when the key is
    new.  A bucket of one is the entry itself, of more a list."""
    bucket = buckets.get(key)
    if bucket is None:
        buckets[key] = entry
        return True
    if bucket.__class__ is _Entry:
        buckets[key] = [bucket, entry]
    else:
        bucket.append(entry)
    return False


def _bucket_replace(buckets: dict, key: Any, old: _Entry,
                    new: _Entry) -> None:
    """Put *new* where *old* stands in *key*'s bucket (one identity
    search of it)."""
    bucket = buckets[key]
    if bucket.__class__ is _Entry:
        buckets[key] = new
    else:
        bucket[bucket.index(old)] = new


def _visible(record: _Record, seq: int) -> Optional[dict]:
    """The row state of *record* at snapshot *seq*, or None."""
    v = record.current
    while v is not None and v.begin > seq:
        v = v.older
    if v is None or v.end <= seq:
        return None
    return v.data


class _MvIndex:
    """Hash index on one column: key -> bucket of :class:`_Entry`
    (one entry, or a list of more).

    Besides exact lookups it answers *prefix* queries (the ``CHURN*``
    wildcard shape) from a sorted key list that is epoch-validated:
    writers bump ``key_epoch`` whenever the key set changes, and a
    reader that cached against an older epoch recomputes — a stale
    cache can never be revalidated, only replaced.
    """

    def __init__(self, column, pos: int):
        self.column = column
        self.pos = pos                  # its position in the store's slots
        self.buckets: dict[Any, Any] = {}
        self.key_epoch = 0
        self._sorted_cache: Optional[tuple[int, list]] = None

    def key_of(self, value: Any) -> Any:
        if self.column.kind is str and self.column.fold_case:
            return str(value).lower()
        return value

    def append(self, key: Any, entry: _Entry) -> None:
        if _bucket_add(self.buckets, key, entry):
            self.key_epoch += 1

    def bucket(self, value: Any) -> "list[_Entry] | tuple":
        return entries_of(self.buckets.get(self.key_of(value)))

    def lookup(self, values: dict) -> "list[_Entry] | tuple":
        """The bucket of ``values[column]`` (coerced)."""
        return self.bucket(values[self.column.name])

    def prefix_entries(self, prefix: str) -> list[_Entry]:
        """Entries under keys starting with *prefix* (folded), in key
        order then bucket order.  Non-string keys (an int column) never
        match a string prefix."""
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
            out.extend(entries_of(self.buckets.get(key)))
        return out


class _MvComposite:
    """Hash index over several columns (tuple-keyed buckets): a bucket
    holds exactly the rows equal (case folded where declared) on every
    indexed column, so an exact WHERE it fully covers needs no residual
    filtering."""

    def __init__(self, columns, pos: int):
        self.columns = tuple(columns)
        self.names = tuple(c.name for c in columns)
        self.pos = pos                  # its position in the store's slots
        self.buckets: dict[tuple, Any] = {}
        self.key_of = self._make_key_of()

    def _make_key_of(self):
        """``key_of(data)``: the indexed columns of *data* as a tuple
        (case folded where declared), one ``itemgetter`` call deep."""
        get = operator.itemgetter(*self.names)
        folded = [i for i, c in enumerate(self.columns)
                  if c.kind is str and c.fold_case]
        if len(self.names) == 1:
            def key_of(data: dict) -> tuple:
                return (get(data),)
        else:
            key_of = get
        if not folded:
            return key_of
        raw = key_of

        def folded_key_of(data: dict) -> tuple:
            key = list(raw(data))
            for i in folded:
                key[i] = str(key[i]).lower()
            return tuple(key)
        return folded_key_of

    def append(self, key: tuple, entry: _Entry) -> None:
        _bucket_add(self.buckets, key, entry)

    def lookup(self, values: dict) -> "list[_Entry] | tuple":
        """The bucket of *values*' indexed columns (coerced)."""
        return entries_of(self.buckets.get(self.key_of(values)))


class TableVersionStore:
    """The rows of one :class:`~repro.db.engine.Table` (its ``_mv``).

    All mutation methods run on the writer path (under the exclusive
    lock, or on the single-threaded setup path) — only the read side
    is concurrent.  ``db`` is attached by ``Database.create_table``; a
    table outside any database writes at seq 0.
    """

    def __init__(self, table):
        self.db = None
        self.table = table
        self.entries: list[_Entry] = []       # scan order
        self.indexes: dict[str, _MvIndex] = {}
        self.composites: dict[tuple, _MvComposite] = {}
        # the structures, in the order their positions number them:
        # None (the scan list), then an index's column name or a
        # composite's names tuple per structure, as added
        self.slots: list = [None]
        # id(head row) -> record, for every live record
        self.records: dict[int, _Record] = {}
        # what closed windows retired, for the collector: (slot, key) ->
        # entries closed in that bucket (slot None, key None: the scan
        # list), and id(record) -> records whose chain holds a closed
        # version
        self.retired: dict[tuple, list[_Entry]] = {}
        self.retired_chains: dict[int, _Record] = {}
        # the snapshots' join memo: (the table's mv_last_seq it was
        # filled at, (key, column) -> {value: row[column] or "???"})
        self._joins: tuple[int, dict] = (0, {})

    def join_memo(self, seq: int) -> Optional[dict]:
        """The join memo every snapshot at *seq* may share: (key,
        column) -> {value: joined text}, or None when *seq* predates
        the relation's last commit.

        ``mv_last_seq`` is stamped as a mutation happens, before its
        seq publishes, so while it is at most *seq* the relation holds
        the same rows at every seq from it on, and an answer any such
        snapshot gave is every such snapshot's.  ``version`` would not
        do: it skips ``touch_stats=False`` writes.  A memo filled at
        another stamp is replaced, never revalidated; a reader still
        filling a replaced memo fills a dict no one reads."""
        stamp = self.table.mv_last_seq
        if stamp > seq:
            return None
        joins = self._joins
        if joins[0] != stamp:
            joins = self._joins = (stamp, {})
        return joins[1]

    # -- writer-side hooks ---------------------------------------------------

    def _note(self, created: int, *, dead: Optional[int] = None) -> None:
        if self.db is not None:
            self.db._mv_note(created, dead=dead)

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
        """Close every open entry of *record* at *seq* and queue each
        under every bucket it stands in: the shared entry once, however
        many structures hold it."""
        data = record.current.data
        shared = record.entry
        moved = record.moved or {}
        for pos, slot in enumerate(self.slots):
            entry = moved.get(pos, shared)
            entry.end = seq
            self._retire(slot, self._slot_key(slot, data), entry)

    def on_insert(self, row: dict, seq: int) -> _Record:
        self.bulk_admit([row], seq)
        return self.records[id(row)]

    def bulk_admit(self, rows: list, seq: int, violates=None) -> None:
        """Admit a batch of rows in one pass (writer path); each row
        becomes its record's first version as it is, and its one entry
        joins the scan list and a bucket of every structure.

        The loop hoists every per-row attribute lookup and the
        per-index case-fold decision, so a million-row registrar's tape
        pays allocation cost only.  *violates(row)*, when given, is
        asked before each row is admitted; a true answer takes the
        batch's rows back out and raises MR_EXISTS.
        """
        entries_append = self.entries.append
        records = self.records
        index_plan = []
        for index in self.indexes.values():
            column = index.column
            fold = column.kind is str and column.fold_case
            index_plan.append((column.name, index, fold, index.buckets))
        comp_plan = [(comp.key_of, comp.buckets)
                     for comp in self.composites.values()]
        lone = _Entry
        for n, data in enumerate(rows):
            if violates is not None and violates(data):
                for done in reversed(rows[:n]):
                    self.undo_insert(records[id(done)], seq)
                raise MoiraError(MR_EXISTS, f"{self.table.name}: {data}")
            record = _Record(data, seq)
            records[id(data)] = record
            entry = record.entry
            entries_append(entry)
            for name, index, fold, buckets in index_plan:
                key = data[name]
                if fold:
                    key = str(key).lower()
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = entry
                    index.key_epoch += 1
                elif bucket.__class__ is lone:
                    buckets[key] = [bucket, entry]
                else:
                    bucket.append(entry)
            for key_of, buckets in comp_plan:
                key = key_of(data)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = entry
                elif bucket.__class__ is lone:
                    buckets[key] = [bucket, entry]
                else:
                    bucket.append(entry)
        self._note(len(rows), dead=0)

    def on_update(self, record: _Record, changes: dict, seq: int):
        """Publish the record's row with *changes* applied as a new
        version (the old row is left as it was); returns the undo token
        (used by write-transaction aborts)."""
        old = record.current
        data = {**old.data, **changes}      # the post-update state
        fresh = _Version(data, seq, INF_SEQ, old)
        # publication order: close the old window, then swap the head —
        # a concurrent reader sees either (old, open) or (old, closed)
        # or (fresh → old), all of which resolve identically below seq
        old.end = seq
        record.current = fresh
        record.row = data
        records = self.records
        del records[id(old.data)]
        records[id(data)] = record
        self.retired_chains[id(record)] = record
        # (slot, structure, retired entry, fresh entry, fresh key) per
        # re-bucketed structure, so an abort can reopen exactly what
        # this statement closed.  A row is re-bucketed only when the
        # update moves its key, so a kept entry keeps its place and
        # answers for both versions: each reader resolves the record
        # at its own seq.
        replaced: list = []
        for name in changes:
            index = self.indexes.get(name)
            if index is None:
                continue
            key = index.key_of(data[name])
            stale_key = index.key_of(old.data[name])
            if key != stale_key:
                self._rebucket(record, name, index, stale_key, key, seq,
                               replaced)
        for names, comp in self.composites.items():
            if not any(name in changes for name in names):
                continue
            key, stale_key = comp.key_of(data), comp.key_of(old.data)
            if key != stale_key:
                self._rebucket(record, names, comp, stale_key, key, seq,
                               replaced)
        self._note(1)
        return (record, old, replaced)

    def _rebucket(self, record: _Record, slot, structure, stale_key, key,
                  seq: int, replaced: list) -> None:
        """Move *record* from *stale_key*'s bucket of *structure* to
        *key*'s.  The first move leaves the shared entry's window to
        the scan list and the other structures: a closed copy of it
        takes its place in the old bucket (a reader walking that bucket
        sees one or the other, each visible below *seq*).  A later move
        closes the record's own entry where it stands."""
        moved = record.moved
        if moved is None:
            moved = record.moved = {}
        stale = moved.get(structure.pos)
        if stale is None:
            shared = record.entry
            stale = _Entry(record, shared.begin, seq)
            _bucket_replace(structure.buckets, stale_key, shared, stale)
        else:
            stale.end = seq
        self._retire(slot, stale_key, stale)
        entry = moved[structure.pos] = _Entry(record, seq, INF_SEQ)
        structure.append(key, entry)
        replaced.append((slot, structure, stale, entry, key))

    def on_delete(self, record: _Record, seq: int) -> None:
        """Retire one row (:meth:`undo_delete` takes the record back)."""
        del self.records[id(record.row)]
        record.current.end = seq
        self._retire_live(record, seq)
        self._note(1)

    # -- abort undo (write transactions) -------------------------------------
    # All undo runs on the writer path, under the writer lock and
    # *before* the aborting transaction's seq publishes — so no
    # snapshot can ever be pinned at the aborted seq, and closing a
    # window to the empty range [seq, seq) makes the version dead for
    # every reader past and future.  GC reclaims the husks normally:
    # they are queued like any retirement, and an entry an abort
    # reopens leaves the queue when the collector finds it open.  Each
    # undo costs the rows it undoes: entries are reopened where they
    # stand, so scan and bucket order come back as they were.

    def undo_insert(self, record: _Record, seq: int) -> None:
        del self.records[id(record.row)]
        record.current.end = seq        # empty window: never visible
        self._retire_live(record, seq)

    def undo_update(self, token, seq: int) -> None:
        record, old, replaced = token
        # reopen the pre-update head, then swap it back (reverse of the
        # publication order; the aborted version is orphaned)
        records = self.records
        del records[id(record.row)]
        old.end = INF_SEQ
        record.current = old
        record.row = old.data
        records[id(old.data)] = record
        # the retired entry reopens where it stands, as the record's
        # own (a copy of the shared entry reopens with its window)
        for slot, structure, stale, entry, key in replaced:
            entry.end = seq             # dead: [seq, seq)
            self._retire(slot, key, entry)
            stale.end = INF_SEQ
            record.moved[structure.pos] = stale

    def undo_delete(self, record: _Record) -> None:
        self.records[id(record.row)] = record
        record.current.end = INF_SEQ
        record.entry.end = INF_SEQ
        for entry in (record.moved or {}).values():
            entry.end = INF_SEQ

    def on_clear(self, seq: int) -> None:
        for record in self.records.values():
            record.current.end = seq
            self._retire_live(record, seq)
        self.records.clear()
        self._note(1)

    def on_add_index(self, column) -> None:
        """Create and backfill a single-column index, windows included.

        Historical windows are reconstructed by coalescing equal-key
        runs along each record's version chain, so already-pinned
        snapshots resolve correctly through the new index too.
        """
        index = _MvIndex(column, len(self.slots))
        self._backfill(column.name, index,
                       lambda data: index.key_of(data[column.name]))
        self.indexes[column.name] = index

    def on_add_composite_index(self, columns) -> None:
        comp = _MvComposite(columns, len(self.slots))
        self._backfill(comp.names, comp, comp.key_of)
        self.composites[comp.names] = comp

    def _backfill(self, slot, structure, key_of) -> None:
        """Fill *structure*, the store's next slot, from every record's
        version chain, and append the slot.  A record whose chain holds
        one key, still open, joins with its shared entry."""
        for shared in self.entries:         # one scan entry per record
            record = shared.record
            runs = list(self._key_runs(record, key_of))
            if len(runs) == 1 and runs[0][3]:
                structure.append(runs[0][0], shared)
                continue
            for key, begin, end, is_open in runs:
                entry = _Entry(record, begin, end)
                structure.append(key, entry)
                if is_open:
                    if record.moved is None:
                        record.moved = {}
                    record.moved[structure.pos] = entry
                else:
                    self._retire(slot, key, entry)
        self.slots.append(slot)

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
            bucket = structure.buckets.get(key)
            if bucket is None:
                continue
            members = entries_of(bucket)
            keep = [e for e in members if e.end > horizon]
            visited += len(members)
            entries_freed += len(members) - len(keep)
            if len(keep) > 1:
                structure.buckets[key] = keep
            elif keep:
                structure.buckets[key] = keep[0]
            else:
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

    Planning is the table's own (``Table._plan_read``: shapes and
    schema epochs are thread-safe enough under the GIL); only the
    resolve loop differs from a head read: an entry counts when its
    window holds the pinned seq, and it resolves to the record's
    version at that seq.  A published row state never changes, so a
    writer cannot tear a snapshot read.
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
        run on the writer's head)."""
        return None

    # -- retrieval -----------------------------------------------------------

    def iter_select(self, where: Optional[dict] = None, *,
                    predicate=None) -> Iterator[dict]:
        """Yield rows matching *where* at the pinned seq — the head
        read's plan, candidates and result order at that seq."""
        entries, check = self._table._plan_read(where, predicate)
        return self._matching(entries, check)

    def _matching(self, entries, check) -> Iterator[dict]:
        """Visible rows of *entries* that pass *check*, counted on
        the snapshot: one loop, no generator per stage."""
        snap = self._snap
        seq = snap.seq
        scanned = returned = 0
        try:
            for entry in entries:
                scanned += 1
                if entry.begin <= seq < entry.end:
                    data = _visible(entry.record, seq)
                    if data is not None and (check is None
                                             or check(data)):
                        returned += 1
                        yield data
        finally:
            snap.rows_scanned += scanned
            snap.rows_returned += returned

    def select(self, where: Optional[dict] = None, *,
               predicate=None) -> list[dict]:
        entries, check = self._table._plan_read(where, predicate)
        if check is not None:
            return list(self._matching(entries, check))
        # every visible entry matches (a scan, or one covering bucket):
        # resolved in one loop
        snap = self._snap
        seq = snap.seq
        out = [data for entry in entries
               if entry.begin <= seq < entry.end
               and (data := _visible(entry.record, seq)) is not None]
        snap.rows_scanned += len(entries)
        snap.rows_returned += len(out)
        return out

    def probe(self, column: str):
        """The one-row join at the pinned seq: one bucket of *column*'s
        index per value, its first entry visible here — no plan —
        counted on the snapshot as :meth:`select` counts."""
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
            bucket = buckets.get(value.lower() if fold else value)
            if bucket is None:
                return None
            if bucket.__class__ is _Entry:
                bucket = (bucket,)
            scanned = 0
            for entry in bucket:
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

    def join(self, key: str, column: str):
        """:meth:`StorageTable.join`, its memo shared by every snapshot
        that sees this relation's current rows
        (:meth:`TableVersionStore.join_memo`): a value joined once is
        a dict hit for every later scan until the relation changes.
        A snapshot older than the relation's last commit memoises for
        this scan alone."""
        memos = self._store.join_memo(self._snap.seq)
        if memos is None:
            return StorageTable.join(self, key, column)
        return memo_join(self.probe(key), column,
                         memos.setdefault((key, column), {}))

    def count(self, where: Optional[dict] = None) -> int:
        entries, check = self._table._plan_read(where, None)
        if check is not None:
            return sum(1 for _ in self._matching(entries, check))
        seq = self._snap.seq
        return sum(1 for e in entries if e.begin <= seq < e.end)

    @property
    def rows(self) -> list[dict]:
        """Visible row states in scan order (immutable dicts)."""
        seq = self._snap.seq
        return [data for entry in self._store.entries
                if entry.begin <= seq < entry.end
                and (data := _visible(entry.record, seq)) is not None]

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
