"""In-memory relational engine with Moira-flavoured query semantics.

Design notes
------------

*Tables* hold rows as dicts keyed by column name.  Columns are typed
(``int`` or ``str``) and may be declared case-insensitive (Moira machine
and service names compare case-insensitively and are stored uppercase) or
size-limited (the original schema has fixed-width INGRES ``c`` fields and
over-long arguments yield ``MR_ARG_TOO_LONG``).

*Wildcards* follow the paper's query semantics: ``*`` matches any run of
characters and ``?`` a single character, anywhere in a string argument.

*Indexes* are plain hash indexes maintained on insert/update/delete; the
query layer requests them on the columns its handles filter by, which is
what keeps the 10,000-user design point fast.  *Composite* indexes hash
several columns at once for the hot multi-column WHERE shapes (the
``members`` existence probe, ``alias`` type rows, ACE probes); a fully
covered exact WHERE answers straight from one bucket.

*Query plans* are compiled per (table, WHERE-shape) and cached: the ~100
predefined query handles hit a small fixed set of shapes, so column
classification (exact vs wildcard), coercion dispatch, and index choice
happen once and replay with zero re-analysis.  Compiled wildcard
patterns live in a bounded LRU.  Plans are invalidated by a schema
epoch that moves on ``add_index``/``add_composite_index``.

*Statistics* reproduce the TBLSTATS relation: per-table append/update/
delete counters plus a modtime, maintained automatically.

*Change tracking* goes beyond TBLSTATS: every data mutation bumps a
monotonically increasing per-table ``version`` (DCM bookkeeping writes
with ``touch_stats=False`` do not count, mirroring the paper's "refer
only to modification by a user, not by the DCM"), and tables may keep a
bounded changed-row log so incremental consumers (the DCM generators)
can patch their extracts instead of re-deriving them.
"""

from __future__ import annotations

import bisect
import fnmatch
import re
import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from typing import Any, Callable, ContextManager, Iterable, Iterator, Optional

from repro.db.backend import LockTxn, StorageBackend, StorageTable
from repro.db.rwlock import RWLock

from repro.errors import (
    MoiraError,
    MR_ARG_TOO_LONG,
    MR_BAD_CHAR,
    MR_EXISTS,
    MR_INTEGER,
    MR_INTERNAL,
    MR_NO_ID,
)

Row = dict  # rows are plain dicts; Table owns their lifecycle

__all__ = ["Column", "Table", "TableChange", "Database", "Row",
           "WildcardPattern"]


class _TxnLock(RWLock):
    """The database lock, with MVCC transaction hooks.

    The first exclusive acquisition by a thread opens an MVCC
    transaction (one commit seq covering every mutation statement made
    under the hold, however re-entrant); releasing the outermost hold
    commits it — making the committed seq visible to new snapshot pins
    only once every structure the transaction touched is published.
    Shared mode is untouched: it still exists for whole-database
    operations (backup, restore) even though snapshot readers no
    longer take it.
    """

    def __init__(self, db: "Database") -> None:
        super().__init__()
        self._db = db

    def acquire_exclusive(self) -> None:
        super().acquire_exclusive()
        if self._writer_count == 1:
            self._db._mv_txn_enter()

    def release_exclusive(self) -> None:
        me = threading.get_ident()
        if self._writer == me and self._writer_count == 1:
            # still holding: commit before the lock opens to the next
            # writer, so seqs stamp in strict lock order
            self._db._mv_txn_exit()
        super().release_exclusive()


class _Txn:
    """One writer transaction on a sharded database.

    Created either by :meth:`Database.write_txn` (a query holding just
    the shards it touches, or all of them) or by the
    :class:`_ShardedTxnLock` facade (``with db.lock:`` — every shard,
    the seed's total exclusion).  The commit seq is assigned lazily at
    the first mutation, *while the shard locks are held*, so version
    chains stay monotone per record; publication goes through the
    database's commit gate so seqs become visible — and reach the
    journal — in strictly increasing order.
    """

    __slots__ = ("shards", "all_shards", "facade", "depth", "seq",
                 "dirty", "undo", "mutated", "bindings")

    def __init__(self, shards: tuple, *, all_shards: bool,
                 facade: bool, undo: bool):
        self.shards = shards            # sorted shard names held
        self.all_shards = all_shards
        self.facade = facade            # owned by the db.lock facade
        self.depth = 1
        self.seq = 0                    # 0 = no commit seq assigned yet
        self.dirty = False
        self.undo: Optional[list] = [] if undo else None
        self.mutated: set[str] = set()  # table names touched
        self.bindings: Optional[dict] = None   # consumed ids / strings

    def bind_id(self, hint: str, value: int) -> None:
        b = self.bindings
        if b is None:
            b = self.bindings = {}
        b.setdefault("id", {}).setdefault(hint, []).append(value)

    def bind_intern(self, text: str, string_id: int) -> None:
        b = self.bindings
        if b is None:
            b = self.bindings = {}
        b.setdefault("intern", {})[text] = string_id


class _ShardedTxnLock:
    """``db.lock`` on a sharded database: all shards, in order.

    Exclusive mode (``with db.lock:``) takes every shard's writer side
    in sorted-name order (the same global order every shard transaction
    uses, so no acquisition cycles exist), shared mode
    (``read_locked()``) every reader side.  The first exclusive hold by a
    thread opens an all-shards transaction and the outermost release
    commits it, preserving the seed's ``with db.lock:`` semantics
    byte for byte: whole-database operations (restore, replica reload,
    version GC) get one commit seq per lock hold and never roll back.
    """

    def __init__(self, db: "Database") -> None:
        self._db = db
        self._names = tuple(sorted(db._shard_locks))
        self._locks = [db._shard_locks[name] for name in self._names]

    # -- exclusive ----------------------------------------------------------

    def acquire_exclusive(self) -> None:
        for lock in self._locks:
            lock.acquire_exclusive()
        db = self._db
        me = threading.get_ident()
        txn = db._txns.get(me)
        if txn is not None:
            if txn.facade:
                txn.depth += 1
            # a shard txn re-entering via the facade keeps its own txn:
            # the extra locks are plain re-entrant holds (it already
            # owns a subset; the rest are fresh but commit-free)
            return
        db._txns[me] = _Txn(self._names, all_shards=True,
                            facade=True, undo=False)

    def release_exclusive(self) -> None:
        db = self._db
        me = threading.get_ident()
        txn = db._txns.get(me)
        if txn is not None and txn.facade:
            if txn.depth == 1:
                del db._txns[me]
                db._facade_commit(txn)
            else:
                txn.depth -= 1
        for lock in reversed(self._locks):
            lock.release_exclusive()

    # -- shared -------------------------------------------------------------

    def acquire_shared(self) -> None:
        for lock in self._locks:
            lock.acquire_shared()

    def release_shared(self) -> None:
        for lock in reversed(self._locks):
            lock.release_shared()

    # -- context managers (``read_locked()`` / ``with db.lock:``) -----------

    @contextmanager
    def shared(self):
        self.acquire_shared()
        try:
            yield
        finally:
            self.release_shared()

    def __enter__(self) -> "_ShardedTxnLock":
        self.acquire_exclusive()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release_exclusive()

    @property
    def write_locked(self) -> bool:
        return any(lock.write_locked for lock in self._locks)


class _ShardTxnContext:
    """Context manager behind :meth:`Database.write_txn` on a sharded
    database."""

    def __init__(self, db: "Database", shard_names, commit_hook,
                 abort_hook):
        self._db = db
        self._names = (None if shard_names is None
                       else tuple(shard_names))
        self._commit_hook = commit_hook
        self._abort_hook = abort_hook
        self._locks: list[RWLock] = []
        self._txn: Optional[_Txn] = None

    def __enter__(self) -> _Txn:
        db = self._db
        if db._txns is None:
            raise MoiraError(MR_INTERNAL,
                             "shard_txn on an unsharded database")
        if db._active_txn() is not None:
            raise MoiraError(MR_INTERNAL, "nested shard transaction")
        if self._names is None:
            names = tuple(sorted(db._shard_locks))
        else:
            names = db._sorted_shards(self._names)
        for name in names:              # sorted order: no cycles
            lock = db._shard_locks[name]
            lock.acquire_exclusive()
            self._locks.append(lock)
        txn = _Txn(names,
                   all_shards=(len(names) == len(db._shard_locks)),
                   facade=False, undo=True)
        db._txns[threading.get_ident()] = txn
        self._txn = txn
        return txn

    def __exit__(self, exc_type, exc, tb) -> bool:
        db = self._db
        txn = self._txn
        try:
            db._txns.pop(threading.get_ident(), None)
            if exc_type is None:
                db._txn_commit(txn, self._commit_hook)
            else:
                db._txn_abort(txn, self._abort_hook)
        finally:
            for lock in reversed(self._locks):
                lock.release_exclusive()
        return False


_WILDCARD_CHARS = ("*", "?")

# Characters Moira rejects in checked string fields (names, logins...).
# The paper's MR_BAD_CHAR covers control characters and the backup
# format's reserved separators.
_BAD_CHAR_RE = re.compile(r"[\x00-\x1f\x7f]")


class WildcardPattern:
    """A compiled Moira wildcard pattern (``*`` and ``?``).

    ``fnmatch.translate`` gives exactly the star/question-mark semantics
    the paper's queries describe; character classes are not part of the
    Moira language, so ``[`` is escaped before translation.
    """

    def __init__(self, pattern: str, fold_case: bool = False):
        self.pattern = pattern
        self.fold_case = fold_case
        escaped = pattern.replace("[", "[[]")
        flags = re.IGNORECASE if fold_case else 0
        self._regex = re.compile(fnmatch.translate(escaped), flags)

    @staticmethod
    def is_wild(value: str) -> bool:
        """Does *value* contain a Moira wildcard character?"""
        return any(ch in value for ch in _WILDCARD_CHARS)

    @classmethod
    def compile(cls, pattern: str,
                fold_case: bool = False) -> "WildcardPattern":
        """A compiled pattern from the bounded process-wide LRU."""
        return _PATTERN_LRU.get(pattern, fold_case)

    def matches(self, value: str) -> bool:
        """Does *value* match this pattern?"""
        return bool(self._regex.match(value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WildcardPattern({self.pattern!r})"


class _PatternLRU:
    """Bounded LRU of compiled :class:`WildcardPattern` objects.

    The predefined handles send the same handful of patterns over and
    over (``*``, caller-typed prefixes); regex compilation is the
    expensive part of wildcard classification, so it is paid once per
    distinct (pattern, fold) pair.  Thread-safe: worker-pool readers
    compile concurrently.
    """

    def __init__(self, capacity: int = 512):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, bool], WildcardPattern] = \
            OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, pattern: str, fold_case: bool) -> WildcardPattern:
        key = (pattern, fold_case)
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return found
            self.misses += 1
        compiled = WildcardPattern(pattern, fold_case)
        with self._lock:
            self._entries[key] = compiled
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return compiled


_PATTERN_LRU = _PatternLRU()


def _literal_prefix(pattern: str) -> Optional[str]:
    """The literal prefix of a ``prefix*`` pattern, or None.

    Only patterns whose single wildcard is one trailing ``*`` qualify —
    those are answerable from an index's sorted keys without a scan.
    """
    if len(pattern) < 2 or not pattern.endswith("*"):
        return None
    head = pattern[:-1]
    if WildcardPattern.is_wild(head):
        return None
    return head


class Column:
    """A typed column in a relation."""

    def __init__(
        self,
        name: str,
        kind: type = str,
        *,
        max_len: Optional[int] = None,
        fold_case: bool = False,
        default: Any = None,
        checked: bool = False,
    ):
        if kind not in (int, str):
            raise ValueError("columns are int or str")
        self.name = name
        self.kind = kind
        self.max_len = max_len
        self.fold_case = fold_case
        self.default = default if default is not None else (0 if kind is int else "")
        self.checked = checked

    def coerce(self, value: Any) -> Any:
        """Validate and normalise *value* for storage in this column.

        String→int parse failures raise ``MR_INTEGER``; over-long strings
        raise ``MR_ARG_TOO_LONG``; control characters in *checked*
        columns raise ``MR_BAD_CHAR`` — matching the paper's general
        query error list.
        """
        if self.kind is int:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, int):
                return value
            try:
                return int(str(value).strip())
            except ValueError:
                raise MoiraError(MR_INTEGER, f"{self.name}={value!r}") from None
        value = str(value)
        if self.max_len is not None and len(value) > self.max_len:
            raise MoiraError(MR_ARG_TOO_LONG, f"{self.name} ({len(value)} chars)")
        if self.checked and _BAD_CHAR_RE.search(value):
            raise MoiraError(MR_BAD_CHAR, self.name)
        return value

    def equal(self, a: str, b: str) -> bool:
        """Column-typed equality (case-folded where declared)."""
        if self.kind is int:
            return a == b
        if self.fold_case:
            return str(a).lower() == str(b).lower()
        return a == b


class TableChange:
    """One entry of a table's bounded changed-row log.

    ``op`` is ``"insert"``, ``"update"`` or ``"delete"``; ``before`` and
    ``after`` are snapshot copies of the row around the mutation (None
    where not applicable), so consumers can undo a keyed line even when
    the key column itself changed.
    """

    __slots__ = ("version", "op", "before", "after")

    def __init__(self, version: int, op: str,
                 before: Optional[Row], after: Optional[Row]):
        self.version = version
        self.op = op
        self.before = before
        self.after = after

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TableChange(v{self.version}, {self.op})"


class _Index:
    """Hash index on one column, maintained by the owning table.

    Besides exact lookups, the index answers *prefix* queries (the
    ``CHURN*`` wildcard shape) from a lazily rebuilt sorted key list —
    rebuilt at most once per mutation epoch, so repeated prefix queries
    against a stable table never scan.
    """

    def __init__(self, column: Column):
        self.column = column
        self.buckets: dict[Any, list[Row]] = {}
        self._sorted_keys: Optional[list] = None

    def _key(self, value: Any) -> Any:
        if self.column.kind is str and self.column.fold_case:
            return str(value).lower()
        return value

    def add(self, row: Row) -> None:
        """Index *row* under its column value."""
        key = self._key(row[self.column.name])
        bucket = self.buckets.get(key)
        if bucket is None:
            self.buckets[key] = [row]
            self._sorted_keys = None  # key set changed
        else:
            bucket.append(row)

    def remove(self, row: Row) -> None:
        """Drop *row* from its bucket."""
        key = self._key(row[self.column.name])
        bucket = self.buckets.get(key)
        if bucket is None:
            raise MoiraError(MR_INTERNAL, f"index missing bucket {key!r}")
        bucket.remove(row)
        if not bucket:
            del self.buckets[key]
            self._sorted_keys = None  # key set changed

    def lookup(self, value: Any) -> list[Row]:
        """All rows indexed under *value*."""
        return self.buckets.get(self._key(value), [])

    def prefix_lookup(self, prefix: str) -> list[Row]:
        """All rows whose (folded) key starts with *prefix*.

        Non-string keys (an index on an int-typed column) can never
        match a string prefix, so they are excluded from the sorted key
        list instead of crashing ``key.startswith``.
        """
        if self.column.fold_case:
            prefix = prefix.lower()
        if self._sorted_keys is None:
            self._sorted_keys = sorted(
                k for k in self.buckets if isinstance(k, str))
        keys = self._sorted_keys
        out: list[Row] = []
        for i in range(bisect.bisect_left(keys, prefix), len(keys)):
            key = keys[i]
            if not key.startswith(prefix):
                break
            out.extend(self.buckets[key])
        return out


class _CompositeIndex:
    """Hash index over several columns (tuple-keyed buckets).

    Declared in the schema for hot multi-column WHERE shapes; a bucket
    holds exactly the rows equal (per column semantics, case folded
    where declared) on every indexed column, so an exact WHERE fully
    covered by the index needs no residual filtering at all.
    """

    def __init__(self, columns: list[Column]):
        self.columns = tuple(columns)
        self.names = tuple(c.name for c in columns)
        self.buckets: dict[tuple, list[Row]] = {}

    @staticmethod
    def _fold(column: Column, value: Any) -> Any:
        if column.kind is str and column.fold_case:
            return str(value).lower()
        return value

    def _row_key(self, row: Row) -> tuple:
        return tuple(self._fold(c, row[c.name]) for c in self.columns)

    def add(self, row: Row) -> None:
        """Index *row* under its tuple of column values."""
        self.buckets.setdefault(self._row_key(row), []).append(row)

    def remove(self, row: Row) -> None:
        """Drop *row* from its bucket."""
        key = self._row_key(row)
        bucket = self.buckets.get(key)
        if bucket is None:
            raise MoiraError(MR_INTERNAL,
                             f"composite index missing bucket {key!r}")
        bucket.remove(row)
        if not bucket:
            del self.buckets[key]

    def lookup_values(self, values: dict) -> list[Row]:
        """All rows whose indexed columns equal *values* (coerced)."""
        key = tuple(self._fold(c, values[c.name]) for c in self.columns)
        return self.buckets.get(key, [])


# WHERE-shapes per table kept compiled; ad-hoc callers with unbounded
# shape variety (tests) just recompile instead of growing the dict.
_PLAN_CACHE_LIMIT = 64


class _Plan:
    """A compiled (table, WHERE-shape) execution plan.

    A *shape* is the name-sorted tuple of (column, is-wildcard) pairs of
    a WHERE dict.  The plan fixes everything that does not depend on the
    actual argument values: resolved Column objects for coercion, the
    widest composite index contained in the exact columns, the
    single-column indexes available for selectivity comparison, and
    whether the plan is fully *covered* (one bucket answers the query
    with no residual filtering; its length answers ``count()``).
    Compiled once, replayed with zero re-analysis until the table's
    schema epoch moves.
    """

    __slots__ = ("epoch", "exact", "wild", "composite", "covered", "single")

    def __init__(self, table: "Table", shape: tuple[tuple[str, bool], ...],
                 epoch: int):
        self.epoch = epoch
        self.exact: tuple[tuple[str, Column], ...] = tuple(
            (name, table.columns[name])
            for name, is_wild in shape if not is_wild)
        # wildcard columns carry their single index (or None) for the
        # literal-prefix fast path
        self.wild: tuple[tuple[str, Column, Optional[_Index]], ...] = tuple(
            (name, table.columns[name], table._indexes.get(name))
            for name, is_wild in shape if is_wild)
        exact_names = {name for name, _ in self.exact}
        self.composite: Optional[_CompositeIndex] = None
        for comp in table._composites.values():
            if set(comp.names) <= exact_names:
                if self.composite is None or \
                        len(comp.names) > len(self.composite.names):
                    self.composite = comp
        self.single: tuple[tuple[str, _Index], ...] = tuple(
            (name, table._indexes[name])
            for name, _ in self.exact if name in table._indexes)
        # covered: no wildcards, and one bucket *is* the full answer —
        # either a composite over every exact column, or a single
        # indexed column that is the whole WHERE
        self.covered = not self.wild and (
            (self.composite is not None
             and len(self.composite.names) == len(self.exact))
            or (len(self.exact) == 1 and len(self.single) == 1))

    def covered_bucket(self, exact_values: dict) -> list[Row]:
        """The one bucket answering a covered plan (see ``covered``)."""
        if self.composite is not None and \
                len(self.composite.names) == len(self.exact):
            return self.composite.lookup_values(exact_values)
        name, index = self.single[0]
        return index.lookup(exact_values[name])


class TableStats:
    """Reproduction of the TBLSTATS relation's per-table counters."""

    __slots__ = ("appends", "updates", "deletes", "retrieves", "modtime")

    def __init__(self) -> None:
        self.appends = 0
        self.updates = 0
        self.deletes = 0
        self.retrieves = 0  # "obsolete ... unused now for performance reasons"
        self.modtime = 0

    def as_tuple(self, table: str) -> tuple:
        """The TBLSTATS row for *table*."""
        return (table, self.retrieves, self.appends, self.updates,
                self.deletes, self.modtime)


class Table(StorageTable):
    """One relation: schema, rows, indexes, uniqueness, statistics."""

    def __init__(
        self,
        name: str,
        columns: list[Column],
        *,
        unique: Iterable[tuple[str, ...]] = (),
        indexes: Iterable[str] = (),
        composite_indexes: Iterable[tuple[str, ...]] = (),
        changelog: int = 0,
    ):
        self.name = name
        self.columns: dict[str, Column] = {c.name: c for c in columns}
        if len(self.columns) != len(columns):
            raise ValueError(f"duplicate column in {name}")
        self.rows: list[Row] = []
        self.unique_keys: list[tuple[str, ...]] = [tuple(u) for u in unique]
        self._indexes: dict[str, _Index] = {}
        self._composites: dict[tuple[str, ...], _CompositeIndex] = {}
        self._plans: dict[tuple, _Plan] = {}
        self._schema_epoch = 0
        self._fast_path = True
        # the MVCC side version store (attached by Database.create_table
        # when MVCC is enabled; None = zero overhead, seed behaviour)
        self._mv = None
        # seq of this table's newest mutation, stamped at mutation time
        # (pre-commit) — snapshot readers use it to validate shared
        # caches like the membership closure against their pinned seq
        self.mv_last_seq = 0
        self.stats = TableStats()
        # data version: bumped once per mutated row (never by DCM
        # bookkeeping writes), the basis of the generators' exact
        # no-change check
        self.version = 0
        self._changelog: Optional[deque[TableChange]] = (
            deque(maxlen=changelog) if changelog > 0 else None)
        for col in indexes:
            self.add_index(col)
        for cols in composite_indexes:
            self.add_composite_index(cols)
        # every unique key's first column gets an index so uniqueness
        # checks don't scan
        for key in self.unique_keys:
            if key[0] not in self._indexes:
                self.add_index(key[0])

    # -- schema helpers -----------------------------------------------------

    def column(self, name: str) -> Column:
        """The Column named *name* (MR_INTERNAL if unknown)."""
        try:
            return self.columns[name]
        except KeyError:
            raise MoiraError(MR_INTERNAL,
                             f"no column {name!r} in {self.name}") from None

    def add_index(self, column_name: str) -> None:
        """Create (and backfill) a hash index on a column."""
        column = self.column(column_name)
        index = _Index(column)
        for row in self.rows:
            index.add(row)
        self._indexes[column_name] = index
        self._schema_epoch += 1  # cached plans re-analyse lazily
        if self._mv is not None:
            self._mv.on_add_index(column_name)

    def add_composite_index(self, column_names: Iterable[str]) -> None:
        """Create (and backfill) a hash index over several columns."""
        columns = [self.column(name) for name in column_names]
        if len(columns) < 2:
            raise ValueError("composite index needs at least two columns")
        index = _CompositeIndex(columns)
        for row in self.rows:
            index.add(row)
        self._composites[index.names] = index
        self._schema_epoch += 1
        if self._mv is not None:
            self._mv.on_add_composite_index(index.names)

    def set_fast_path(self, enabled: bool) -> None:
        """Toggle the compiled-plan path (benchmark/oracle knob).

        Disabled, ``iter_select`` runs the seed's per-call analysis
        (single-column index pick, fresh pattern compilation) — results
        are identical either way, which the oracle tests assert.
        """
        self._fast_path = bool(enabled)

    # -- change tracking ----------------------------------------------------

    def enable_changelog(self, capacity: int = 256) -> None:
        """Start keeping a bounded changed-row log (idempotent)."""
        if self._changelog is None or self._changelog.maxlen != capacity:
            self._changelog = deque(maxlen=capacity)

    def _bump(self, op: str, before: Optional[Row],
              after: Optional[Row]) -> None:
        self.version += 1
        if self._changelog is not None:
            self._changelog.append(TableChange(self.version, op,
                                               before, after))

    def changes_since(self, version: int) -> Optional[list[TableChange]]:
        """Every change after *version*, oldest first — or None if the
        log is disabled or has already dropped part of that range."""
        if self._changelog is None:
            return None
        if version >= self.version:
            return []
        # entries are contiguous: one per version bump, oldest dropped
        # first — so coverage back to `version` needs the entry for
        # version+1 to still be present
        if not self._changelog or self._changelog[0].version > version + 1:
            return None
        return [c for c in self._changelog if c.version > version]

    def _normalise(self, values: dict, *, partial: bool = False) -> Row:
        row: Row = {}
        for name, column in self.columns.items():
            if name in values:
                row[name] = column.coerce(values[name])
            elif not partial:
                row[name] = column.default
        unknown = set(values) - set(self.columns)
        if unknown:
            raise MoiraError(MR_INTERNAL,
                             f"unknown columns {sorted(unknown)} in {self.name}")
        return row

    def _violates_unique(self, candidate: Row, *, ignore: Optional[Row] = None) -> bool:
        for key in self.unique_keys:
            first = key[0]
            probe = self._indexes[first].lookup(candidate[first])
            for row in probe:
                if row is ignore:
                    continue
                if all(self.columns[col].equal(row[col], candidate[col])
                       for col in key):
                    return True
        return False

    # -- mutation -----------------------------------------------------------

    def insert(self, values: dict, *, now: int = 0) -> Row:
        """Add a row; enforces uniqueness, fills defaults."""
        row = self._normalise(values)
        if self._violates_unique(row):
            raise MoiraError(MR_EXISTS, f"{self.name}: {values}")
        self.rows.append(row)
        for index in self._indexes.values():
            index.add(row)
        for comp in self._composites.values():
            comp.add(row)
        prev_modtime = self.stats.modtime
        self.stats.appends += 1
        self.stats.modtime = now
        self._bump("insert", None, dict(row))
        mv = self._mv
        if mv is not None:
            seq, auto = mv.db._mv_begin(self)
            try:
                mv.on_insert(row, seq)
                self.mv_last_seq = seq
            finally:
                mv.db._mv_finish(seq, auto)
            undo = mv.db._txn_undo_list()
            if undo is not None:
                undo.append(lambda: self._undo_insert(
                    row, seq, prev_modtime))
        return row

    def update_rows(self, rows: list[Row], changes: dict, *, now: int = 0,
                    touch_stats: bool = True) -> int:
        """Apply *changes* to each row in *rows* (rows must belong here).

        ``touch_stats=False`` suppresses the TBLSTATS modtime bump for
        DCM bookkeeping writes — the paper is explicit that those "refer
        only to modification by a user, not by the DCM", and counting
        them as data changes would make every DCM cycle look like new
        data for the generators' no-change check.
        """
        coerced = self._normalise(changes, partial=True)
        for row in rows:
            candidate = dict(row)
            candidate.update(coerced)
            if self._violates_unique(candidate, ignore=row):
                raise MoiraError(MR_EXISTS, f"{self.name}: {changes}")
        touched_indexes = [idx for name, idx in self._indexes.items()
                           if name in coerced]
        touched_composites = [comp for comp in self._composites.values()
                              if any(name in coerced
                                     for name in comp.names)]
        mv = self._mv
        undo = (mv.db._txn_undo_list()
                if (mv is not None and rows) else None)
        old_values = None
        prev_modtime = self.stats.modtime
        if undo is not None:
            old_values = [{name: row[name] for name in coerced}
                          for row in rows]
        for row in rows:
            before = dict(row) if touch_stats else None
            for index in touched_indexes:
                index.remove(row)
            for comp in touched_composites:
                comp.remove(row)
            row.update(coerced)
            for index in touched_indexes:
                index.add(row)
            for comp in touched_composites:
                comp.add(row)
            if touch_stats:
                self._bump("update", before, dict(row))
        if touch_stats:
            self.stats.updates += len(rows)
            self.stats.modtime = now
        if mv is not None and rows:
            changed = set(coerced)
            seq, auto = mv.db._mv_begin(self)
            try:
                tokens = [mv.on_update(row, changed, seq)
                          for row in rows]
                self.mv_last_seq = seq
            finally:
                mv.db._mv_finish(seq, auto)
            if undo is not None:
                undo.append(lambda: self._undo_update(
                    list(rows), old_values, tokens, set(coerced), seq,
                    touch_stats, prev_modtime))
        return len(rows)

    def delete_rows(self, rows: list[Row], *, now: int = 0) -> int:
        """Remove the given rows in one pass, maintaining indexes."""
        if not rows:
            return 0
        mv = self._mv
        undo = mv.db._txn_undo_list() if mv is not None else None
        slots = None
        prev_modtime = self.stats.modtime
        if undo is not None:
            # scan-order positions, so an abort restores rows exactly
            # where they were (mrbackup dumps in scan order)
            wanted = {id(row) for row in rows}
            slots = [(i, row) for i, row in enumerate(self.rows)
                     if id(row) in wanted]
        for row in rows:
            for index in self._indexes.values():
                index.remove(row)
            for comp in self._composites.values():
                comp.remove(row)
            self._bump("delete", dict(row), None)
        # identity-set filter: one O(rows) pass instead of one
        # list.remove() scan per deleted row
        doomed = {id(row) for row in rows}
        self.rows = [row for row in self.rows if id(row) not in doomed]
        self.stats.deletes += len(rows)
        self.stats.modtime = now
        if mv is not None:
            seq, auto = mv.db._mv_begin(self)
            try:
                tokens = [mv.on_delete(row, seq) for row in rows]
                self.mv_last_seq = seq
            finally:
                mv.db._mv_finish(seq, auto)
            if undo is not None:
                undo.append(lambda: self._undo_delete(
                    slots, tokens, prev_modtime))
        return len(rows)

    def clear(self) -> None:
        """Drop every row (and index contents)."""
        self.rows.clear()
        for index in self._indexes.values():
            index.buckets.clear()
            index._sorted_keys = None
        for comp in self._composites.values():
            comp.buckets.clear()
        self._bump("clear", None, None)
        if self._changelog is not None:
            # a wholesale reload can't be described row-by-row; empty the
            # log so changes_since() reports the gap
            self._changelog.clear()
        # no undo hook: clear() is a whole-database operation (restore,
        # reload) that only ever runs under the full-exclusion facade,
        # which never aborts
        mv = self._mv
        if mv is not None:
            seq, auto = mv.db._mv_begin(self)
            try:
                mv.on_clear(seq)
                self.mv_last_seq = seq
            finally:
                mv.db._mv_finish(seq, auto)

    def bulk_load(self, rows: list[Row], *, now: int = 0) -> None:
        """Trusted batched append — the parallel population builder's path.

        *rows* must already be fully normalised: every column present
        with a value of the column's declared kind (the builder derives
        them from the schema, and the serial oracle build coerces the
        very same inputs through ``insert``).  Uniqueness is still
        enforced per row, but the per-row overheads of the general path
        are paid once per batch: the version advances by ``len(rows)``
        in one step, the changelog is emptied so ``changes_since``
        reports the gap (``clear()`` semantics — a bulk load is not
        describable row-by-row to incremental consumers), and every row
        shares one MVCC statement window and one undo closure.
        """
        if not rows:
            return
        if set(rows[0]) != set(self.columns):
            raise MoiraError(
                MR_INTERNAL,
                f"bulk_load row shape does not match {self.name}")
        indexes = list(self._indexes.values())
        composites = list(self._composites.values())
        append = self.rows.append
        for row in rows:
            if self._violates_unique(row):
                raise MoiraError(MR_EXISTS, f"{self.name}: {row}")
            append(row)
            for index in indexes:
                index.add(row)
            for comp in composites:
                comp.add(row)
        prev_modtime = self.stats.modtime
        self.stats.appends += len(rows)
        self.stats.modtime = now
        self.version += len(rows)
        if self._changelog is not None:
            self._changelog.clear()
        mv = self._mv
        if mv is not None:
            seq, auto = mv.db._mv_begin(self)
            try:
                mv.bulk_admit(rows, seq)
                self.mv_last_seq = seq
            finally:
                mv.db._mv_finish(seq, auto)
            undo = mv.db._txn_undo_list()
            if undo is not None:
                loaded = list(rows)
                undo.append(lambda: self._undo_bulk_load(
                    loaded, seq, prev_modtime))

    # -- abort undo ---------------------------------------------------------
    # Shard transactions (the server's batched write path) roll back a
    # failing write's own mutations so one bad write in a commit window
    # cannot poison its neighbors.  Undo restores logical row state and
    # scan order exactly (the mrbackup oracle dumps scan order); hash-
    # bucket order within an index may differ from the never-mutated
    # ordering, which is invisible to the dump and to any exact lookup.
    # Compensating _bump() entries keep the changelog consistent for
    # incremental DCM consumers instead of rewinding versions.

    def _undo_insert(self, row: Row, seq: int, prev_modtime: int) -> None:
        doomed = id(row)
        self.rows = [r for r in self.rows if id(r) != doomed]
        for index in self._indexes.values():
            index.remove(row)
        for comp in self._composites.values():
            comp.remove(row)
        self.stats.appends -= 1
        self.stats.modtime = prev_modtime
        self._bump("delete", dict(row), None)
        mv = self._mv
        if mv is not None:
            mv.undo_insert(row, seq)

    def _undo_bulk_load(self, rows: list[Row], seq: int,
                        prev_modtime: int) -> None:
        doomed = {id(row) for row in rows}
        self.rows = [r for r in self.rows if id(r) not in doomed]
        for row in rows:
            for index in self._indexes.values():
                index.remove(row)
            for comp in self._composites.values():
                comp.remove(row)
        self.stats.appends -= len(rows)
        self.stats.modtime = prev_modtime
        # one compensating bump; the changelog already reports a gap
        self.version += 1
        mv = self._mv
        if mv is not None:
            for row in reversed(rows):
                mv.undo_insert(row, seq)

    def _undo_update(self, rows: list[Row], old_values: list[dict],
                     tokens: list, changed: set, seq: int,
                     touch_stats: bool, prev_modtime: int) -> None:
        touched_indexes = [idx for name, idx in self._indexes.items()
                           if name in changed]
        touched_composites = [comp for comp in self._composites.values()
                              if any(name in changed
                                     for name in comp.names)]
        mv = self._mv
        for row, old, token in zip(reversed(rows), reversed(old_values),
                                   reversed(tokens)):
            after = dict(row) if touch_stats else None
            for index in touched_indexes:
                index.remove(row)
            for comp in touched_composites:
                comp.remove(row)
            row.update(old)
            for index in touched_indexes:
                index.add(row)
            for comp in touched_composites:
                comp.add(row)
            if touch_stats:
                self._bump("update", after, dict(row))
            if mv is not None and token is not None:
                mv.undo_update(token, seq)
        if touch_stats:
            self.stats.updates -= len(rows)
            self.stats.modtime = prev_modtime

    def _undo_delete(self, slots: list, tokens: list,
                     prev_modtime: int) -> None:
        # ascending re-insertion restores every original scan index
        for i, row in slots:
            self.rows.insert(i, row)
        for _i, row in slots:
            for index in self._indexes.values():
                index.add(row)
            for comp in self._composites.values():
                comp.add(row)
            self._bump("insert", None, dict(row))
        self.stats.deletes -= len(slots)
        self.stats.modtime = prev_modtime
        mv = self._mv
        if mv is not None:
            for token in reversed(tokens):
                if token is not None:
                    mv.undo_delete(token)

    # -- retrieval ----------------------------------------------------------

    def select(
        self,
        where: Optional[dict] = None,
        *,
        predicate: Optional[Callable[[Row], bool]] = None,
    ) -> list[Row]:
        """Return rows matching *where* (exact/wildcard per column) and
        *predicate*.

        String values containing ``*``/``?`` match as Moira wildcards;
        integer columns and exact strings use index lookups when one is
        available on that column.
        """
        return list(self.iter_select(where, predicate=predicate))

    def iter_select(
        self,
        where: Optional[dict] = None,
        *,
        predicate: Optional[Callable[[Row], bool]] = None,
    ) -> Iterator[Row]:
        """Yield matching rows (see select())."""
        where = where or {}
        if not self._fast_path:
            yield from self._iter_select_legacy(where, predicate)
            return
        if not where:
            for row in self.rows:
                if predicate is None or predicate(row):
                    yield row
            return

        plan, exact, wild = self._bind_plan(where)

        # fully covered exact WHERE: one bucket is the whole answer,
        # no residual filtering
        if plan.covered:
            bucket = plan.covered_bucket(exact)
            for row in bucket:
                if predicate is None or predicate(row):
                    yield row
            return

        # pick the most selective available bucket
        best: Optional[list[Row]] = None
        if plan.composite is not None:
            best = plan.composite.lookup_values(exact)
        for name, index in plan.single:
            bucket = index.lookup(exact[name])
            if best is None or len(bucket) < len(best):
                best = bucket
        # literal-prefix wildcards ("CHURN*") can use an index too —
        # the common prefix-query shape must not force a full scan
        for (name, _column, index), pattern in zip(plan.wild, wild):
            if index is None:
                continue
            prefix = _literal_prefix(pattern.pattern)
            if prefix is None:
                continue
            bucket = index.prefix_lookup(prefix)
            if best is None or len(bucket) < len(best):
                best = bucket
        if best is not None and not best:
            return
        candidates: Iterable[Row] = self.rows if best is None else best

        columns = self.columns
        for row in candidates:
            ok = True
            for name, _column in plan.exact:
                if not columns[name].equal(row[name], exact[name]):
                    ok = False
                    break
            if ok:
                for (name, _column, _index), pattern in zip(plan.wild, wild):
                    if not pattern.matches(str(row[name])):
                        ok = False
                        break
            if ok and predicate is not None and not predicate(row):
                ok = False
            if ok:
                yield row

    def _bind_plan(self, where: dict) -> tuple[
            _Plan, dict[str, Any], list[WildcardPattern]]:
        """Resolve the cached plan for *where* and bind its values.

        Returns (plan, coerced exact values, compiled wildcard patterns
        aligned with ``plan.wild``).  Classification per column is one
        ``is_wild`` string scan; everything else replays from the plan.
        """
        shape_parts = []
        for name in sorted(where):
            column = self.column(name)
            is_wild = (column.kind is str
                       and WildcardPattern.is_wild(str(where[name])))
            shape_parts.append((name, is_wild))
        shape = tuple(shape_parts)
        plan = self._plans.get(shape)
        if plan is None or plan.epoch != self._schema_epoch:
            if len(self._plans) >= _PLAN_CACHE_LIMIT:
                self._plans.clear()
            plan = _Plan(self, shape, self._schema_epoch)
            self._plans[shape] = plan
        exact = {name: column.coerce(where[name])
                 for name, column in plan.exact}
        wild = [WildcardPattern.compile(str(where[name]), column.fold_case)
                for name, column, _index in plan.wild]
        return plan, exact, wild

    def count(self, where: Optional[dict] = None) -> int:
        """Number of rows matching *where*.

        An exact-only WHERE fully covered by a (composite) index
        answers from the bucket length without iterating rows.
        """
        if not where:
            return len(self.rows)
        if self._fast_path:
            plan, exact, wild = self._bind_plan(where)
            if plan.covered and not wild:
                return len(plan.covered_bucket(exact))
        return sum(1 for _ in self.iter_select(where))

    def _iter_select_legacy(
        self,
        where: dict,
        predicate: Optional[Callable[[Row], bool]] = None,
    ) -> Iterator[Row]:
        """The seed's per-call path: re-classify, re-compile, re-pick.

        Kept verbatim as the ``set_fast_path(False)`` baseline — the
        E11 benchmark and the oracle tests compare the compiled-plan
        path against it for byte-identical results.
        """
        exact: dict[str, Any] = {}
        wild: dict[str, WildcardPattern] = {}
        for name, value in where.items():
            column = self.column(name)
            if column.kind is str and WildcardPattern.is_wild(str(value)):
                wild[name] = WildcardPattern(str(value), column.fold_case)
            else:
                exact[name] = column.coerce(value)

        candidates: Iterable[Row] = self.rows
        # pick the most selective available index
        best: Optional[tuple[str, list[Row]]] = None
        for name, value in exact.items():
            index = self._indexes.get(name)
            if index is None:
                continue
            bucket = index.lookup(value)
            if best is None or len(bucket) < len(best[1]):
                best = (name, bucket)
        for name, pattern in wild.items():
            index = self._indexes.get(name)
            prefix = _literal_prefix(pattern.pattern)
            if index is None or prefix is None:
                continue
            bucket = index.prefix_lookup(prefix)
            if best is None or len(bucket) < len(best[1]):
                best = (name, bucket)
        if best is not None:
            candidates = best[1]

        for row in candidates:
            ok = True
            for name, value in exact.items():
                if not self.columns[name].equal(row[name], value):
                    ok = False
                    break
            if ok:
                for name, pattern in wild.items():
                    if not pattern.matches(str(row[name])):
                        ok = False
                        break
            if ok and predicate is not None and not predicate(row):
                ok = False
            if ok:
                yield row

    def __len__(self) -> int:
        return len(self.rows)


class Database(StorageBackend):
    """A collection of relations plus the ID allocator and values helpers.

    The server holds exactly one Database (the paper's "one backend at
    daemon start-up").  Every query goes through one of two verbs:
    :meth:`read_view` pins a committed snapshot and takes no lock;
    :meth:`write_txn` takes writer exclusion (per shard once
    :meth:`declare_shards` ran) and commits through the in-order gate.
    ``with db.lock:`` still means total exclusion, for whole-database
    operations.  Concurrency control at the *service/host* level is
    the DCM LockManager's job, not ours.
    """

    def __init__(self) -> None:
        self.tables: dict[str, Table] = {}
        self.lock = _TxnLock(self)
        # the incrementally maintained membership-closure index (lazy;
        # ``closure_enabled=False`` falls back to the recursive walk)
        self.closure_enabled = True
        self._closure = None
        # -- MVCC state (docs/STORAGE_ENGINE.md) --------------------------
        # snapshot readers pin `_committed_seq` and scan the version
        # stores lock-free; only the exclusive (writer) side of `lock`
        # is ever contended.
        self._committed_seq = 0
        self._txn_owner: Optional[int] = None   # thread ident in txn
        self._txn_seq = 0
        self._txn_dirty = False
        # -- writer sharding (docs/WRITE_PATH.md) -------------------------
        # None until declare_shards(); then writer-writer exclusion is
        # per relation group and `lock` becomes the all-shards facade.
        self.shards: Optional[dict[str, tuple]] = None
        self._shard_locks: dict[str, RWLock] = {}
        self._shard_of: dict[str, str] = {}
        self._unversioned: set[str] = set()
        self._txns: Optional[dict[int, _Txn]] = None
        # leaf latch for the system relations (values, strings): id
        # allocation and string interning serialize here instead of on
        # the shard locks, so a shard transaction can allocate without
        # escalating to every shard (which would deadlock two partial
        # holders against each other)
        self._sys_latch = threading.RLock()
        # WAL-replay id scripting: thread ident -> {hint: [values]}.
        # Under concurrent shard commits, id allocations interleave in
        # an order that differs from commit-seq order, so a serial
        # replay must consume the journaled bindings instead of
        # re-allocating naturally (see recovery.apply_entries).
        self._scripted_ids: dict[int, dict[str, list]] = {}
        # the commit gate: `_seq_alloc` hands out seqs, `_seq_cond`
        # publishes them to `_committed_seq` in strictly increasing
        # order (journal appends happen inside the gate)
        self._seq_cond = threading.Condition()
        self._seq_alloc = 0
        self._pin_lock = threading.Lock()
        # pinned seq -> [pin count, monotonic time of first pin]
        self._pins: dict[int, list] = {}
        # version-GC pacing: run at transaction exit once this many
        # versions/entries accumulated since the last collection
        self.mv_gc_threshold = 50_000
        self._mv_pressure = 0
        self._mv_counters = {
            "commits": 0,
            "aborts": 0,
            "versions_created": 0,
            "snapshots_pinned": 0,
            "gc_runs": 0,
            "versions_reclaimed": 0,
            "entries_reclaimed": 0,
        }

    def membership_closure(self):
        """The membership-closure index over the ``members`` relation.

        Built lazily the first time an access-control path asks for it;
        None when ``closure_enabled`` is off or this database has no
        ``members`` relation (ad-hoc test databases, §5.1 D extra
        databases).
        """
        if not self.closure_enabled:
            return None
        if self._closure is None:
            if "members" not in self.tables:
                return None
            from repro.db.closure import MembershipClosure
            self._closure = MembershipClosure(self.tables["members"])
        return self._closure

    def set_fast_path(self, enabled: bool) -> None:
        """Toggle every fast path at once (benchmark knob): compiled
        plans on each table and the membership-closure index."""
        self.closure_enabled = bool(enabled)
        for table in self.tables.values():
            table.set_fast_path(enabled)

    def read_locked(self) -> ContextManager[None]:
        """Shared-mode critical section over the live tables (backup,
        the replication snapshot feed)."""
        return self.lock.shared()

    def system_latch(self) -> ContextManager[None]:
        """The leaf latch over ``values`` and ``strings`` once shards
        are declared (a shard transaction must never escalate to the
        full lock — two partial holders would deadlock); before that,
        the one lock."""
        return self._sys_latch if self._txns is not None else self.lock

    def create_table(self, table: Table) -> Table:
        """Register a new relation."""
        if table.name in self.tables:
            raise ValueError(f"table {table.name} already exists")
        self.tables[table.name] = table
        if table._mv is None and table.name not in self._unversioned:
            from repro.db.mvcc import TableVersionStore
            table._mv = TableVersionStore(self, table)
        return table

    # -- writer sharding ------------------------------------------------------

    def declare_shards(self, shards: dict, *,
                       system: Iterable[str] = ()) -> None:
        """Split writer–writer exclusion by relation group.

        *shards* maps shard name -> iterable of table names; every
        declared table gets its mutations guarded by that shard's
        RWLock instead of one global lock.  *system* tables (the
        ``values`` hint variables and the ``strings`` heap) belong to
        no shard: they detach from MVCC (snapshot reads fall back to
        the live table) and serialize on the ``_sys_latch`` leaf lock,
        so any shard transaction can allocate ids or intern strings
        without touching other shards.

        After this call ``db.lock`` is a facade that takes every shard
        in sorted-name order — ``with db.lock:`` still means total
        exclusion, one commit seq per hold.  Call once, on a quiescent
        database.
        """
        if self.shards is not None:
            raise ValueError("shards already declared")
        self.shards = {name: tuple(sorted(tables))
                       for name, tables in sorted(shards.items())}
        self._shard_locks = {name: RWLock() for name in self.shards}
        self._shard_of = {}
        for shard_name, tables in self.shards.items():
            for table_name in tables:
                if table_name in self._shard_of:
                    raise ValueError(
                        f"table {table_name!r} in two shards")
                self._shard_of[table_name] = shard_name
        self._unversioned = set(system)
        for table_name in self._unversioned:
            table = self.tables.get(table_name)
            if table is not None:
                table._mv = None
        self._txns = {}
        self.supports_bulk_load = True  # bulk apply runs under shard txns
        self._seq_alloc = self._committed_seq
        self.lock = _ShardedTxnLock(self)

    def _sorted_shards(self, names: Iterable[str]) -> tuple:
        """*names* in the one global acquisition order (sorted, so no
        two holders can cycle); MR_INTERNAL on an undeclared shard."""
        names = tuple(sorted(set(names)))
        unknown = [n for n in names if n not in self._shard_locks]
        if unknown:
            raise MoiraError(MR_INTERNAL, f"unknown shards {unknown}")
        return names

    def shards_for(self, tables) -> Optional[frozenset]:
        """Map a table footprint onto writer shard names; None (full
        exclusion) while shards are undeclared or when a table lies
        outside every shard.  System tables are shard-free and ignored."""
        if not self.shards:
            return None
        out = set()
        for name in tables:
            shard = self._shard_of.get(name)
            if shard is not None:
                out.add(shard)
            elif name not in self._unversioned:
                return None
        return frozenset(out)

    @contextmanager
    def hold_shards(self, shards, on_wait: Optional[Callable] = None):
        """Hold *shards*' writer locks (in sorted order, exactly as a
        transaction over them will) so the ``write_txn`` bodies inside
        re-enter instead of re-acquiring."""
        held = []
        try:
            for name in self._sorted_shards(shards):
                lock = self._shard_locks[name]
                waited = time.perf_counter()
                lock.acquire_exclusive()
                held.append(lock)
                if on_wait is not None:
                    on_wait(name, time.perf_counter() - waited)
            yield
        finally:
            for lock in reversed(held):
                lock.release_exclusive()

    def shard_txn(self, shard_names: Optional[Iterable[str]], *,
                  commit_hook: Optional[Callable] = None,
                  abort_hook: Optional[Callable] = None):
        """A writer transaction over just *shard_names* (None = all).

        Acquires the named shards' writer locks in sorted order, runs
        the body as one transaction, and on normal exit commits through
        the gate: the commit seq publishes — and *commit_hook(txn)*
        (the journal append) runs — only once every earlier seq has
        published, so journal order is commit-seq order.  On exception
        the transaction's own mutations are undone (reverse order) and
        the seq still publishes as an abort so later writers don't
        stall; *abort_hook(txn)* runs (in the gate, when the
        transaction took a seq) so the caller can journal id/string
        bindings that survive the abort — system tables are not rolled
        back, and replay must reproduce them.
        """
        return _ShardTxnContext(self, shard_names, commit_hook,
                                abort_hook)

    def write_txn(self, shards: Optional[Iterable[str]] = None, *,
                  commit_hook: Optional[Callable] = None,
                  abort_hook: Optional[Callable] = None):
        """The write verb: :meth:`shard_txn` once shards are declared;
        on a bare un-sharded database the exclusive lock with no undo
        (:class:`~repro.db.backend.LockTxn`)."""
        if self._txns is None:
            return LockTxn(self, commit_hook, abort_hook)
        return _ShardTxnContext(self, shards, commit_hook, abort_hook)

    def read_view(self):
        """The read verb: pin the committed seq; the
        :class:`~repro.db.mvcc.Snapshot` unpins itself when the
        ``with`` exits."""
        return self.pin_snapshot()

    def _active_txn(self) -> Optional["_Txn"]:
        txns = self._txns
        if txns is None:
            return None
        return txns.get(threading.get_ident())

    def _txn_undo_list(self) -> Optional[list]:
        txn = self._active_txn()
        if txn is None:
            return None
        return txn.undo

    def intern_string(self, text: str, *, now: int = 0) -> int:
        """The string_id for *text*, creating it if new.

        The strings heap is shard-free and serializes on the system
        latch, so any shard transaction can intern without escalating.
        The id — found or allocated — is recorded as a binding on the
        transaction: the looking-up transaction can commit before its
        allocator, so replay (commit-seq order) must be able to
        pre-seed the row.
        """
        with self.system_latch():
            string_id = super().intern_string(text, now=now)
            txn = self._active_txn()
            if txn is not None:
                txn.bind_intern(text, string_id)
            return string_id

    # -- WAL-replay id scripting ----------------------------------------------

    @contextmanager
    def scripted_ids(self, bindings: Optional[dict]):
        """Arm journaled id bindings for the calling thread.

        While held, each ``next_id(hint)`` call consumes the next
        journaled value for *hint* instead of the hint variable's
        current value (the hint is still advanced past the consumed
        id).  This is how replay reproduces the exact id trajectory of
        a concurrent run, where allocations interleaved across
        transactions in non-commit order.
        """
        ident = threading.get_ident()
        queues = {hint: list(vals) for hint, vals
                  in ((bindings or {}).get("id") or {}).items() if vals}
        if queues:
            self._scripted_ids[ident] = queues
        try:
            yield
        finally:
            self._scripted_ids.pop(ident, None)

    def _scripted_next(self, hint_name: str) -> Optional[int]:
        if not self._scripted_ids:
            return None
        queues = self._scripted_ids.get(threading.get_ident())
        if queues is None:
            return None
        vals = queues.get(hint_name)
        if not vals:
            return None
        return vals.pop(0)

    def _alloc_seq(self, txn: Optional["_Txn"] = None) -> int:
        with self._seq_cond:
            self._seq_alloc += 1
            seq = self._seq_alloc
        if txn is not None:
            txn.seq = seq
        return seq

    def _publish_seq(self, seq: int, *, hook: Optional[Callable] = None,
                     aborted: bool = False) -> None:
        """Publish *seq* once every earlier seq has published.

        *hook* (the journal append) runs inside the gate, after the
        wait and before publication, so entries land in the journal in
        exactly commit-seq order.  Publication happens even when the
        hook raises (torn write, injected crash): later writers must
        not hang on a seq that will never arrive — recovery sorts out
        the torn tail.
        """
        with self._seq_cond:
            while self._committed_seq < seq - 1:
                self._seq_cond.wait()
            try:
                if hook is not None:
                    hook()
            finally:
                self._committed_seq = seq
                key = "aborts" if aborted else "commits"
                self._mv_counters[key] += 1
                self._seq_cond.notify_all()

    def _facade_commit(self, txn: "_Txn") -> None:
        """Outermost ``db.lock`` release on a sharded database."""
        if txn.seq == 0:
            return          # nothing mutated, no bindings journaled here
        self._publish_seq(txn.seq)
        self.gc_if_due()

    def _txn_commit(self, txn: "_Txn",
                    hook: Optional[Callable]) -> None:
        """Commit a shard transaction through the gate.

        Every committed write consumes one seq — even a mutation-free
        one — so its journal entry (appended by *hook* inside the
        gate) lands in a strict, gap-checkable seq order.  Version GC
        is deliberately *not* triggered here: it takes every shard,
        and this thread may hold only a subset — callers run
        :meth:`gc_if_due` after releasing their locks instead.
        """
        if txn.seq == 0:
            self._alloc_seq(txn)
        run = None if hook is None else (lambda: hook(txn))
        self._publish_seq(txn.seq, hook=run)

    def _txn_abort(self, txn: "_Txn",
                   hook: Optional[Callable]) -> None:
        """Undo a failed shard transaction and publish its seq.

        The transaction's own versions and live-table mutations are
        rolled back in reverse order; its seq still publishes (as an
        abort) so later writers waiting in the gate don't hang on a
        seq that will never commit.  System-table effects — allocated
        ids, interned strings — are *not* undone; *hook* sees them as
        ``txn.bindings`` and journals an ``_aborted`` marker carrying
        them so replay reproduces the values/strings state.
        """
        if txn.undo:
            for fn in reversed(txn.undo):
                fn()
        if txn.seq == 0 and not txn.bindings:
            if hook is not None:
                hook(txn)   # nothing to order: no seq was ever taken
            return
        if txn.seq == 0:
            self._alloc_seq(txn)
        run = None if hook is None else (lambda: hook(txn))
        self._publish_seq(txn.seq, hook=run, aborted=True)

    # -- MVCC: transactions, snapshots, garbage collection -------------------

    def _mv_txn_enter(self) -> None:
        """First exclusive acquisition: open a commit-seq transaction."""
        self._txn_owner = threading.get_ident()
        self._txn_seq = self._committed_seq + 1
        self._txn_dirty = False

    def _mv_txn_exit(self) -> None:
        """Outermost exclusive release: commit (if anything mutated)."""
        if self._txn_owner != threading.get_ident():
            return
        self._txn_owner = None
        if self._txn_dirty:
            self._txn_dirty = False
            self._committed_seq = self._txn_seq
            self._mv_counters["commits"] += 1
            self.gc_if_due()

    def _mv_begin(self, table: Optional["Table"] = None) -> tuple[int, bool]:
        """The commit seq for one mutation statement.

        Inside a transaction every statement shares the transaction's
        seq (assigned lazily, while the transaction's shard locks are
        held, so per-record version chains stay monotone); an unlocked
        statement (single-threaded setup: schema seeding, population
        load, tests) auto-commits — ``(seq, auto)`` where *auto* tells
        :meth:`_mv_finish` to publish immediately.
        """
        if self._txns is not None:
            txn = self._txns.get(threading.get_ident())
            if txn is not None:
                if table is not None:
                    shard = self._shard_of.get(table.name)
                    if not txn.all_shards and (
                            shard is None or shard not in txn.shards):
                        raise MoiraError(
                            MR_INTERNAL,
                            f"mutation of {table.name!r} outside the "
                            f"transaction's shards {txn.shards}")
                    txn.mutated.add(table.name)
                if txn.seq == 0:
                    self._alloc_seq(txn)
                txn.dirty = True
                return txn.seq, False
            return self._alloc_seq(), True
        if self._txn_owner == threading.get_ident():
            self._txn_dirty = True
            return self._txn_seq, False
        return self._committed_seq + 1, True

    def _mv_finish(self, seq: int, auto: bool) -> None:
        if not auto:
            return
        if self._txns is not None:
            self._publish_seq(seq)
        else:
            self._committed_seq = seq
            self._mv_counters["commits"] += 1

    def _mv_note(self, created: int, *,
                 dead: Optional[int] = None) -> None:
        """Version-store growth accounting (GC pacing + observability).

        *dead* is how many reclaimable (closed-window) versions the
        mutation produced.  Inserts pass ``dead=0``: they create only
        live versions, so they advance the created counter without
        adding GC pressure — otherwise a bulk load paces full-store
        scans that can never reclaim anything (quadratic at 100k+
        rows).  Updates/deletes close a window each and default to
        ``dead=created``.
        """
        self._mv_pressure += created if dead is None else dead
        self._mv_counters["versions_created"] += created

    def pin_snapshot(self):
        """Pin the committed seq and return a consistent read view.

        The snapshot serves every read lock-free; release it with
        :meth:`unpin_snapshot` (``with db.read_view():`` does) so the
        garbage collector's horizon can advance past it.
        """
        from repro.db.mvcc import Snapshot
        with self._pin_lock:
            seq = self._committed_seq
            pin = self._pins.get(seq)
            if pin is None:
                self._pins[seq] = [1, time.monotonic()]
            else:
                pin[0] += 1
            self._mv_counters["snapshots_pinned"] += 1
        return Snapshot(self, seq)

    def unpin_snapshot(self, snapshot) -> None:
        """Release one :meth:`pin_snapshot` hold."""
        with self._pin_lock:
            pin = self._pins.get(snapshot.seq)
            if pin is None:
                return
            pin[0] -= 1
            if pin[0] <= 0:
                del self._pins[snapshot.seq]

    def gc_versions(self) -> dict:
        """Reclaim row versions invisible to every pinned snapshot.

        The horizon is the oldest pinned seq (or the committed seq when
        nothing is pinned): any version or index entry whose window
        closed at or before it can never be read again.  Runs under the
        exclusive lock; checkpointing calls this after truncating the
        WAL, and :meth:`gc_if_due` once ``mv_gc_threshold`` versions
        have accumulated.
        """
        with self.lock:
            with self._pin_lock:
                horizon = self._committed_seq
                if self._pins:
                    horizon = min(horizon, min(self._pins))
            entries = versions = 0
            for table in self.tables.values():
                if table._mv is not None:
                    freed_entries, freed_versions = table._mv.gc(horizon)
                    entries += freed_entries
                    versions += freed_versions
            self._mv_pressure = 0
            self._mv_counters["gc_runs"] += 1
            self._mv_counters["entries_reclaimed"] += entries
            self._mv_counters["versions_reclaimed"] += versions
        return {"entries": entries, "versions": versions,
                "horizon": horizon}

    def gc_if_due(self) -> None:
        """Run :meth:`gc_versions` once ``mv_gc_threshold`` reclaimable
        versions have accumulated.  It takes every shard, so a caller
        holding only some of them must release those first."""
        if self._mv_pressure >= self.mv_gc_threshold:
            self.gc_versions()

    def mvcc_stats(self) -> dict:
        """Counters for observability (the ``_query_stats`` rows)."""
        with self._pin_lock:
            pins_active = sum(pin[0] for pin in self._pins.values())
            oldest_seq = min(self._pins) if self._pins else None
            oldest_age = (time.monotonic() - self._pins[oldest_seq][1]
                          if oldest_seq is not None else 0.0)
        out = dict(self._mv_counters)
        out.update({
            "committed_seq": self._committed_seq,
            "pins_active": pins_active,
            "oldest_pin_seq": oldest_seq if oldest_seq is not None else 0,
            "oldest_pin_age_us": int(oldest_age * 1e6),
            "gc_pressure": self._mv_pressure,
        })
        return out

    def table(self, name: str) -> Table:
        """The relation named *name* (MR_INTERNAL if unknown)."""
        try:
            return self.tables[name]
        except KeyError:
            raise MoiraError(MR_INTERNAL, f"no relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    # -- the "values" relation helpers ---------------------------------------
    # IDs are allocated from hint variables stored in the values relation
    # ("hints for the next ID number to assign"), exactly as the paper
    # describes.  MR_NO_ID is raised if a hint is missing.

    def get_value(self, name: str) -> int:
        """Integer value of a values-relation variable."""
        with self._sys_latch:
            rows = self.table("values").select({"name": name})
            if not rows:
                raise MoiraError(MR_NO_ID, name)
            return int(rows[0]["value"])

    def set_value(self, name: str, value: int, *, now: int = 0) -> None:
        """Insert or update a values-relation variable."""
        with self._sys_latch:
            table = self.table("values")
            rows = table.select({"name": name})
            if rows:
                table.update_rows(rows, {"value": value}, now=now)
            else:
                table.insert({"name": name, "value": value}, now=now)

    def next_id(self, hint_name: str, *, now: int = 0) -> int:
        """Allocate the next unique internal ID from a hint variable.

        On a sharded database the hint lives outside every shard and
        the allocation serializes on the system-table leaf latch — a
        shard transaction must never escalate to the full lock here
        (two partial holders would deadlock).  The allocated value is
        recorded in the transaction's bindings so WAL replay can
        reproduce the hint trajectory even past aborted writers.
        """
        scripted = self._scripted_next(hint_name)
        with self.system_latch():
            if scripted is not None:
                value = scripted
                self.set_value(hint_name,
                               max(self.get_value(hint_name), value + 1),
                               now=now)
            else:
                value = self.get_value(hint_name)
                self.set_value(hint_name, value + 1, now=now)
        txn = self._active_txn()
        if txn is not None:
            txn.bind_id(hint_name, value)
        return value

    def reserve_ids(self, hint_name: str, count: int, *,
                    now: int = 0) -> int:
        """Reserve *count* consecutive ids from a hint, returning the
        first.

        One get/set pair instead of *count* :meth:`next_id` round
        trips — the parallel population builder prefix-sums its
        partitions' row counts and hands each partition a range.  The
        reservation is NOT recorded in any transaction's bindings, so
        it is only for pre-journal bulk loading (the journal starts
        empty after the build; recovery snapshots the loaded world).
        """
        if count <= 0:
            raise ValueError("reserve_ids needs a positive count")
        with self.system_latch():
            value = self.get_value(hint_name)
            self.set_value(hint_name, value + count, now=now)
            return value

    def table_stats(self) -> list[tuple]:
        """TBLSTATS rows for every relation, sorted by name."""
        return [table.stats.as_tuple(name)
                for name, table in sorted(self.tables.items())]

    def versions(self) -> dict[str, int]:
        """The current data-version vector: table name -> version.

        Versions move only on data mutations (DCM bookkeeping writes
        with ``touch_stats=False`` excluded), so two equal vectors mean
        the generators' inputs are byte-for-byte identical.
        """
        return {name: table.version
                for name, table in self.tables.items()}
