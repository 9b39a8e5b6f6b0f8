"""In-memory relational engine with Moira-flavoured query semantics.

Design notes
------------

*Tables* hold rows as dicts keyed by column name.  Each relation is
stored once, in its version store (:mod:`repro.db.mvcc`): a scan list
and index buckets of windowed entries, each naming a record that
carries its immutable versions; the newest is the head row, one dict
shared by the writer and every snapshot that sees it.  A delete
closes its rows' entries and the abort of one reopens them where they
stand, so both cost the rows they touch.  Columns are typed
(``int`` or ``str``) and may be declared case-insensitive (Moira machine
and service names compare case-insensitively and are stored uppercase) or
size-limited (the original schema has fixed-width INGRES ``c`` fields and
over-long arguments yield ``MR_ARG_TOO_LONG``).

*Wildcards* follow the paper's query semantics: ``*`` matches any run of
characters and ``?`` a single character, anywhere in a string argument.

*Indexes* are hash indexes maintained on insert/update/delete; the
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
epoch that moves on ``add_index``/``add_composite_index``.  A head read
(this module's ``Table``) and a pinned snapshot read plan the same way;
only the loop that resolves an entry to a row differs.

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

import fnmatch
import re
import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.db.backend import SYSTEM_TABLES, StorageBackend, StorageTable
from repro.db.mvcc import INF_SEQ, TableVersionStore
from repro.db.fairlock import FairLock

from repro.errors import (
    MoiraError,
    MR_ARG_TOO_LONG,
    MR_BAD_CHAR,
    MR_EXISTS,
    MR_INTEGER,
    MR_INTERNAL,
)

Row = dict  # rows are plain dicts; Table owns their lifecycle

__all__ = ["Column", "Table", "TableChange", "Database", "Row",
           "WildcardPattern"]


class _Txn:
    """One writer transaction.

    Created either by :meth:`Database.write_txn` or by the
    :class:`_WriterLock` facade (``with db.lock:``, for whole-database
    operations).  The commit seq is assigned lazily at the first
    mutation, *while the writer lock is held*, so version chains stay
    monotone per record; publication goes through the database's
    commit gate so seqs become visible — and reach the journal — in
    strictly increasing order.
    """

    __slots__ = ("facade", "depth", "seq", "undo", "mutated")

    def __init__(self, *, facade: bool, undo: bool):
        self.facade = facade            # owned by the db.lock facade
        self.depth = 1
        self.seq = 0                    # 0 = no commit seq assigned yet
        self.undo: Optional[list] = [] if undo else None
        # table -> columns whose data version moved (a DCM bookkeeping
        # update, ``touch_stats=False``, and the SYSTEM_TABLES name
        # nothing)
        self.mutated: dict[str, frozenset] = {}


class _WriterLock:
    """``db.lock``: the one writer lock.

    The first hold by a thread opens a facade transaction and the
    outermost release commits it, preserving the seed's ``with
    db.lock:`` semantics: whole-database operations (restore, replica
    reload, version GC) get one commit seq per lock hold and never
    roll back.  A write
    transaction re-entering it keeps its own transaction.
    """

    def __init__(self, db: "Database") -> None:
        self._db = db
        self._lock = db._writer

    def __enter__(self) -> "_WriterLock":
        self._lock.acquire_exclusive()
        txns, me = self._db._txns, threading.get_ident()
        txn = txns.get(me)
        if txn is None:
            txns[me] = _Txn(facade=True, undo=False)
        elif txn.facade:
            txn.depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        db, me = self._db, threading.get_ident()
        txn = db._txns.get(me)
        if txn is not None and txn.facade:
            if txn.depth == 1:
                del db._txns[me]
                db._facade_commit(txn)
            else:
                txn.depth -= 1
        self._lock.release_exclusive()

    @property
    def write_locked(self) -> bool:
        return self._lock.write_locked


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
        return "*" in value or "?" in value

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
    distinct (pattern, fold) pair.  Thread-safe: concurrent readers
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
    the index that *covers* the plan, if one does (its one bucket
    answers the query with no residual filtering).  Compiled once,
    replayed with zero re-analysis until the table's schema epoch
    moves.
    """

    __slots__ = ("epoch", "exact", "wild", "composite", "covered", "single")

    def __init__(self, table: "Table", shape: tuple[tuple[str, bool], ...],
                 epoch: int):
        store = table._mv
        self.epoch = epoch
        self.exact: tuple[tuple[str, Column], ...] = tuple(
            (name, table.columns[name])
            for name, is_wild in shape if not is_wild)
        # wildcard columns carry their single index (or None) for the
        # literal-prefix fast path
        self.wild: tuple = tuple(
            (name, table.columns[name], store.indexes.get(name))
            for name, is_wild in shape if is_wild)
        exact_names = {name for name, _ in self.exact}
        self.composite = None
        for comp in store.composites.values():
            if set(comp.names) <= exact_names:
                if self.composite is None or \
                        len(comp.names) > len(self.composite.names):
                    self.composite = comp
        self.single: tuple = tuple(
            (name, store.indexes[name])
            for name, _ in self.exact if name in store.indexes)
        # covered: no wildcards, and one bucket *is* the full answer —
        # either a composite over every exact column, or a single
        # indexed column that is the whole WHERE
        self.covered = None
        if not self.wild:
            if self.composite is not None and \
                    len(self.composite.names) == len(self.exact):
                self.covered = self.composite
            elif len(self.exact) == 1 and self.single:
                self.covered = self.single[0][1]


def _residual(plan: _Plan, exact: dict, wild: list,
              predicate: Optional[Callable[[Row], bool]]
              ) -> Callable[[Row], bool]:
    """The test a candidate row of an uncovered plan must pass: every
    exact and wildcard column, then *predicate*."""
    equals = [(name, column.equal, exact[name])
              for name, column in plan.exact]
    patterns = [(name, pattern.matches)
                for (name, _column, _index), pattern in zip(plan.wild, wild)]

    def check(row: Row) -> bool:
        for name, equal, value in equals:
            if not equal(row[name], value):
                return False
        for name, matches in patterns:
            if not matches(str(row[name])):
                return False
        return predicate is None or predicate(row)
    return check


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
    """One relation: schema, rows, indexes, uniqueness, statistics.

    Rows, scan order and index buckets live once, in the table's
    version store ``_mv`` (:class:`~repro.db.mvcc.TableVersionStore`).
    A *head* read — the writer's, and any caller of this class — sees
    the open entries resolved to their head versions' rows.  A row is
    a read-only value and a handle for :meth:`update_rows` and
    :meth:`delete_rows` while it is the head: an update publishes a new
    row and leaves the old one as it was, so a caller that wants the
    new values selects again.  A snapshot
    (:class:`~repro.db.mvcc.SnapshotTable`) plans the same way and
    resolves each entry at its pinned seq.
    """

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
        # what an insert, delete, clear or bulk load changes
        self.every_column = frozenset(self.columns)
        self._mv = TableVersionStore(self)
        self.unique_keys: list[tuple[str, ...]] = [tuple(u) for u in unique]
        self._plans: dict[tuple, _Plan] = {}
        self._schema_epoch = 0
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
            if key[0] not in self._mv.indexes:
                self.add_index(key[0])

    # -- schema helpers -----------------------------------------------------

    def add_index(self, column_name: str) -> None:
        """Create (and backfill) a hash index on a column."""
        self._mv.on_add_index(self.column(column_name))
        self._schema_epoch += 1  # cached plans re-analyse lazily

    def add_composite_index(self, column_names: Iterable[str]) -> None:
        """Create (and backfill) a hash index over several columns."""
        columns = [self.column(name) for name in column_names]
        if len(columns) < 2:
            raise ValueError("composite index needs at least two columns")
        self._mv.on_add_composite_index(columns)
        self._schema_epoch += 1

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

    def _violates_unique(self, candidate: Row, *,
                         ignore: Optional[Row] = None,
                         keys: Optional[list] = None) -> bool:
        for key in self.unique_keys if keys is None else keys:
            first = key[0]
            for entry in self._mv.indexes[first].bucket(candidate[first]):
                row = entry.record.row
                if entry.end != INF_SEQ or row is ignore:
                    continue
                if all(self.columns[col].equal(row[col], candidate[col])
                       for col in key):
                    return True
        return False

    # -- mutation -----------------------------------------------------------
    # Each statement takes its commit seq from the database (or 0 for a
    # table outside any database) and, inside a write transaction,
    # leaves an undo closure: a failing write leaves nothing behind for
    # the writes after it.  Undo restores logical row state, scan order
    # and bucket order exactly (the mrbackup oracle dumps scan order);
    # compensating _bump() entries keep the changelog consistent for
    # incremental DCM consumers instead of rewinding versions.

    def _begin(self, columns: Optional[frozenset]) -> tuple[int, bool]:
        db = self._mv.db
        return (0, False) if db is None else db._mv_begin(self, columns)

    def _end(self, seq: int, auto: bool) -> None:
        if auto:
            self._mv.db._publish_seq(seq)

    def _undo_list(self) -> Optional[list]:
        db = self._mv.db
        return None if db is None else db._txn_undo_list()

    def _records(self, rows: list[Row]) -> list:
        """The records of *rows* (MR_INTERNAL unless each is live here)."""
        records = self._mv.records
        found = [records.get(id(row)) for row in rows]
        if None in found:
            raise MoiraError(MR_INTERNAL,
                             f"row is not live in {self.name}")
        return found

    def insert(self, values: dict, *, now: int = 0) -> Row:
        """Add a row; enforces uniqueness, fills defaults."""
        row = self._normalise(values)
        if self._violates_unique(row):
            raise MoiraError(MR_EXISTS, f"{self.name}: {values}")
        prev_modtime = self.stats.modtime
        seq, auto = self._begin(self.every_column)
        try:
            record = self._mv.on_insert(row, seq)
            self.mv_last_seq = seq
            self.stats.appends += 1
            self.stats.modtime = now
            self._bump("insert", None, record.current.data)
        finally:
            self._end(seq, auto)
        undo = self._undo_list()
        if undo is not None:
            undo.append(lambda: self._undo_insert(record, seq,
                                                  prev_modtime))
        return row

    def update_rows(self, rows: list[Row], changes: dict, *, now: int = 0,
                    touch_stats: bool = True) -> int:
        """Publish each row in *rows* (head rows of this table) with
        *changes* applied; the rows passed in are left as they were.

        ``touch_stats=False`` suppresses the TBLSTATS modtime bump for
        DCM bookkeeping writes — the paper is explicit that those "refer
        only to modification by a user, not by the DCM", and counting
        them as data changes would make every DCM cycle look like new
        data for the generators' no-change check.
        """
        coerced = self._normalise(changes, partial=True)
        records = self._records(rows)
        # only a key whose columns the change sets can become a
        # duplicate: the others are still unique as they stand
        keys = [key for key in self.unique_keys
                if any(name in coerced for name in key)]
        if keys:
            for row in rows:
                candidate = dict(row)
                candidate.update(coerced)
                if self._violates_unique(candidate, ignore=row, keys=keys):
                    raise MoiraError(MR_EXISTS, f"{self.name}: {changes}")
        prev_modtime = self.stats.modtime
        if records:
            seq, auto = self._begin(
                frozenset(coerced) if touch_stats else None)
            tokens = []
            try:
                for record in records:
                    before = record.current.data
                    tokens.append(self._mv.on_update(record, coerced, seq))
                    if touch_stats:
                        self._bump("update", before, record.current.data)
                self.mv_last_seq = seq
            finally:
                self._end(seq, auto)
            undo = self._undo_list()
            if undo is not None:
                undo.append(lambda: self._undo_update(
                    tokens, seq, touch_stats, prev_modtime))
        if touch_stats:
            self.stats.updates += len(rows)
            self.stats.modtime = now
        return len(rows)

    def delete_rows(self, rows: list[Row], *, now: int = 0) -> int:
        """Remove the given rows: O(len(rows)), no other row visited."""
        if not rows:
            return 0
        records = self._records(rows)
        if len(set(map(id, records))) != len(records):
            # checked before any change, so the statement is atomic
            raise MoiraError(MR_INTERNAL,
                             f"a row deleted twice from {self.name}")
        prev_modtime = self.stats.modtime
        seq, auto = self._begin(self.every_column)
        try:
            for record in records:
                self._mv.on_delete(record, seq)
            self.mv_last_seq = seq
            for record in records:
                self._bump("delete", record.current.data, None)
            self.stats.deletes += len(rows)
            self.stats.modtime = now
        finally:
            self._end(seq, auto)
        undo = self._undo_list()
        if undo is not None:
            undo.append(lambda: self._undo_delete(records, prev_modtime))
        return len(rows)

    def clear(self) -> None:
        """Drop every row."""
        self._bump("clear", None, None)
        if self._changelog is not None:
            # a wholesale reload can't be described row-by-row; empty the
            # log so changes_since() reports the gap
            self._changelog.clear()
        # no undo hook: clear() is StorageBackend.load's, which runs it
        # under the full-exclusion facade, which never aborts
        seq, auto = self._begin(self.every_column)
        try:
            self._mv.on_clear(seq)
            self.mv_last_seq = seq
        finally:
            self._end(seq, auto)

    def bulk_load(self, rows: list[Row], *, now: int = 0) -> None:
        """Trusted batched append — the population builder's and
        :meth:`StorageBackend.load`'s path.

        *rows* must already be fully normalised: every column present
        with a value of the column's declared kind (the builder derives
        them from the schema, ``load`` coerces them, and the per-row
        oracle build coerces the very same inputs through ``insert``).
        Uniqueness is still enforced per row (a duplicate loads none of
        the batch), but the per-row overheads of the general path are
        paid once per batch: the version advances by ``len(rows)`` in
        one step, the changelog is emptied so ``changes_since`` reports
        the gap (``clear()`` semantics — a bulk load is not describable
        row-by-row to incremental consumers), and every row shares one
        MVCC statement window and one undo closure.
        """
        if not rows:
            return
        if set(rows[0]) != set(self.columns):
            raise MoiraError(
                MR_INTERNAL,
                f"bulk_load row shape does not match {self.name}")
        prev_modtime = self.stats.modtime
        seq, auto = self._begin(self.every_column)
        try:
            self._mv.bulk_admit(rows, seq, self._violates_unique)
            self.mv_last_seq = seq
            self.stats.appends += len(rows)
            self.stats.modtime = now
            self.version += len(rows)
            if self._changelog is not None:
                self._changelog.clear()
        finally:
            self._end(seq, auto)
        undo = self._undo_list()
        if undo is not None:
            loaded = list(rows)
            undo.append(lambda: self._undo_bulk_load(
                loaded, seq, prev_modtime))

    # -- abort undo ---------------------------------------------------------

    def _undo_insert(self, record, seq: int, prev_modtime: int) -> None:
        self._mv.undo_insert(record, seq)
        self.stats.appends -= 1
        self.stats.modtime = prev_modtime
        self._bump("delete", record.current.data, None)

    def _undo_bulk_load(self, rows: list[Row], seq: int,
                        prev_modtime: int) -> None:
        for record in reversed(self._records(rows)):
            self._mv.undo_insert(record, seq)
        self.stats.appends -= len(rows)
        self.stats.modtime = prev_modtime
        # one compensating bump; the changelog already reports a gap
        self.version += 1

    def _undo_update(self, tokens: list, seq: int, touch_stats: bool,
                     prev_modtime: int) -> None:
        for token in reversed(tokens):
            record = token[0]
            after = record.current.data
            self._mv.undo_update(token, seq)
            if touch_stats:
                self._bump("update", after, record.current.data)
        if touch_stats:
            self.stats.updates -= len(tokens)
            self.stats.modtime = prev_modtime

    def _undo_delete(self, records: list, prev_modtime: int) -> None:
        # each record's entries reopen where they stand, so the rows
        # come back at their scan and bucket positions
        for record in reversed(records):
            self._mv.undo_delete(record)
        for record in records:
            self._bump("insert", None, record.current.data)
        self.stats.deletes -= len(records)
        self.stats.modtime = prev_modtime

    # -- retrieval ----------------------------------------------------------

    def _plan_read(self, where: Optional[dict],
                   predicate: Optional[Callable[[Row], bool]]) -> tuple:
        """The one planning path of head and snapshot reads.

        Returns ``(entries, check)``: the candidate entries for *where*
        in result order (the scan list, a covering bucket, or the
        smallest exact or literal-prefix bucket) and the test a
        resolved row must pass — None when every visible entry matches.
        String values containing ``*``/``?`` match as Moira wildcards.
        """
        if not where:
            return self._mv.entries, predicate
        plan, exact, wild = self._bind_plan(where)
        if plan.covered is not None:
            return plan.covered.lookup(exact), predicate
        best: Optional[list] = None
        if plan.composite is not None:
            best = plan.composite.lookup(exact)
        for _name, index in plan.single:
            bucket = index.lookup(exact)
            if best is None or len(bucket) < len(best):
                best = bucket
        # literal-prefix wildcards ("CHURN*") can use an index too —
        # the common prefix-query shape must not force a full scan
        for (_name, _column, index), pattern in zip(plan.wild, wild):
            if index is None:
                continue
            prefix = _literal_prefix(pattern.pattern)
            if prefix is None:
                continue
            bucket = index.prefix_entries(prefix)
            if best is None or len(bucket) < len(best):
                best = bucket
        if best is not None and not best:
            return (), None
        return (self._mv.entries if best is None else best,
                _residual(plan, exact, wild, predicate))

    def select(
        self,
        where: Optional[dict] = None,
        *,
        predicate: Optional[Callable[[Row], bool]] = None,
    ) -> list[Row]:
        """The head's rows matching *where* (exact/wildcard per column)
        and *predicate*: the open entries of the planned candidates."""
        entries, check = self._plan_read(where, predicate)
        if check is None:
            return [e.record.row for e in entries if e.end == INF_SEQ]
        return [row for e in entries
                if e.end == INF_SEQ and check(row := e.record.row)]

    def iter_select(
        self,
        where: Optional[dict] = None,
        *,
        predicate: Optional[Callable[[Row], bool]] = None,
    ) -> Iterator[Row]:
        """Iterate the matching rows as they were when it started (see
        select()): a loop may mutate the table it walks."""
        return iter(self.select(where, predicate=predicate))

    @property
    def rows(self) -> list[Row]:
        """Every row, in scan order (a fresh list)."""
        return self.select()

    def _bind_plan(self, where: dict) -> tuple[
            _Plan, dict[str, Any], list[WildcardPattern]]:
        """Resolve the cached plan for *where* and bind its values.

        Returns (plan, coerced exact values, compiled wildcard patterns
        aligned with ``plan.wild``).  Classification per column is one
        ``is_wild`` test; everything else replays from the plan.
        """
        columns = self.columns
        shape_parts = []
        for name in sorted(where):
            column = columns.get(name) or self.column(name)
            shape_parts.append((name, column.kind is str and
                                WildcardPattern.is_wild(str(where[name]))))
        shape = tuple(shape_parts)
        plan = self._plans.get(shape)
        if plan is None or plan.epoch != self._schema_epoch:
            if len(self._plans) >= _PLAN_CACHE_LIMIT:
                self._plans.clear()
            plan = _Plan(self, shape, self._schema_epoch)
            self._plans[shape] = plan
        exact = {}
        for name, column in plan.exact:
            value = where[name]
            # an int for an int column is stored as given: skip coerce
            exact[name] = value if type(value) is int and \
                column.kind is int else column.coerce(value)
        if not plan.wild:
            return plan, exact, []
        wild = [WildcardPattern.compile(str(where[name]), column.fold_case)
                for name, column, _index in plan.wild]
        return plan, exact, wild

    def count(self, where: Optional[dict] = None) -> int:
        """Number of rows matching *where*."""
        if not where:
            return len(self._mv.records)
        entries, check = self._plan_read(where, None)
        return sum(1 for e in entries if e.end == INF_SEQ
                   and (check is None or check(e.record.row)))

    def __len__(self) -> int:
        return len(self._mv.records)


class Database(StorageBackend):
    """A collection of relations plus the ID allocator and values helpers.

    The server holds exactly one Database (the paper's "one backend at
    daemon start-up").  Every query goes through one of two verbs:
    :meth:`read_view` pins a committed snapshot and takes no lock;
    :meth:`write_txn` takes the one writer lock and commits through
    the in-order gate.  ``with db.lock:`` is the same lock, for
    whole-database operations.
    Concurrency control at the *service/host* level is the DCM
    LockManager's job, not ours.
    """

    def __init__(self) -> None:
        self.tables: dict[str, Table] = {}
        self.commit_listeners: list = []
        # the incrementally maintained membership-closure index (lazy;
        # ``closure_enabled=False`` falls back to the recursive walk)
        self.closure_enabled = True
        self._closure = None
        # -- MVCC state (docs/STORAGE_ENGINE.md) --------------------------
        # snapshot readers pin `_committed_seq` and scan the version
        # stores lock-free; only the writer lock is ever contended.
        self._committed_seq = 0
        # -- the one writer (docs/WRITE_PATH.md) --------------------------
        self._writer = FairLock()
        self._txns: dict[int, _Txn] = {}
        self.lock = _WriterLock(self)
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
            # retired items, list elements and versions the collector
            # looked at: its cost, which tracks the garbage
            "gc_visited": 0,
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

    def continue_commit_seqs(self, seq: int) -> None:
        # called with no write in flight (recovery, before serving)
        with self._seq_cond:
            self._seq_alloc = max(self._seq_alloc, seq)
            self._committed_seq = max(self._committed_seq, seq)

    def create_table(self, table: Table) -> Table:
        """Register a new relation."""
        if table.name in self.tables:
            raise ValueError(f"table {table.name} already exists")
        self.tables[table.name] = table
        table._mv.db = self
        return table

    @contextmanager
    def write_txn(self, *,
                  commit_hook: Optional[Callable] = None) -> Iterator[_Txn]:
        """The write verb: a writer transaction.

        Takes the writer lock, runs the body as one transaction, and on
        normal exit commits through the gate: the commit seq publishes
        — and *commit_hook(txn)* (the journal append) runs — only once
        every earlier seq has published, so journal order is commit-seq
        order.  On exception every mutation the body made — its ids
        and interned strings included — is undone (reverse order) and
        the seq still publishes as an abort so later writers don't
        stall; nothing is journaled.
        """
        me = threading.get_ident()
        if me in self._txns:
            raise MoiraError(MR_INTERNAL, "nested write transaction")
        self._writer.acquire_exclusive()
        txn = self._txns[me] = _Txn(facade=False, undo=True)
        try:
            try:
                yield txn
            except BaseException:
                del self._txns[me]
                self._txn_abort(txn)
                raise
            del self._txns[me]
            self._txn_commit(txn, commit_hook)
        finally:
            self._writer.release_exclusive()

    def read_view(self):
        """The read verb: pin the committed seq; the
        :class:`~repro.db.mvcc.Snapshot` unpins itself when the
        ``with`` exits."""
        return self.pin_snapshot()

    def _txn_undo_list(self) -> Optional[list]:
        txn = self._txns.get(threading.get_ident())
        return None if txn is None else txn.undo

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
        """Outermost ``db.lock`` release."""
        if txn.seq == 0:
            return          # nothing mutated
        try:
            self._publish_seq(txn.seq)
        finally:
            self._notify_commit(txn.mutated)
        self.gc_if_due()

    def _txn_commit(self, txn: "_Txn",
                    hook: Optional[Callable]) -> None:
        """Commit a write transaction through the gate.

        Every committed write consumes one seq — even a mutation-free
        one — so its journal entry (appended by *hook* inside the
        gate) lands in a strict, gap-checkable seq order.  Version GC
        is not triggered here: callers run :meth:`gc_if_due` after the
        writer lock drops.
        """
        if txn.seq == 0:
            self._alloc_seq(txn)
        run = None if hook is None else (lambda: hook(txn))
        # the seq publishes even when the hook raises
        try:
            self._publish_seq(txn.seq, hook=run)
        finally:
            self._notify_commit(txn.mutated)

    def _txn_abort(self, txn: "_Txn") -> None:
        """Undo a failed write transaction and publish its seq.

        The transaction's own mutations — ``values`` hint bumps and
        ``strings`` inserts alike — are rolled back in reverse order;
        its seq, if it took one, still publishes (as an abort) so later
        writers waiting in the gate don't hang on a seq that will never
        commit.
        """
        if txn.undo:
            for fn in reversed(txn.undo):
                fn()
        txn.mutated = {}    # rolled back: no data changed
        if txn.seq:
            self._publish_seq(txn.seq, aborted=True)

    # -- MVCC: transactions, snapshots, garbage collection -------------------

    def _mv_begin(self, table: "Table",
                  columns: Optional[frozenset]) -> tuple[int, bool]:
        """The commit seq for one mutation statement of *columns* of
        *table* (None: a bookkeeping update, which the transaction's
        ``mutated`` does not name).

        Inside a transaction every statement shares the transaction's
        seq (assigned lazily, while the writer lock is held, so
        per-record version chains stay monotone); an unlocked
        statement (single-threaded setup: schema seeding, population
        load, tests) auto-commits — ``(seq, auto)`` where *auto* tells
        ``Table._end`` to publish immediately.
        """
        txn = self._txns.get(threading.get_ident())
        if txn is None:
            return self._alloc_seq(), True
        if columns and table.name not in SYSTEM_TABLES:
            named = txn.mutated.get(table.name)
            if named is None:
                txn.mutated[table.name] = columns
            elif not columns <= named:
                txn.mutated[table.name] = named | columns
        if txn.seq == 0:
            self._alloc_seq(txn)
        return txn.seq, False

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
        exclusive lock, visiting only what closed windows retired
        (:meth:`TableVersionStore.gc`), so the pause grows with the
        garbage, not the database; checkpointing calls this after
        truncating the WAL, and :meth:`gc_if_due` once
        ``mv_gc_threshold`` versions have accumulated.
        """
        with self.lock:
            with self._pin_lock:
                horizon = self._committed_seq
                if self._pins:
                    horizon = min(horizon, min(self._pins))
            entries = versions = visited = 0
            for table in self.tables.values():
                freed_entries, freed_versions, seen = table._mv.gc(horizon)
                entries += freed_entries
                versions += freed_versions
                visited += seen
            self._mv_pressure = 0
            self._mv_counters["gc_runs"] += 1
            self._mv_counters["gc_visited"] += visited
            self._mv_counters["entries_reclaimed"] += entries
            self._mv_counters["versions_reclaimed"] += versions
        return {"entries": entries, "versions": versions,
                "horizon": horizon}

    def gc_if_due(self) -> None:
        """Run :meth:`gc_versions` once ``mv_gc_threshold`` reclaimable
        versions have accumulated."""
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
