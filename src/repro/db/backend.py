"""The pluggable storage-backend interface.

The MCS papers describe a customizable database server fronting
interchangeable storage engines behind one interface; §5.2 of the Moira
paper promises the same portability ("Moira does not depend on any
special feature of INGRES").  This module writes the contract down as
abstract base classes and a factory, so the query layer, server, DCM,
backup, and recovery code can be handed *any* conforming backend:

* :class:`StorageBackend` — the database surface (``table``,
  ``get_value``/``set_value``/``next_id``, ``table_stats``,
  ``versions``), the two verbs every request goes through —
  ``read_view()`` and ``write_txn()`` — and, as concrete defaults the
  memory engine overrides, every capability a caller may use
  (DESIGN.md §17): nothing above this package probes a backend.
* :class:`StorageTable` — the relation surface (``select``/
  ``iter_select``/``count``, the one-row joins ``probe`` and ``join``,
  ``insert``/``update_rows``/``delete_rows``/``clear``, ``column``,
  ``rows``, ``stats``, ``version``/``changes_since``).  ``rows`` is an
  iterable of the relation's rows in scan order, with ``len``; it is
  not a sequence, so a caller that wants positions takes
  ``list(table.rows)``.

Two backends register here:

``memory``
    The pure-Python MVCC engine (:mod:`repro.db.engine`) — the
    default, with snapshot-isolation lock-free reads.
``sqlite``
    :mod:`repro.db.sqlite_backend` — rows in SQLite (in-memory or
    file), Moira semantics layered in Python, real persistence.

Both backends' classes inherit these, so a backend missing
``read_view`` or ``write_txn`` cannot be instantiated, let alone
registered.  ``tests/test_backend_conformance.py`` is the behavioural
half of the contract — one shared suite run against every factory
below.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, ContextManager, Iterator, Optional

from repro.errors import MoiraError, MR_NO_ID

__all__ = [
    "StorageBackend",
    "StorageTable",
    "LockTxn",
    "memo_join",
    "SYSTEM_TABLES",
    "create_backend",
    "available_backends",
    "register_backend",
]

# Moira's allocator relations: the ``values`` id hints and the
# ``strings`` heap.  They version and roll back like any relation, but
# a stamp never names them: a hint bump or an interned string changes
# nothing a generator reads until a referencing column does.
SYSTEM_TABLES = frozenset({"values", "strings"})


class StorageTable(abc.ABC):
    """One relation: typed columns, uniqueness, Moira wildcards."""

    @abc.abstractmethod
    def column(self, name: str):
        """The Column named *name* (MR_INTERNAL if unknown)."""

    @abc.abstractmethod
    def insert(self, values: dict, *, now: int = 0) -> dict:
        """Add a row; enforce uniqueness, fill defaults, coerce types."""

    @abc.abstractmethod
    def update_rows(self, rows: list, changes: dict, *, now: int = 0,
                    touch_stats: bool = True) -> int:
        """Apply *changes* to previously-selected *rows*.

        A row a table hands out is a read-only value: this leaves the
        dicts in *rows* as they were, so a caller that reads the new
        values selects them again.  On the memory engine a row is a
        handle only while it is its record's newest state; passing it
        again after an update is ``MR_INTERNAL`` ("row is not live").
        """

    @abc.abstractmethod
    def delete_rows(self, rows: list, *, now: int = 0) -> int:
        """Remove previously-selected *rows*."""

    @abc.abstractmethod
    def iter_select(self, where: Optional[dict] = None, *,
                    predicate: Optional[Callable] = None) -> Iterator:
        """Yield rows matching *where* (exact, folded, or wildcard)."""

    @abc.abstractmethod
    def select(self, where: Optional[dict] = None, *,
               predicate: Optional[Callable] = None) -> list:
        """Matching rows as a list."""

    @abc.abstractmethod
    def count(self, where: Optional[dict] = None) -> int:
        """Number of rows matching *where*."""

    def probe(self, column: str) -> Callable[[Any], Optional[dict]]:
        """A one-row join on *column*, built once per scan: ``value ->``
        the first row :meth:`select` gives for ``{column: value}``, or
        None.  *value* is a stored column value (an id), not a pattern.
        A memory-engine snapshot (``mvcc.SnapshotTable``), where every
        retrieval runs, answers from the column's index bucket."""
        select = self.select

        def first(value):
            rows = select({column: value})
            return rows[0] if rows else None
        return first

    def join(self, key: str, column: str) -> Callable[[Any], Any]:
        """A reply's join on this relation: ``value ->`` ``row[column]``
        of the row :meth:`probe` finds for *value* on *key*, ``"???"``
        when none does.  Here each distinct value is probed once per
        returned function, i.e. once per scan.  A memory-engine
        snapshot (``mvcc.SnapshotTable``) shares one memo across scans
        for as long as the relation is unchanged."""
        return memo_join(self.probe(key), column, {})

    # data version: moves on every data mutation (DCM bookkeeping
    # writes with ``touch_stats=False`` excluded)
    version: int = 0

    def changes_since(self, version: int) -> Optional[list]:
        """Changed rows since data version *version*, or None when the
        backend keeps no changed-row log (or it overflowed) — the
        incremental consumer then extracts in full."""
        return None


_MISS = object()


def memo_join(probe: Callable[[Any], Optional[dict]], column: str,
              memo: dict) -> Callable[[Any], Any]:
    """``value -> row[column]`` through *memo*, asking *probe* only for
    a value *memo* does not hold yet (``"???"`` when it finds no row)."""
    hit = memo.get

    def get(value):
        found = hit(value, _MISS)
        if found is _MISS:
            row = probe(value)
            found = memo[value] = "???" if row is None else row[column]
        return found
    return get


class StorageBackend(abc.ABC):
    """The database surface every Moira subsystem codes against."""

    # every relation by name; each backend fills it in ``__init__``
    tables: dict
    # what :meth:`add_commit_listener` registered; each backend starts
    # it empty in ``__init__``
    commit_listeners: list

    @abc.abstractmethod
    def table(self, name: str) -> StorageTable:
        """The relation named *name* (MR_INTERNAL if unknown)."""

    # -- the ``values`` relation: ids are allocated from hint variables
    # ("hints for the next ID number to assign"), exactly as the paper
    # describes.  A hint bump is an ordinary write of the caller's
    # transaction, so it rolls back with it.

    def get_value(self, name: str) -> int:
        """Integer value of a values-relation variable (MR_NO_ID)."""
        rows = self.table("values").select({"name": name})
        if not rows:
            raise MoiraError(MR_NO_ID, name)
        return int(rows[0]["value"])

    def set_value(self, name: str, value: int, *, now: int = 0) -> None:
        """Insert or update a values-relation variable."""
        table = self.table("values")
        rows = table.select({"name": name})
        if rows:
            table.update_rows(rows, {"value": value}, now=now)
        else:
            table.insert({"name": name, "value": value}, now=now)

    def next_id(self, hint_name: str, *, now: int = 0) -> int:
        """Allocate the next unique ID from a hint variable."""
        value = self.get_value(hint_name)
        self.set_value(hint_name, value + 1, now=now)
        return value

    def table_stats(self) -> list:
        """TBLSTATS rows for every relation, sorted by name."""
        return [table.stats.as_tuple(name)
                for name, table in sorted(self.tables.items())]

    def versions(self) -> dict:
        """The data-version vector: table name -> version.

        Versions move only on data mutations (DCM bookkeeping writes
        with ``touch_stats=False`` excluded), so two equal vectors mean
        the generators' inputs are byte-for-byte identical.
        """
        return {name: table.version for name, table in self.tables.items()}

    @abc.abstractmethod
    def read_view(self):
        """Context manager yielding a database-shaped object that holds
        one consistent committed cut for the life of the ``with``."""

    @abc.abstractmethod
    def write_txn(self, *, commit_hook=None):
        """Context manager running its body as one writer transaction.

        Yields a transaction with ``.seq`` (commit seq, 0 when the
        backend has none) and ``.mutated``: table -> the columns whose
        data version moved.  An update names the columns it sets; an
        insert, delete or clear names every column; a ``touch_stats=
        False`` update, the :data:`SYSTEM_TABLES` and a rolled-back
        transaction name nothing.  ``mutated`` is complete when the
        hook runs.  ``commit_hook(txn)`` runs exactly once on normal
        exit, before the backend's locks drop — which is what keeps
        journal order equal to commit order — and never on an
        exception.
        """

    def add_commit_listener(self, listener: Callable[[dict], None]) -> None:
        """Call ``listener(mutated)`` after every ``write_txn`` (and, on
        the memory engine, every ``with db.lock:`` hold) that changed
        data, with its ``mutated``.  It runs once every later read sees
        the write (on the memory engine: its seq published; on SQLite:
        the lock dropped), so a cache it clears cannot be refilled from
        the state before the write."""
        self.commit_listeners.append(listener)

    def _notify_commit(self, mutated: dict) -> None:
        """Tell the listeners a write committed *mutated*."""
        if mutated:
            for listener in self.commit_listeners:
                listener(mutated)

    def read_stats(self) -> dict:
        """What a finished read cost, as per-handle metric fields
        (``rows_scanned``/``rows_returned``/``snap_age_s``); a backend
        that does not count reports nothing."""
        return {}

    def gc_if_due(self) -> None:
        """Reclaim storage no reader can still see, if enough has
        accumulated.  The write path calls it after each write with
        no lock held; the default backend
        keeps no history."""

    # -- capabilities (DESIGN.md §17) ------------------------------------
    # Concrete defaults describe a backend with one writer lock and no
    # row history; the memory engine overrides each.  Callers call
    # these — they never probe for them.

    # total exclusion over every relation (``with db.lock:``); each
    # backend sets it in ``__init__``
    lock: ContextManager

    # can `workload.population` bulk-apply (reserved id ranges,
    # ``Table.bulk_load`` under ``write_txn``)?
    supports_bulk_load = False

    # does a ``read_view()`` pin a commit seq (``view.seq``) writers
    # commit past?  False: the view holds the writer lock
    read_view_pins_seq = False

    def read_locked(self) -> ContextManager:
        """A critical section that only reads the live tables (the
        replication feed, whose version vector must match its rows)."""
        return self.lock

    def continue_commit_seqs(self, seq: int) -> None:
        """Number every later commit past *seq*, the highest commit seq
        of the WAL recovered into this database (no-op: no seqs)."""

    def intern_string(self, text: str, *, now: int = 0) -> int:
        """The ``string_id`` for *text*, allocating one if new."""
        table = self.table("strings")
        rows = table.select({"string": text})
        if rows:
            return rows[0]["string_id"]
        string_id = self.next_id("strings_id", now=now)
        table.insert({"string_id": string_id, "string": text}, now=now)
        return string_id

    def membership_closure(self):
        """The membership-closure index, or None when there is none
        (the caller walks the ``members`` relation instead)."""
        return None

    def mvcc_stats(self) -> dict:
        """Version-store counters for ``_query_stats``."""
        return {}

    def gc_versions(self) -> dict:
        """Reclaim every row version no reader can still see, now."""
        return {}


class LockTxn:
    """``write_txn()`` for a backend without transactions: the
    exclusive ``db.lock``, no commit seq, no undo — ``mutated`` names
    every column of each table in the ``versions()`` diff across the
    body."""

    seq = 0

    def __init__(self, db, commit_hook):
        self._db = db
        self._commit_hook = commit_hook
        self.mutated: dict = {}

    def __enter__(self) -> "LockTxn":
        self._db.lock.__enter__()
        self._before = self._db.versions()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                before, db = self._before, self._db
                self.mutated = {
                    name: frozenset(db.table(name).columns)
                    for name, version in db.versions().items()
                    if before.get(name) != version
                    and name not in SYSTEM_TABLES}
                if self._commit_hook is not None:
                    self._commit_hook(self)
        finally:
            self._db.lock.__exit__(exc_type, exc, tb)
        if exc_type is None:
            self._db._notify_commit(self.mutated)


# name -> zero-config factory(path=None) -> StorageBackend
_FACTORIES: dict[str, Callable[[Optional[str]], "StorageBackend"]] = {}
_REGISTERED = False


def register_backend(name: str,
                     factory: Callable[[Optional[str]],
                                       "StorageBackend"]) -> None:
    """Register *factory* under *name* (``create_backend(name)``)."""
    _FACTORIES[name] = factory


def _ensure() -> None:
    """Lazily import and register the built-in backends.

    Deferred so ``repro.db.backend`` stays importable without pulling
    the schema module (and its seed data) at interpreter start, and to
    avoid import cycles with :mod:`repro.db.engine`.
    """
    global _REGISTERED
    if _REGISTERED:
        return
    _REGISTERED = True

    from repro.db.schema import build_database
    from repro.db.sqlite_backend import sqlite_database_from_schema

    register_backend(
        "memory", lambda path=None: build_database())
    register_backend(
        "sqlite",
        lambda path=None: sqlite_database_from_schema(path or ":memory:"))


def create_backend(name: str,
                   path: Optional[str] = None) -> StorageBackend:
    """Build the backend registered as *name*.

    *path* selects on-disk storage where the backend supports it (a
    SQLite database file); ``None`` means in-memory/ephemeral.
    """
    _ensure()
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown storage backend {name!r}; "
            f"available: {sorted(_FACTORIES)}") from None
    return factory(path)


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    _ensure()
    return sorted(_FACTORIES)
