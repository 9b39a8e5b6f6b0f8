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
  ``iter_select``/``count``, ``insert``/``update_rows``/
  ``delete_rows``/``clear``, ``column``, ``rows``, ``stats``,
  ``version``/``changes_since``).

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
from contextlib import nullcontext
from typing import Callable, ContextManager, Iterator, Optional

__all__ = [
    "StorageBackend",
    "StorageTable",
    "LockTxn",
    "create_backend",
    "available_backends",
    "register_backend",
]


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
        """Apply *changes* to previously-selected *rows*."""

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

    # data version: moves on every data mutation (DCM bookkeeping
    # writes with ``touch_stats=False`` excluded)
    version: int = 0

    def changes_since(self, version: int) -> Optional[list]:
        """Changed rows since data version *version*, or None when the
        backend keeps no changed-row log (or it overflowed) — the
        incremental consumer then extracts in full."""
        return None


class StorageBackend(abc.ABC):
    """The database surface every Moira subsystem codes against."""

    @abc.abstractmethod
    def table(self, name: str) -> StorageTable:
        """The relation named *name* (MR_INTERNAL if unknown)."""

    @abc.abstractmethod
    def get_value(self, name: str) -> int:
        """Integer value of a values-relation variable (MR_NO_ID)."""

    @abc.abstractmethod
    def set_value(self, name: str, value: int, *, now: int = 0) -> None:
        """Insert or update a values-relation variable."""

    @abc.abstractmethod
    def next_id(self, hint_name: str, *, now: int = 0) -> int:
        """Allocate the next unique ID from a hint variable."""

    @abc.abstractmethod
    def table_stats(self) -> list:
        """TBLSTATS rows for every relation, sorted by name."""

    @abc.abstractmethod
    def versions(self) -> dict:
        """Per-table data-version vector (DCM no-change checks)."""

    @abc.abstractmethod
    def read_view(self):
        """Context manager yielding a database-shaped object that holds
        one consistent committed cut for the life of the ``with``."""

    @abc.abstractmethod
    def write_txn(self, shards=None, *, commit_hook=None,
                  abort_hook=None):
        """Context manager running its body as one writer transaction.

        Yields a transaction with ``.seq`` (commit seq, 0 when the
        backend has none), ``.bindings`` (ids/strings consumed, or
        None) and ``.mutated`` (names of the tables whose data version
        moved; complete once the ``with`` exits).  *shards* narrows
        writer exclusion where the backend has writer shards (None =
        every shard).  ``commit_hook(txn)`` runs exactly once on normal
        exit and ``abort_hook(txn)`` on an exception, both before the
        backend's locks drop — which is what keeps journal order equal
        to commit order.
        """

    # writer-shard map (shard name -> table names); None = one writer
    shards: Optional[dict] = None

    def read_stats(self) -> dict:
        """What a finished read cost, as per-handle metric fields
        (``rows_scanned``/``rows_returned``/``snap_age_s``); a backend
        that does not count reports nothing."""
        return {}

    def gc_if_due(self) -> None:
        """Reclaim storage no reader can still see, if enough has
        accumulated.  The write path calls it after a commit window
        (or a library write) with no lock held; the default backend
        keeps no history."""

    # -- capabilities (DESIGN.md §17) ------------------------------------
    # Concrete defaults describe a backend with one writer lock and no
    # row history; the memory engine overrides each.  Callers call
    # these — they never probe for them.

    # total exclusion over every relation (``with db.lock:``); each
    # backend sets it in ``__init__``
    lock: ContextManager

    # can `workload.population` bulk-apply (reserved id ranges,
    # ``Table.bulk_load`` under ``shard_txn``)?
    supports_bulk_load = False

    def read_locked(self) -> ContextManager:
        """A critical section that only reads the live tables (backup,
        the replication snapshot feed)."""
        return self.lock

    def system_latch(self) -> ContextManager:
        """What serialises the system relations (``values`` hints,
        the ``strings`` heap) against concurrent writers."""
        return self.lock

    def intern_string(self, text: str, *, now: int = 0) -> int:
        """The ``string_id`` for *text*, allocating one if new."""
        table = self.table("strings")
        rows = table.select({"string": text})
        if rows:
            return rows[0]["string_id"]
        string_id = self.next_id("strings_id", now=now)
        table.insert({"string_id": string_id, "string": text}, now=now)
        return string_id

    def scripted_ids(self, bindings: Optional[dict]) -> ContextManager:
        """While held, ``next_id`` on this thread hands out the ids
        journaled in *bindings* (WAL replay).  One writer allocates in
        commit order already, so the default re-allocates naturally."""
        return nullcontext()

    def shards_for(self, tables) -> Optional[frozenset]:
        """The writer shards covering *tables*, or None for full
        exclusion."""
        return None

    def hold_shards(self, shards, on_wait: Optional[Callable] = None
                    ) -> ContextManager:
        """Hold the writer locks of *shards* across several
        ``write_txn(shards)`` bodies (a group-commit window);
        ``on_wait(lock_name, seconds)`` observes each acquisition.
        With one writer lock every ``write_txn`` takes it itself."""
        return nullcontext()

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
    """``write_txn()`` for a backend without shard transactions: the
    exclusive ``db.lock``, no commit seq, no bindings, no undo —
    ``mutated`` is the ``versions()`` diff across the body."""

    seq = 0
    bindings = None

    def __init__(self, db, commit_hook, abort_hook):
        self._db = db
        self._commit_hook = commit_hook
        self._abort_hook = abort_hook
        self.mutated: set = set()

    def __enter__(self) -> "LockTxn":
        self._db.lock.__enter__()
        self._before = self._db.versions()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            before = self._before
            self.mutated = {name for name, version
                            in self._db.versions().items()
                            if before.get(name) != version}
            hook = self._commit_hook if exc_type is None \
                else self._abort_hook
            if hook is not None:
                hook(self)
        finally:
            self._db.lock.__exit__(exc_type, exc, tb)


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
