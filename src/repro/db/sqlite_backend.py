"""A SQLite storage backend behind the same relational interface.

§5.2: "Moira does not depend on any special feature of INGRES.  In
fact, Moira can easily utilize other relational databases ... The only
change needed at that point will be a new Moira server, linking the
pre-defined queries to a new set of data manipulation procedures."

This module is that demonstration: :class:`SqliteDatabase` and
:class:`SqliteTable` expose the same interface as
:class:`repro.db.engine.Database`/:class:`Table` (select/insert/
update_rows/delete_rows, the values helpers, TBLSTATS counters) but
store rows in SQLite — in memory or in a file, giving the reproduction
real on-disk persistence.  The entire query layer, server, DCM, and
backup system run against it unchanged; ``tests/test_sqlite_backend.py``
parametrises the query tests over both backends.

Semantics are kept identical to the pure-Python engine by doing the
Moira-specific parts (wildcard matching, case folding, uniqueness
checks with per-column equality) in Python on top of simple SQL
predicates; SQLite provides storage, not query semantics.  Row
identity for updates/deletes rides on SQLite rowids carried in a
hidden ``_rowid`` key of every returned row dict.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.db.backend import LockTxn, StorageBackend, StorageTable
from repro.db.engine import (
    Column,
    Database,
    Row,
    TableStats,
    WildcardPattern,
)
from repro.errors import MoiraError, MR_EXISTS, MR_INTERNAL, MR_NO_ID

__all__ = ["SqliteDatabase", "SqliteTable", "sqlite_database_from_schema"]

_ROWID = "_rowid"


class SqliteTable(StorageTable):
    """One relation stored in SQLite, same surface as engine.Table."""

    def __init__(self, db: "SqliteDatabase", name: str,
                 columns: list[Column],
                 unique: Iterable[tuple[str, ...]] = (),
                 indexes: Iterable[str] = ()):
        self._db = db
        self.name = name
        self.columns: dict[str, Column] = {c.name: c for c in columns}
        self.unique_keys: list[tuple[str, ...]] = [tuple(u)
                                                   for u in unique]
        self.stats = TableStats()
        defs = ", ".join(
            f'"{c.name}" {"INTEGER" if c.kind is int else "TEXT"}'
            for c in columns)
        db.conn.execute(f'CREATE TABLE IF NOT EXISTS "{name}" ({defs})')
        for col in indexes:
            db.conn.execute(
                f'CREATE INDEX IF NOT EXISTS "ix_{name}_{col}" '
                f'ON "{name}" ("{col}")')

    # -- helpers -----------------------------------------------------------

    def column(self, name: str) -> Column:
        """The Column named *name* (MR_INTERNAL if unknown)."""
        try:
            return self.columns[name]
        except KeyError:
            raise MoiraError(MR_INTERNAL,
                             f"no column {name!r} in {self.name}") from None

    def _normalise(self, values: dict, *, partial: bool = False) -> Row:
        row: Row = {}
        for name, column in self.columns.items():
            if name in values:
                row[name] = column.coerce(values[name])
            elif not partial:
                row[name] = column.default
        unknown = set(values) - set(self.columns) - {_ROWID}
        if unknown:
            raise MoiraError(
                MR_INTERNAL,
                f"unknown columns {sorted(unknown)} in {self.name}")
        return row

    def _fetch(self, where_sql: str = "", params: tuple = ()) -> list[Row]:
        cols = ", ".join(f'"{c}"' for c in self.columns)
        sql = f'SELECT rowid, {cols} FROM "{self.name}"'
        if where_sql:
            sql += f" WHERE {where_sql}"
        out = []
        for record in self._db.conn.execute(sql, params):
            row: Row = {_ROWID: record[0]}
            for col, value in zip(self.columns, record[1:]):
                row[col] = value
            out.append(row)
        return out

    def _violates_unique(self, candidate: Row,
                         ignore_rowid: Optional[int] = None) -> bool:
        for key in self.unique_keys:
            first = key[0]
            column = self.columns[first]
            if column.kind is str and column.fold_case:
                probe = self._fetch(f'"{first}" = ? COLLATE NOCASE',
                                    (candidate[first],))
            else:
                probe = self._fetch(f'"{first}" = ?',
                                    (candidate[first],))
            for row in probe:
                if ignore_rowid is not None and \
                        row[_ROWID] == ignore_rowid:
                    continue
                if all(self.columns[col].equal(row[col], candidate[col])
                       for col in key):
                    return True
        return False

    # -- mutation -------------------------------------------------------------

    def insert(self, values: dict, *, now: int = 0) -> Row:
        """Add a row; enforces uniqueness, fills defaults."""
        row = self._normalise(values)
        if self._violates_unique(row):
            raise MoiraError(MR_EXISTS, f"{self.name}: {values}")
        cols = ", ".join(f'"{c}"' for c in self.columns)
        marks = ", ".join("?" for _ in self.columns)
        cursor = self._db.conn.execute(
            f'INSERT INTO "{self.name}" ({cols}) VALUES ({marks})',
            tuple(row[c] for c in self.columns))
        row[_ROWID] = cursor.lastrowid
        self.stats.appends += 1
        self.stats.modtime = now
        self.version += 1
        return row

    def update_rows(self, rows: list[Row], changes: dict, *,
                    now: int = 0, touch_stats: bool = True) -> int:
        """Apply *changes* to rows located by their rowids."""
        coerced = self._normalise(changes, partial=True)
        for row in rows:
            candidate = {c: row[c] for c in self.columns}
            candidate.update(coerced)
            if self._violates_unique(candidate,
                                     ignore_rowid=row.get(_ROWID)):
                raise MoiraError(MR_EXISTS, f"{self.name}: {changes}")
        if coerced:
            sets = ", ".join(f'"{c}" = ?' for c in coerced)
            for row in rows:
                self._db.conn.execute(
                    f'UPDATE "{self.name}" SET {sets} WHERE rowid = ?',
                    (*coerced.values(), row[_ROWID]))
                row.update(coerced)
        if touch_stats:
            self.stats.updates += len(rows)
            self.stats.modtime = now
            self.version += len(rows)
        return len(rows)

    def delete_rows(self, rows: list[Row], *, now: int = 0) -> int:
        """Remove the given rows by rowid."""
        if not rows:
            return 0
        for row in rows:
            self._db.conn.execute(
                f'DELETE FROM "{self.name}" WHERE rowid = ?',
                (row[_ROWID],))
        self.stats.deletes += len(rows)
        self.stats.modtime = now
        self.version += len(rows)
        return len(rows)

    def clear(self) -> None:
        """Delete every row."""
        self._db.conn.execute(f'DELETE FROM "{self.name}"')
        self.version += 1

    # -- retrieval -------------------------------------------------------------

    def iter_select(
        self,
        where: Optional[dict] = None,
        *,
        predicate: Optional[Callable[[Row], bool]] = None,
    ) -> Iterator[Row]:
        """Yield matching rows (SQL prefilter + Python semantics)."""
        where = where or {}
        sql_parts: list[str] = []
        params: list[Any] = []
        py_exact: dict[str, Any] = {}
        wild: dict[str, WildcardPattern] = {}
        for name, value in where.items():
            column = self.column(name)
            if column.kind is str and WildcardPattern.is_wild(str(value)):
                wild[name] = WildcardPattern(str(value),
                                             column.fold_case)
            else:
                coerced = column.coerce(value)
                if column.kind is str and column.fold_case:
                    py_exact[name] = coerced  # fold in Python
                else:
                    sql_parts.append(f'"{name}" = ?')
                    params.append(coerced)

        for row in self._fetch(" AND ".join(sql_parts), tuple(params)):
            ok = all(self.columns[n].equal(row[n], v)
                     for n, v in py_exact.items())
            if ok:
                ok = all(p.matches(str(row[n]))
                         for n, p in wild.items())
            if ok and predicate is not None and not predicate(row):
                ok = False
            if ok:
                yield row

    def select(self, where: Optional[dict] = None, *,
               predicate: Optional[Callable[[Row], bool]] = None
               ) -> list[Row]:
        """Matching rows as a list."""
        return list(self.iter_select(where, predicate=predicate))

    def count(self, where: Optional[dict] = None) -> int:
        """Number of rows matching *where*."""
        if not where:
            (n,) = self._db.conn.execute(
                f'SELECT COUNT(*) FROM "{self.name}"').fetchone()
            return n
        return sum(1 for _ in self.iter_select(where))

    @property
    def rows(self) -> list[Row]:
        """All rows (a fresh snapshot; mutations go through the API)."""
        return self._fetch()

    def add_index(self, column_name: str) -> None:
        """Create a SQLite index on a column."""
        self.column(column_name)
        self._db.conn.execute(
            f'CREATE INDEX IF NOT EXISTS '
            f'"ix_{self.name}_{column_name}" '
            f'ON "{self.name}" ("{column_name}")')

    def __len__(self) -> int:
        return self.count()


class _LockedView:
    """``read_view()`` here: the database itself, for as long as its
    lock is held (one sqlite3 connection cannot serve concurrent
    cursors, so reads serialise too)."""

    __slots__ = ("_db",)

    def __init__(self, db: "SqliteDatabase"):
        self._db = db

    def __enter__(self) -> "SqliteDatabase":
        self._db.lock.acquire()
        return self._db

    def __exit__(self, *exc_info) -> None:
        self._db.lock.release()


class SqliteDatabase(StorageBackend):
    """Database-compatible facade over a sqlite3 connection."""

    def __init__(self, path: str = ":memory:"):
        self.conn = sqlite3.connect(path, check_same_thread=False)
        self.conn.isolation_level = None  # autocommit
        self.tables: dict[str, SqliteTable] = {}
        self.lock = threading.RLock()

    def read_view(self) -> _LockedView:
        """The read verb: this database, under its lock."""
        return _LockedView(self)

    def write_txn(self, *, commit_hook=None, abort_hook=None) -> LockTxn:
        """The write verb: the exclusive lock.  The connection runs in
        autocommit with no undo log, so a body that raises midway keeps
        the rows it already wrote; only the memory backend rolls back."""
        return LockTxn(self, commit_hook, abort_hook)

    def create_table_from(self, spec) -> SqliteTable:
        """Create a relation from an engine Table (schema carrier)."""
        table = SqliteTable(self, spec.name,
                            list(spec.columns.values()),
                            unique=spec.unique_keys,
                            indexes=list(spec._indexes))
        self.tables[spec.name] = table
        return table

    def table(self, name: str) -> SqliteTable:
        """The relation named *name* (MR_INTERNAL if unknown)."""
        try:
            return self.tables[name]
        except KeyError:
            raise MoiraError(MR_INTERNAL,
                             f"no relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    # -- values helpers (identical contract to engine.Database) ----------------

    def get_value(self, name: str) -> int:
        """Integer value of a values-relation variable."""
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
        with self.lock:
            value = self.get_value(hint_name)
            self.set_value(hint_name, value + 1, now=now)
            return value

    def table_stats(self) -> list[tuple]:
        """TBLSTATS rows for every relation, sorted by name."""
        return [table.stats.as_tuple(name)
                for name, table in sorted(self.tables.items())]

    def versions(self) -> dict[str, int]:
        """Data-version vector, matching engine.Database.versions()."""
        return {name: table.version
                for name, table in self.tables.items()}

    def close(self) -> None:
        """Close the underlying SQLite connection."""
        self.conn.close()


def sqlite_database_from_schema(path: str = ":memory:") -> SqliteDatabase:
    """Build the full Moira schema (with its seeds) on SQLite.

    The pure-Python ``build_database()`` is used as the schema carrier:
    its table definitions and seed rows are copied into the SQLite
    store, so both backends always share one schema source of truth.
    """
    from repro.db.schema import build_database

    carrier: Database = build_database()
    db = SqliteDatabase(path)
    for name, spec in carrier.tables.items():
        table = db.create_table_from(spec)
        for row in spec.rows:
            table.insert(dict(row))
        # seed rows are schema, not user appends
        table.stats.appends = 0
        table.stats.modtime = 0
    return db
