"""Relational database substrate — the reproduction's stand-in for RTI INGRES.

The paper states Moira "does not depend on any special feature of INGRES"
and can "easily utilize other relational databases"; every access goes
through the predefined query layer.  This package provides exactly the
feature set that layer needs: typed relations, uniqueness constraints,
equality indexes, Moira-style wildcard matching, table statistics, an
ASCII backup format (mrbackup/mrrestore), and a change journal.
"""

from repro.db.backend import (
    StorageBackend,
    StorageTable,
    available_backends,
    create_backend,
)
from repro.db.engine import Column, Database, Row, Table, WildcardPattern
from repro.db.fairlock import FairLock
from repro.db.locks import LockManager, LockMode
from repro.db.journal import Journal
from repro.db.mvcc import Snapshot, SnapshotStale, SnapshotTable

__all__ = [
    "Column",
    "Database",
    "FairLock",
    "Row",
    "Table",
    "WildcardPattern",
    "LockManager",
    "LockMode",
    "Journal",
    "Snapshot",
    "SnapshotStale",
    "SnapshotTable",
    "StorageBackend",
    "StorageTable",
    "available_backends",
    "create_backend",
]
