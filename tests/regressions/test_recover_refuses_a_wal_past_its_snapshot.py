"""Recovery refuses a WAL that starts past its snapshot's watermark.

Recovering from an older checkpoint (watermark 1) with the WAL a newer
checkpoint truncated (first seq 3) once replayed seq 3 onto a snapshot
that lacked seq 2: a state no commit made.  Now the recovery raises,
as a replica's salvage of a dead primary's WAL already did, and the
newer checkpoint still recovers."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.db.backup import mrbackup
from repro.db.journal import Journal, JournalDamaged
from repro.db.recovery import checkpoint, recover
from repro.db.schema import build_database
from repro.queries.base import QueryContext, execute_query
from repro.sim.clock import DEFAULT_EPOCH, Clock


def _write(db, journal: Journal, n: int) -> None:
    ctx = QueryContext(db=db, clock=Clock(DEFAULT_EPOCH + n), caller="root",
                       client="test", privileged=True, journal=journal)
    execute_query(ctx, "add_machine", [f"OLD{n}.MIT.EDU", "VAX"])


def _dump(db, directory: Path) -> dict[str, bytes]:
    mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_an_older_snapshot_with_a_newer_wal_is_refused(tmp_path):
    wal = tmp_path / "wal"
    db = build_database()
    journal = Journal(path=wal)
    _write(db, journal, 1)
    assert checkpoint(db, journal, tmp_path / "older") == 1
    _write(db, journal, 2)
    assert checkpoint(db, journal, tmp_path / "newer") == 2
    _write(db, journal, 3)
    journal.close()

    with pytest.raises(JournalDamaged, match="starts at seq 3"):
        recover(tmp_path / "older", wal_path=wal)
    result = recover(tmp_path / "newer", wal_path=wal)
    assert result.replayed == 1
    assert _dump(result.db, tmp_path / "recovered") == _dump(
        db, tmp_path / "live")
