"""A process restarted over a WAL its checkpoint emptied numbers its
writes after the watermark.

A checkpoint that covers the whole log leaves no segment on disk, so a
journal opened there once numbered its next write 1.  That write sat at
or below the snapshot's watermark, and the next recovery from the same
checkpoint skipped it (``replayed 0``): an acknowledged write lost.
Now ``recover`` advances the journal it replays past the watermark and
hands it back as ``RecoveryResult.journal``."""

from __future__ import annotations

from pathlib import Path

from repro.db.backup import mrbackup
from repro.db.journal import Journal
from repro.db.recovery import checkpoint, recover
from repro.db.schema import build_database
from repro.queries.base import QueryContext, execute_query
from repro.sim.clock import DEFAULT_EPOCH, Clock


def _write(db, journal: Journal, n: int) -> None:
    ctx = QueryContext(db=db, clock=Clock(DEFAULT_EPOCH + n), caller="root",
                       client="test", privileged=True, journal=journal)
    execute_query(ctx, "add_machine", [f"RST{n}.MIT.EDU", "VAX"])


def _dump(db, directory: Path) -> dict[str, bytes]:
    mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_a_write_after_restart_survives_the_next_recovery(tmp_path):
    wal, snap = tmp_path / "wal", tmp_path / "snap"
    db = build_database()
    journal = Journal(path=wal)
    for n in range(1, 4):
        _write(db, journal, n)
    assert checkpoint(db, journal, snap) == 3
    journal.close()
    assert journal.segment_files() == []

    restarted = recover(snap, wal_path=wal)     # the process restarts
    _write(restarted.db, restarted.journal, 4)
    assert restarted.journal.last_seq() == 4
    restarted.journal.close()

    again = recover(snap, wal_path=wal)
    assert again.replayed == 1
    assert _dump(again.db, tmp_path / "again") == _dump(
        restarted.db, tmp_path / "live")


def test_a_journal_handed_to_recover_is_advanced_too(tmp_path):
    wal, snap = tmp_path / "wal", tmp_path / "snap"
    db = build_database()
    journal = Journal(path=wal)
    for n in range(1, 4):
        _write(db, journal, n)
    checkpoint(db, journal, snap)
    journal.close()

    reopened = Journal(path=wal)
    recover(snap, journal=reopened)
    assert reopened.record(DEFAULT_EPOCH, "root", "add_machine",
                           ("RST4.MIT.EDU", "VAX")).seq == 4
