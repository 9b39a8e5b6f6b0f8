"""A crash inside a WAL rewrite leaves a log that still loads.

``truncate`` keeps a segment straddling the watermark by writing its
live suffix as a new segment ``wal.<watermark + 1>`` and then unlinking
the old file.  A crash between the two left both: segment ``wal.…1``
with seqs 1–6 and ``wal.…4`` with 4–6.  A load once returned
``[1..6, 4..6]`` and every recovery raised ``OutOfCommitOrder``.  A
load that scrubs a torn seed file rewrites it as a segment the same
way, and a crash there left a torn record in a file that is no longer
the newest, which a load refused as damage.  Now a segment ``wal.N``
supersedes the earlier files' entries from seq N on, so both states
load as the log they were and recover byte for byte."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.db.backup import mrbackup
from repro.db.journal import Journal, JournalEntry
from repro.db.recovery import CHECKPOINT_META, recover
from repro.db.schema import build_database
from repro.queries.base import QueryContext, execute_query
from repro.sim.clock import DEFAULT_EPOCH, Clock
from repro.sim.faults import ServerCrash


def _write(db, journal: Journal, n: int) -> None:
    ctx = QueryContext(db=db, clock=Clock(DEFAULT_EPOCH + n), caller="root",
                       client="test", privileged=True, journal=journal)
    execute_query(ctx, "add_machine", [f"TRC{n}.MIT.EDU", "VAX"])


def _dump(db, directory: Path) -> dict[str, bytes]:
    mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _crash_on_unlink(monkeypatch) -> None:
    def unlink(path, *args, **kwargs):
        raise ServerCrash(f"died before unlinking {path}")
    monkeypatch.setattr(os, "unlink", unlink)


def test_a_crash_between_the_straddle_write_and_the_unlink(
        tmp_path, monkeypatch):
    wal, snap = tmp_path / "wal", tmp_path / "snap"
    db = build_database()
    journal = Journal(path=wal)
    for n in range(1, 4):
        _write(db, journal, n)
    mrbackup(db, snap)                  # a snapshot at watermark 3
    (snap / CHECKPOINT_META).write_text("3\n")
    for n in range(4, 7):
        _write(db, journal, n)
    _crash_on_unlink(monkeypatch)
    with pytest.raises(ServerCrash):
        journal.truncate(3)
    monkeypatch.undo()
    assert [first for first, _ in journal.segment_files()] == [1, 4]

    assert [e.seq for e in Journal.load(wal).entries] == [1, 2, 3, 4, 5, 6]
    result = recover(snap, wal_path=wal)
    assert result.replayed == 3
    assert _dump(result.db, tmp_path / "recovered") == _dump(
        db, tmp_path / "live")


def test_a_crash_while_scrubbing_a_torn_seed_file(tmp_path, monkeypatch):
    wal = tmp_path / "wal"
    lines = [JournalEntry(when=DEFAULT_EPOCH, who="root", query="q",
                          args=(), seq=seq).to_line() for seq in (1, 2, 3)]
    wal.write_text("\n".join(lines) + "\n" + lines[0][:20])  # torn seq 4
    _crash_on_unlink(monkeypatch)
    with pytest.raises(ServerCrash):
        Journal.load(wal)
    monkeypatch.undo()
    assert wal.exists() and Path(f"{wal}.{1:016d}").exists()

    journal = Journal.load(wal)
    assert [e.seq for e in journal.entries] == [1, 2, 3]
    assert journal.record(DEFAULT_EPOCH, "root", "q", ()).seq == 4
