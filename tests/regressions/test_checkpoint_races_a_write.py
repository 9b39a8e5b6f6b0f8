"""A checkpoint is one consistent cut: a write that commits while it
runs is in the WAL it keeps, never lost between dump and watermark.

The checkpoint dumped under a lock it then dropped, and only after
that read the journal's newest seq as its watermark.  A write that
committed in between was in neither the dump nor the WAL, which the
checkpoint truncated through that watermark: ``recover`` replayed 0
entries and the acknowledged machine was gone.  Every write also
waited out the whole dump.  The dump and the watermark now come from
one ``read_view()``: on the memory engine a pinned snapshot that
writers commit past, on SQLite the lock itself."""

from __future__ import annotations

import threading
from pathlib import Path

import pytest

from repro.db import backup, recovery
from repro.db.backend import available_backends, create_backend
from repro.db.journal import Journal
from repro.db.recovery import checkpoint, recover
from repro.queries.base import QueryContext, execute_query
from repro.sim.clock import DEFAULT_EPOCH, Clock


def _write(db, journal: Journal, n: int) -> None:
    ctx = QueryContext(db=db, clock=Clock(DEFAULT_EPOCH + n), caller="root",
                       client="test", privileged=True, journal=journal)
    execute_query(ctx, "add_machine", [f"RACE{n}.MIT.EDU", "VAX"])


def _dump(db, directory: Path) -> dict[str, bytes]:
    backup.mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("name", available_backends())
def test_a_write_after_the_dump_survives_recovery(name, tmp_path,
                                                  monkeypatch):
    wal, snap = tmp_path / "wal", tmp_path / "snap"
    db = create_backend(name)
    journal = Journal(path=wal)
    for n in range(1, 4):
        _write(db, journal, n)
    writer = threading.Thread(target=_write, args=(db, journal, 4))
    dump = recovery.mrbackup

    def dump_then_write(view, directory):
        sizes = dump(view, directory)
        writer.start()
        # a pinned view lets the write commit now; a view holding the
        # writer lock makes it wait for the checkpoint to finish
        writer.join(timeout=0.5)
        return sizes

    monkeypatch.setattr(recovery, "mrbackup", dump_then_write)
    watermark = checkpoint(db, journal, snap)
    monkeypatch.undo()
    writer.join(timeout=30)
    assert not writer.is_alive()
    journal.close()

    recovered = recover(snap, wal_path=wal, db=create_backend(name))
    assert recovered.watermark == watermark
    assert recovered.replayed == 4 - watermark
    assert recovered.db.table("machine").select({"name": "RACE4.MIT.EDU"})
    assert _dump(recovered.db, tmp_path / "recovered") == _dump(
        db, tmp_path / "live")


def test_a_write_commits_while_the_dump_is_paused(tmp_path, monkeypatch):
    """On the memory engine nothing waits for a dump: a write from
    another thread commits while ``mrbackup`` is paused inside its
    first relation, and that dump is the cut from before the write."""
    db = create_backend("memory")
    journal = Journal(path=tmp_path / "wal")
    _write(db, journal, 1)
    before = _dump(db, tmp_path / "before")
    writer = threading.Thread(target=_write, args=(db, journal, 2))
    line = backup.dump_line

    def pause_for_a_write(values):
        if writer.ident is None:        # the first line: start the write
            writer.start()
            writer.join(timeout=10)
        return line(values)

    monkeypatch.setattr(backup, "dump_line", pause_for_a_write)
    try:
        paused = _dump(db, tmp_path / "paused")
        committed = not writer.is_alive()
    finally:
        monkeypatch.undo()
        writer.join(timeout=30)
        journal.close()
    assert committed, "the write waited for the dump"
    assert paused == before
    assert db.table("machine").select({"name": "RACE2.MIT.EDU"})
    assert journal.last_seq() == 2
