"""A checkpoint taken with no writes since the last one keeps the
watermark.

The watermark was the newest *retained* seq, and the previous
checkpoint had emptied the log, so an idle checkpoint recorded 0.  The
next writes (seq 4 on) then sat past a snapshot covering "nothing":
recovery refused the WAL as starting past its snapshot, and a process
restarted from it numbered its writes from 1 again.  The watermark is
now the highest seq ever assigned."""

from __future__ import annotations

from pathlib import Path

from repro.db.backup import mrbackup
from repro.db.journal import Journal
from repro.db.recovery import checkpoint, read_watermark, recover
from repro.db.schema import build_database
from repro.queries.base import QueryContext, execute_query
from repro.sim.clock import DEFAULT_EPOCH, Clock


def _write(db, journal: Journal, n: int) -> None:
    ctx = QueryContext(db=db, clock=Clock(DEFAULT_EPOCH + n), caller="root",
                       client="test", privileged=True, journal=journal)
    execute_query(ctx, "add_machine", [f"IDLE{n}.MIT.EDU", "VAX"])


def _dump(db, directory: Path) -> dict[str, bytes]:
    mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_an_idle_checkpoint_then_a_write_recovers(tmp_path):
    wal, snap = tmp_path / "wal", tmp_path / "snap"
    db = build_database()
    journal = Journal(path=wal)
    for n in range(1, 4):
        _write(db, journal, n)
    assert checkpoint(db, journal, snap) == 3
    assert checkpoint(db, journal, snap) == 3       # nothing written since
    assert read_watermark(snap) == 3
    _write(db, journal, 4)
    journal.close()

    recovered = recover(snap, wal_path=wal)
    assert recovered.replayed == 1
    assert _dump(recovered.db, tmp_path / "recovered") == _dump(
        db, tmp_path / "live")
    assert recovered.journal.record(DEFAULT_EPOCH, "root", "add_machine",
                                    ("IDLE5.MIT.EDU", "VAX")).seq == 5


def test_a_checkpoint_right_after_recovery_keeps_the_watermark(tmp_path):
    wal, snap = tmp_path / "wal", tmp_path / "snap"
    db = build_database()
    journal = Journal(path=wal)
    for n in range(1, 4):
        _write(db, journal, n)
    checkpoint(db, journal, snap)
    journal.close()

    restarted = recover(snap, wal_path=wal)
    assert checkpoint(restarted.db, restarted.journal, snap) == 3
    _write(restarted.db, restarted.journal, 4)
    restarted.journal.close()
    assert recover(snap, wal_path=wal).replayed == 1
