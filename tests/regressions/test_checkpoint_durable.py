"""A checkpoint makes its snapshot durable before it drops the WAL.

``checkpoint`` unlinks the WAL segments its snapshot covers.  Every
dump file, the watermark and the directory holding their names must
reach the disk first, or a power loss after the unlink takes
acknowledged writes with it.  The test records the order of
``os.fsync`` and ``os.unlink`` calls and checks it.
"""

from __future__ import annotations

import os

from repro.db.journal import Journal
from repro.db.recovery import CHECKPOINT_META, checkpoint, recover
from repro.db.schema import build_database
from repro.sim.clock import DEFAULT_EPOCH


def test_the_snapshot_is_fsynced_before_the_wal_is_unlinked(
        tmp_path, monkeypatch):
    db = build_database()
    db.table("machine").insert({"name": "DUR.MIT.EDU", "mach_id": 77,
                                "type": "VAX"})
    journal = Journal(path=tmp_path / "wal")
    for i in range(3):
        journal.record(DEFAULT_EPOCH + i, "root", "add_machine",
                       (f"D{i}.MIT.EDU", "VAX"))
    segments = {path for _, path in journal.segment_files()}
    assert segments

    events: list = []
    real_fsync, real_unlink = os.fsync, os.unlink

    def fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", (st.st_dev, st.st_ino)))
        return real_fsync(fd)

    def unlink(path, *args, **kwargs):
        events.append(("unlink", os.fspath(path)))
        return real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "unlink", unlink)
    snap = tmp_path / "snap"
    watermark = checkpoint(db, journal, snap)
    monkeypatch.undo()
    journal.close()

    unlinked = [i for i, (kind, path) in enumerate(events)
                if kind == "unlink" and path in map(os.fspath, segments)]
    assert unlinked, "the covered WAL segment was not unlinked"
    synced_before = {ident for kind, ident in events[:unlinked[0]]
                     if kind == "fsync"}

    def ident(path):
        st = os.stat(path)
        return (st.st_dev, st.st_ino)

    must_be_durable = [snap / name for name in db.tables] + [
        snap / CHECKPOINT_META, snap]
    missing = [path.name for path in must_be_durable
               if ident(path) not in synced_before]
    assert missing == [], f"not fsynced before the WAL unlink: {missing}"
    assert watermark == 3
    assert recover(snap, wal_path=tmp_path / "wal").db.table(
        "machine").select({"name": "DUR.MIT.EDU"})
