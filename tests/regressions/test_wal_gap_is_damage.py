"""A lost stretch of WAL is damage, never a hole to read past.

Every append takes the next seq and only a checkpoint's truncate drops
entries, from the front, so the seqs on disk run without a gap.  With
segments ``wal.…1`` (seqs 1–3), ``wal.…4`` (4–6) and ``wal.…7`` (7–9)
and ``wal.…4`` lost, a load once returned ``[1, 2, 3, 7, 8, 9]`` as if
the gap were a deliberate fold, and recovery replayed past three
acknowledged writes it no longer had.  Now the load and the recovery
raise, naming the file and the missing seqs, and leave every file as
it was."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.db.journal import Journal, JournalDamaged
from repro.db.recovery import checkpoint, recover
from repro.db.schema import build_database
from repro.queries.base import QueryContext, execute_query
from repro.sim.clock import DEFAULT_EPOCH, Clock


def _write(db, journal: Journal, n: int) -> None:
    ctx = QueryContext(db=db, clock=Clock(DEFAULT_EPOCH + n), caller="root",
                       client="test", privileged=True, journal=journal)
    execute_query(ctx, "add_machine", [f"GAP{n}.MIT.EDU", "VAX"])


def _wal_files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.glob("wal*")}


def test_a_lost_middle_segment_refuses_load_and_recover(tmp_path):
    wal = tmp_path / "wal"
    db = build_database()
    checkpoint(db, Journal(path=wal), tmp_path / "snap")
    for first in (1, 4, 7):
        journal = Journal(path=wal)     # each opening starts a segment
        for n in range(first, first + 3):
            _write(db, journal, n)
        journal.close()
    assert [first for first, _ in journal.segment_files()] == [1, 4, 7]
    Path(f"{wal}.{4:016d}").unlink()
    before = _wal_files(tmp_path)
    for opener in (Journal.load, lambda path: Journal(path=path),
                   lambda path: recover(tmp_path / "snap", wal_path=path)):
        with pytest.raises(JournalDamaged) as exc:
            opener(wal)
        assert f"{wal.name}.{7:016d}" in str(exc.value)
        assert "4..6" in str(exc.value)
        assert _wal_files(tmp_path) == before   # nothing rewritten
