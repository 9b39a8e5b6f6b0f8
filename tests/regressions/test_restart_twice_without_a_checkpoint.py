"""A WAL that spans a restart recovers again.

Each database numbers its commits from its own start, and a restored
one starts far below the process it replaces.  Its first write after
the restart was journaled with a commit seq below the entries it had
just replayed, so the next recovery from the same checkpoint refused
the log (``OutOfCommitOrder: seq 4 has commit_seq 67 after 655``).
``recover`` now numbers the restored database's commits past the
highest commit seq its WAL holds."""

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
    execute_query(ctx, "add_machine", [f"TWICE{n}.MIT.EDU", "VAX"])


def _dump(db, directory: Path) -> dict[str, bytes]:
    mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_a_write_after_one_restart_survives_the_next(tmp_path):
    wal, snap = tmp_path / "wal", tmp_path / "snap"
    db = build_database()
    journal = Journal(path=wal)
    # commits before the checkpoint run the live counter ahead of
    # what a restored database numbers
    for n in range(1, 11):
        _write(db, journal, n)
    checkpoint(db, journal, snap)
    for n in range(11, 14):
        _write(db, journal, n)
    journal.close()

    first = recover(snap, wal_path=wal)         # the process restarts
    assert first.replayed == 3
    _write(first.db, first.journal, 14)
    first.journal.close()
    commit_seqs = [e.commit_seq for e in Journal.load(wal).entries]
    assert commit_seqs == sorted(commit_seqs)

    second = recover(snap, wal_path=wal)        # ... and again
    assert second.replayed == 4
    assert _dump(second.db, tmp_path / "second") == _dump(
        first.db, tmp_path / "first")
