"""A journal reopened over its WAL keeps numbering after the highest
seq on disk, never from 1 again; a log whose seqs repeat or go back
is refused."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.db.journal import Journal, JournalDamaged, JournalEntry
from repro.sim.clock import DEFAULT_EPOCH

BASE = DEFAULT_EPOCH + 900


def _record(journal: Journal, n: int) -> None:
    for i in range(n):
        journal.record(BASE + i, "root", "add_machine",
                       (f"RO{i}.MIT.EDU", "VAX"))


def test_a_journal_built_over_a_wal_continues_its_seqs(tmp_path):
    wal = tmp_path / "wal"
    first = Journal(path=wal)
    _record(first, 3)
    first.close()
    again = Journal(path=wal)
    _record(again, 1)
    again.close()
    assert [e.seq for e in Journal.load(wal).entries] == [1, 2, 3, 4]


def test_load_refuses_a_seq_that_goes_back(tmp_path):
    """Seqs 1, 2, 3, 1 once loaded, numbered the next append 4 and
    answered ``after_seq(2)`` with seq 3 and the second seq 1: every
    reader of ``entries`` assumes them sorted."""
    wal = tmp_path / "wal"
    lines = [JournalEntry(when=BASE, who="root", query="q", args=(),
                          seq=seq).to_line() for seq in (1, 2, 3, 1)]
    Path(f"{wal}.{1:016d}").write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalDamaged, match="line 4: seq 1 follows 3"):
        Journal.load(wal)
