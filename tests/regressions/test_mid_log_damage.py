"""Damage in the middle of the WAL is refused, never read past.

Only the last record of the newest segment can be torn by a crash.  A
load once treated any malformed line as that torn tail: with seq 2
torn in segment ``wal.…1`` (seqs 1–3) and segment ``wal.…4`` holding
seqs 4–6, ``Journal.load`` returned ``[1]``, rewrote segment 1 as
``[1]``, and a second open read ``[1, 4, 5, 6]`` and appended at 7 —
acknowledged writes dropped without a word.  Now the load raises,
naming the segment and the line, and leaves every file as it was.

A torn write is the process's death: the journal refuses every later
append, so no live thread can write past a tear and turn it into
mid-log damage."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.db.journal import Journal, JournalEntry
from repro.sim.clock import DEFAULT_EPOCH
from repro.sim.faults import FaultInjector, ServerCrash

BASE = DEFAULT_EPOCH + 700


def _line(seq: int) -> str:
    return JournalEntry(when=BASE + seq, who="root", query="add_machine",
                        args=(f"MD{seq}.MIT.EDU", "VAX"),
                        seq=seq).to_line()


def _segments(wal: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in wal.parent.iterdir()}


def test_a_torn_line_before_the_newest_segment_refuses_the_load(tmp_path):
    wal = tmp_path / "wal"
    first = Path(f"{wal}.{1:016d}")
    first.write_text(_line(1) + "\n" + _line(2)[:25] + "\n"
                     + _line(3) + "\n")
    Path(f"{wal}.{4:016d}").write_text(
        "".join(_line(seq) + "\n" for seq in (4, 5, 6)))
    before = _segments(wal)
    for opener in (Journal.load, lambda path: Journal(path=path)):
        with pytest.raises(ValueError) as exc:
            opener(wal)
        assert first.name in str(exc.value)
        assert "line 2" in str(exc.value)
        assert _segments(wal) == before     # nothing rewritten


def test_a_torn_line_inside_the_newest_segment_refuses_the_load(tmp_path):
    wal = tmp_path / "wal"
    # a tear another thread appended past: the torn prefix and the next
    # record share line 2
    Path(f"{wal}.{1:016d}").write_text(
        _line(1) + "\n" + _line(2)[:25] + _line(3) + "\n"
        + _line(4) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        Journal.load(wal)


def test_a_torn_write_kills_the_journal(tmp_path):
    wal = tmp_path / "wal"
    faults = FaultInjector()
    faults.tear_write("journal.write", at_call=2)
    journal = Journal(path=wal, faults=faults)
    journal.record(BASE, "root", "add_machine", ("A.MIT.EDU", "VAX"))
    with pytest.raises(ServerCrash):
        journal.record(BASE, "root", "add_machine", ("B.MIT.EDU", "VAX"),
                       fsync=False)
    with pytest.raises(ServerCrash):
        journal.record(BASE, "root", "add_machine", ("C.MIT.EDU", "VAX"))
    journal.close()
    loaded = Journal.load(wal)
    assert loaded.torn_tail
    assert [e.args[0] for e in loaded.entries] == ["A.MIT.EDU"]
