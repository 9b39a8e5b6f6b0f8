"""Journal edge-case tests: after_seq()/tail() bisection
boundaries, group-commit fsync batching, and WAL segment rotation.

The replication tail protocol leans on these exact edges — an empty
log, the first/last retained entry, and the seq gap a checkpoint
truncate leaves behind — so they get direct coverage here instead of
only riding along inside the crash sweeps.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.db.journal import Journal
from repro.db.recovery import checkpoint, recover
from repro.db.schema import build_database
from repro.sim.clock import DEFAULT_EPOCH, Clock

from tests.test_wal_recovery import apply_one, dump, mutations

BASE = DEFAULT_EPOCH + 1000


def fill(journal, n, start=0, fsync=True):
    for i in range(start, start + n):
        journal.record(BASE + i * 10, "root", "q", (str(i),), fsync=fsync)


class TestBisectionBoundaries:
    def test_empty_log(self):
        journal = Journal()
        assert journal.after_seq(0) == []
        assert journal.after_seq(99) == []
        assert journal.last_seq() == 0
        assert journal.current_seq() == 0
        assert journal.oldest_seq() == 1
        assert journal.tail(0) == (1, 0, [])

    def test_single_entry(self):
        journal = Journal()
        fill(journal, 1)
        assert [e.seq for e in journal.after_seq(0)] == [1]
        assert journal.after_seq(1) == []
        assert journal.tail(0)[2] == journal.entries
        assert journal.tail(1) == (1, 1, [])

    def test_first_and_last_entry_probes(self):
        journal = Journal()
        fill(journal, 20)
        # first retained entry
        assert journal.after_seq(0)[0].seq == 1
        # last retained entry
        assert [e.seq for e in journal.after_seq(19)] == [20]
        # one past the end
        assert journal.after_seq(20) == []

    def test_seq_gap_after_truncate(self):
        journal = Journal()
        fill(journal, 10)
        journal.truncate(6)
        # after_seq silently starts at the oldest retained entry...
        assert [e.seq for e in journal.after_seq(3)] == [7, 8, 9, 10]
        assert [e.seq for e in journal.after_seq(6)] == [7, 8, 9, 10]
        assert [e.seq for e in journal.after_seq(9)] == [10]
        # ...but tail() reports the gap so a replica knows to resync
        oldest, current, entries = journal.tail(3)
        assert (oldest, current) == (7, 10)
        assert entries is None
        # the boundary itself is NOT a gap: 6+1 == oldest
        oldest, current, entries = journal.tail(6)
        assert [e.seq for e in entries] == [7, 8, 9, 10]

    def test_current_seq_survives_full_truncate(self):
        journal = Journal()
        fill(journal, 5)
        journal.truncate(5)
        assert journal.last_seq() == 0       # nothing retained
        assert journal.current_seq() == 5    # but history is remembered
        assert journal.oldest_seq() == 6
        assert journal.tail(5) == (6, 5, [])
        # a fresh replica (after_seq=0) must resync, not silently skip
        assert journal.tail(0)[2] is None


class TestGroupCommit:
    @pytest.fixture()
    def fsync_counter(self, monkeypatch):
        import repro.db.journal as journal_mod
        calls = []
        real = os.fsync

        def counting(fd):
            calls.append(fd)
            return real(fd)

        monkeypatch.setattr(journal_mod.os, "fsync", counting)
        return calls

    def test_default_is_fsync_per_append(self, tmp_path, fsync_counter):
        journal = Journal(path=tmp_path / "wal")
        fill(journal, 5)
        assert len(fsync_counter) == 5
        journal.close()
        assert len(fsync_counter) == 5   # nothing pending at close

    def test_truncate_syncs_pending_batch(self, tmp_path):
        journal = Journal(path=tmp_path / "wal")
        fill(journal, 10, fsync=False)
        journal.truncate(4)      # must not lose the unsynced 5..10
        loaded = Journal.load(tmp_path / "wal")
        assert [e.seq for e in loaded.entries] == [5, 6, 7, 8, 9, 10]

    def test_sync_is_idempotent(self, tmp_path, fsync_counter):
        journal = Journal(path=tmp_path / "wal")
        fill(journal, 3, fsync=False)
        assert len(fsync_counter) == 0
        journal.sync()
        journal.sync()           # nothing new to sync
        assert len(fsync_counter) == 1
        fill(journal, 2, start=3, fsync=False)
        journal.close()          # close syncs the deferred remainder
        assert len(fsync_counter) == 2
        loaded = Journal.load(tmp_path / "wal")
        assert [e.seq for e in loaded.entries] == [1, 2, 3, 4, 5]


class TestSegmentRotation:
    def test_appends_go_to_segment_files(self, tmp_path):
        wal = tmp_path / "wal"
        journal = Journal(path=wal)
        fill(journal, 10)
        journal.close()
        assert not wal.exists()          # no monolithic file
        segs = journal.segment_files()
        assert [first for first, _ in segs] == [1]

    def test_truncate_unlinks_covered_segments(self, tmp_path):
        wal = tmp_path / "wal"
        journal = Journal(path=wal)
        fill(journal, 10)
        journal.truncate(10)             # checkpoint covers everything
        assert journal.segment_files() == []
        fill(journal, 5, start=10)       # new segment starts at seq 11
        journal.close()
        segs = journal.segment_files()
        assert [first for first, _ in segs] == [11]
        loaded = Journal.load(wal)
        assert [e.seq for e in loaded.entries] == [11, 12, 13, 14, 15]

    def test_truncate_rewrites_straddling_segment(self, tmp_path):
        wal = tmp_path / "wal"
        journal = Journal(path=wal)
        fill(journal, 10)
        journal.truncate(4)              # watermark inside the segment
        segs = journal.segment_files()
        assert [first for first, _ in segs] == [5]
        loaded = Journal.load(wal)
        assert [e.seq for e in loaded.entries] == [5, 6, 7, 8, 9, 10]

    def test_compaction_across_checkpoints(self, tmp_path):
        """Repeated checkpoint cycles keep the segment count bounded:
        covered segments are unlinked, never rescanned or rewritten."""
        wal = tmp_path / "wal"
        journal = Journal(path=wal)
        for cycle in range(5):
            fill(journal, 20, start=cycle * 20)
            assert len(journal.segment_files()) == 1
            journal.truncate(journal.last_seq())
            assert journal.segment_files() == []
        assert journal.current_seq() == 100

    def test_torn_tail_in_segment_is_scrubbed(self, tmp_path):
        wal = tmp_path / "wal"
        journal = Journal(path=wal)
        fill(journal, 3)
        journal.close()
        seg = journal.segment_files()[0][1]
        with open(seg, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 4, "when": 567')     # torn mid-record
        loaded = Journal.load(wal)
        assert loaded.torn_tail
        assert [e.seq for e in loaded.entries] == [1, 2, 3]
        # the torn record is scrubbed: appends go to a NEW segment a
        # future load reads past (no stopping short at the old tear)
        loaded.record(BASE, "root", "q", ())
        loaded.close()
        again = Journal.load(wal)
        assert [e.seq for e in again.entries] == [1, 2, 3, 4]
        assert not again.torn_tail

    def write_seed(self, wal, tail):
        """Hand-write a monolithic seed-layout WAL file: three records,
        then *tail*."""
        with open(wal, "w", encoding="utf-8") as fh:
            for i in range(3):
                fh.write(json.dumps({"seq": i + 1, "when": BASE + i,
                                     "who": "root", "query": "q",
                                     "args": [str(i)]}) + "\n")
            fh.write(tail)

    def test_seed_file_folds_into_segments_on_truncate(self, tmp_path):
        wal = tmp_path / "wal"
        self.write_seed(wal, "")
        journal = Journal.load(wal)
        assert [e.seq for e in journal.entries] == [1, 2, 3]
        fill(journal, 2, start=3)        # appends open segment 4
        assert [first for first, _ in journal.segment_files()] == [4]
        journal.truncate(2)              # watermark inside the seed file
        journal.close()
        assert not wal.exists()          # folded: no monolithic file
        assert [first for first, _ in journal.segment_files()] == [3, 4]
        loaded = Journal.load(wal)
        assert [e.seq for e in loaded.entries] == [3, 4, 5]
        assert loaded.current_seq() == 5
        assert not loaded.torn_tail

    def test_torn_seed_file_stops_load_cleanly(self, tmp_path):
        wal = tmp_path / "wal"
        self.write_seed(wal, '{"seq": 4, "when": 567')   # torn mid-record
        loaded = Journal.load(wal)
        assert loaded.torn_tail
        assert [e.seq for e in loaded.entries] == [1, 2, 3]
        loaded.record(BASE, "root", "q", ())
        loaded.close()
        assert not wal.exists()          # scrubbed into a segment
        again = Journal.load(wal)
        assert [e.seq for e in again.entries] == [1, 2, 3, 4]
        assert not again.torn_tail

    def test_checkpoint_recover_with_segments(self, tmp_path):
        """The PR 4 recovery protocol is segment-agnostic end to end."""
        db = build_database()
        journal = Journal(path=tmp_path / "wal")
        clock = Clock()
        muts = mutations(12)
        for i, (name, args) in enumerate(muts[:8]):
            apply_one(db, journal, clock, BASE + i * 10, name, args)
        checkpoint(db, journal, tmp_path / "snap")
        for i, (name, args) in enumerate(muts[8:], start=8):
            apply_one(db, journal, clock, BASE + i * 10, name, args)
        journal.close()
        rec = recover(tmp_path / "snap", wal_path=tmp_path / "wal")
        assert rec.replayed == 4
        assert dump(rec.db, tmp_path / "d1") == dump(db, tmp_path / "d2")
