"""Crash-safe WAL tests: durability, torn tails, and the every-boundary
crash-recovery sweep (snapshot + replay == never-crashed oracle)."""

from __future__ import annotations

import json

import pytest

from repro.db.backup import mrbackup
from repro.db.journal import Journal, JournalEntry
from repro.db.recovery import checkpoint, read_watermark, recover
from repro.db.schema import build_database
from repro.errors import MoiraError, MR_NOT_UNIQUE
from repro.queries.base import QueryContext, execute_query
from repro.sim.clock import DEFAULT_EPOCH, Clock
from repro.sim.faults import FaultInjector, ServerCrash

BASE = DEFAULT_EPOCH + 1000


def mutations(n):
    """A deterministic mutation schedule: users and lists."""
    muts = []
    for i in range(n):
        if i % 3 == 2:
            muts.append(("add_list",
                         [f"list{i}", "1", "1", "0", "1", "0", str(900 + i),
                          "NONE", "NONE", f"list number {i}"]))
        else:
            muts.append(("add_user",
                         [f"user{i}", str(7000 + i), "/bin/csh",
                          f"Last{i}", "First", "", "1", f"mitid{i}",
                          "1990"]))
    return muts


def apply_one(db, journal, clock, when, name, args):
    clock.set(when)
    ctx = QueryContext(db=db, clock=clock, caller="root", client="test",
                      privileged=True, journal=journal)
    execute_query(ctx, name, args)


def dump(db, directory):
    mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestDurableJournal:
    def test_wal_roundtrip(self, tmp_path):
        wal = tmp_path / "wal"
        journal = Journal(path=wal)
        journal.record(BASE, "root", "add_user", ("a", "b"))
        journal.record(BASE + 5, "root", "add_list", ("c",))
        journal.close()
        loaded = Journal.load(wal)
        assert [e.query for e in loaded.entries] == ["add_user",
                                                     "add_list"]
        assert loaded.entries[0].seq == 1
        assert loaded.entries[1].seq == 2
        assert not loaded.torn_tail

    def test_torn_tail_is_dropped(self, tmp_path):
        wal = tmp_path / "wal"
        journal = Journal(path=wal)
        journal.record(BASE, "root", "add_user", ("a",))
        journal.close()
        with open(journal.segment_files()[0][1], "a",
                  encoding="utf-8") as fh:
            fh.write('{"seq": 2, "when": 5679946')  # torn mid-record
        # strict mode refuses...
        with pytest.raises(ValueError):
            Journal.load(wal, strict=True)
        # ...the default stops cleanly at the torn record
        loaded = Journal.load(wal)
        assert len(loaded.entries) == 1
        assert loaded.torn_tail

    def test_malformed_line_variants(self):
        for bad in ["", "{", "[1,2]", '{"when": 1}',
                    '{"when": 1, "who": "x", "query": "q", "args": "no"}',
                    "not json at all"]:
            with pytest.raises(ValueError):
                JournalEntry.from_line(bad)
        good = JournalEntry(when=1, who="x", query="q", args=("a",))
        assert JournalEntry.from_line(good.to_line()) == good

    def test_legacy_records_get_positional_seq(self, tmp_path):
        wal = tmp_path / "wal"
        with open(wal, "w", encoding="utf-8") as fh:
            for i in range(3):   # seed-era records had no seq field
                fh.write(json.dumps({"when": BASE + i, "who": "root",
                                     "query": "q", "args": []}) + "\n")
        loaded = Journal.load(wal)
        assert [e.seq for e in loaded.entries] == [1, 2, 3]
        entry = loaded.record(BASE + 9, "root", "q2", ())
        assert entry.seq == 4

    def test_after_seq(self):
        journal = Journal()
        for i in range(10):
            journal.record(BASE + i, "root", "q", ())
        assert [e.seq for e in journal.after_seq(7)] == [8, 9, 10]
        assert journal.after_seq(10) == []
        assert len(journal.after_seq(0)) == 10

    def test_seq_at_commit_is_the_newest_entry_a_view_covers(self):
        journal = Journal()
        for commit_seq in (5, 7, 9):
            journal.record(BASE, "root", "q", (), commit_seq=commit_seq)
        assert [journal.seq_at_commit(c) for c in (4, 5, 8, 9, 50)] == \
            [0, 1, 2, 3, 3]
        journal.truncate(2)
        # none retained at or below: the seq before the oldest retained
        assert journal.seq_at_commit(8) == 2
        journal.truncate(3)
        assert journal.seq_at_commit(8) == 3

    def test_truncate_rewrites_file(self, tmp_path):
        wal = tmp_path / "wal"
        journal = Journal(path=wal)
        for i in range(10):
            journal.record(BASE + i, "root", "q", (str(i),))
        dropped = journal.truncate(6)
        assert dropped == 6
        assert [e.seq for e in journal.entries] == [7, 8, 9, 10]
        loaded = Journal.load(wal)
        assert [e.seq for e in loaded.entries] == [7, 8, 9, 10]
        # appends after a truncate continue the sequence
        journal.record(BASE + 99, "root", "q", ())
        assert journal.last_seq() == 11


class TestCheckpointRecover:
    def test_checkpoint_then_recover(self, tmp_path):
        db = build_database()
        journal = Journal(path=tmp_path / "wal")
        clock = Clock()
        muts = mutations(12)
        for i, (name, args) in enumerate(muts[:8]):
            apply_one(db, journal, clock, BASE + i * 10, name, args)
        watermark = checkpoint(db, journal, tmp_path / "snap")
        assert watermark == 8
        assert read_watermark(tmp_path / "snap") == 8
        assert len(journal) == 0     # WAL truncated behind the snapshot
        for i, (name, args) in enumerate(muts[8:], start=8):
            apply_one(db, journal, clock, BASE + i * 10, name, args)
        journal.close()

        rec = recover(tmp_path / "snap", wal_path=tmp_path / "wal")
        assert rec.watermark == 8
        assert rec.replayed == 4
        assert rec.skipped_conflicts == 0
        assert dump(rec.db, tmp_path / "d1") == dump(db, tmp_path / "d2")

    def test_recover_refuses_a_snapshot_that_already_holds_the_wal(
            self, tmp_path):
        """A dump with no watermark over a WAL whose entries it already
        contains: the first replayed entry meets its own effect, and
        recovery raises it instead of absorbing it."""
        db = build_database()
        journal = Journal(path=tmp_path / "wal")
        clock = Clock()
        for i, (name, args) in enumerate(mutations(6)):
            apply_one(db, journal, clock, BASE + i * 10, name, args)
        mrbackup(db, tmp_path / "snap")   # snapshot WITHOUT watermark
        journal.close()
        with pytest.raises(MoiraError) as caught:
            recover(tmp_path / "snap", wal_path=tmp_path / "wal")
        assert caught.value.code == MR_NOT_UNIQUE


CRASH_KINDS = ("record", "torn", "appended")


def arm(faults, kind, boundary):
    if kind == "record":
        faults.crash_server("journal.record", at_call=boundary)
    elif kind == "torn":
        faults.tear_write("journal.write", at_call=boundary)
    else:
        faults.crash_server("journal.appended", at_call=boundary)


def run_workload_with_crash(tmp_path, kind, boundary, muts):
    """Run the schedule, crash at the armed WAL boundary, recover from
    snapshot+WAL, resume the schedule; returns the final database."""
    wal_path = tmp_path / "wal"
    snap = tmp_path / "snap"
    faults = FaultInjector()
    arm(faults, kind, boundary)
    db = build_database()
    journal = Journal(path=wal_path, faults=faults)
    checkpoint(db, journal, snap)     # baseline snapshot, watermark 0
    clock = Clock()
    crashed_at = None
    for i, (name, args) in enumerate(muts):
        try:
            apply_one(db, journal, clock, BASE + i * 10, name, args)
        except ServerCrash:
            crashed_at = i
            break
    if crashed_at is None:
        journal.close()
        return db
    # --- the server process is dead; everything in memory is gone ---
    journal.close()
    rec = recover(snap, wal_path=wal_path)
    db = rec.db
    journal = Journal.load(wal_path)
    clock = Clock()
    # the client re-runs its failed mutation and the rest of the
    # schedule; a conflict means the WAL already made it durable
    for j in range(crashed_at, len(muts)):
        name, args = muts[j]
        try:
            apply_one(db, journal, clock, BASE + j * 10, name, args)
        except MoiraError:
            pass
    journal.close()
    return db


class TestEveryBoundarySweep:
    """Kill the server at every journal boundary of a mutation
    workload, in all three crash kinds; snapshot + WAL replay + client
    retry must land byte-identical to the never-crashed oracle."""

    N = 40

    @pytest.fixture(scope="class")
    def oracle_dump(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("oracle")
        db = build_database()
        journal = Journal(path=tmp / "wal")
        clock = Clock()
        for i, (name, args) in enumerate(mutations(self.N)):
            apply_one(db, journal, clock, BASE + i * 10, name, args)
        journal.close()
        return dump(db, tmp / "dump")

    @pytest.mark.parametrize("kind", CRASH_KINDS)
    def test_sweep(self, kind, oracle_dump, tmp_path):
        muts = mutations(self.N)
        for boundary in range(1, self.N + 1):
            workdir = tmp_path / f"{kind}-{boundary}"
            workdir.mkdir()
            db = run_workload_with_crash(workdir, kind, boundary, muts)
            got = dump(db, workdir / "dump")
            assert got == oracle_dump, (
                f"divergence after {kind} crash at boundary {boundary}")

    def test_torn_crash_leaves_torn_tail_on_disk(self, tmp_path):
        """Sanity: the torn-write kind really does leave a partial
        final record for load() to truncate."""
        faults = FaultInjector()
        faults.tear_write("journal.write", at_call=3)
        journal = Journal(path=tmp_path / "wal", faults=faults)
        db = build_database()
        clock = Clock()
        crashed = False
        for i, (name, args) in enumerate(mutations(5)):
            try:
                apply_one(db, journal, clock, BASE + i * 10, name, args)
            except ServerCrash:
                crashed = True
                break
        assert crashed
        journal.close()
        loaded = Journal.load(tmp_path / "wal")
        assert loaded.torn_tail
        assert len(loaded.entries) == 2
