"""WAL compaction: supersede folding, barriers, pins, the resync
floor, and the durable segment rewrite (a seed-layout file included).

``Journal.compact`` drops a whitelisted record when a later record of
the same query with the same key follows it, unshielded by a barrier.
The floor it leaves behind turns a lagging replica's ``tail()`` into a
snapshot resync instead of a silent hole; ``load()`` re-derives the
floor from seq gaps so the contract survives restarts.
"""

from __future__ import annotations

from repro.db.journal import Journal
from repro.db.recovery import SUPERSEDABLE_QUERIES, checkpoint, recover
from repro.db.schema import build_database
from repro.sim.clock import DEFAULT_EPOCH, Clock

from tests.test_wal_recovery import apply_one, dump

BASE = DEFAULT_EPOCH + 1000

SUP = {"update_user_shell": 0, "update_finger_by_login": 0}


def shell(journal, login, sh, **kw):
    return journal.record(BASE, "root", "update_user_shell",
                          (login, sh), **kw)


class TestSupersedeFolding:
    def test_superseded_records_fold(self):
        journal = Journal()
        shell(journal, "ann", "/bin/sh")
        shell(journal, "ann", "/bin/csh")
        shell(journal, "ann", "/bin/tcsh")
        shell(journal, "bob", "/bin/sh")
        out = journal.compact(supersedable=SUP)
        assert out["dropped"] == 2
        kept = [(e.query, e.args) for e in journal.entries]
        assert kept == [("update_user_shell", ("ann", "/bin/tcsh")),
                        ("update_user_shell", ("bob", "/bin/sh"))]
        assert journal.stats()["compactions"] == 1
        assert journal.stats()["compacted_away"] == 2

    def test_different_keys_do_not_supersede(self):
        journal = Journal()
        shell(journal, "ann", "/bin/sh")
        shell(journal, "bob", "/bin/sh")
        assert journal.compact(supersedable=SUP)["dropped"] == 0

    def test_different_queries_do_not_supersede(self):
        journal = Journal()
        shell(journal, "ann", "/bin/sh")
        journal.record(BASE, "root", "update_finger_by_login",
                       ("ann", "Ann", "", "", "", "", "", "", ""))
        assert journal.compact(supersedable=SUP)["dropped"] == 0

    def test_non_whitelisted_query_is_a_barrier(self):
        """A query whose replay may read what the dropped record wrote
        shields everything before it."""
        journal = Journal()
        shell(journal, "ann", "/bin/sh")
        journal.record(BASE, "root", "update_user_status", ("ann", "3"))
        shell(journal, "ann", "/bin/csh")
        assert journal.compact(supersedable=SUP)["dropped"] == 0

    def test_register_user_is_not_whitelisted(self):
        """update_user_status stays out of the whitelist: register_user
        replay reads status == REGISTERABLE."""
        assert "update_user_status" not in SUPERSEDABLE_QUERIES
        assert "register_user" not in SUPERSEDABLE_QUERIES


class TestPinsAndFloor:
    def test_pins_bound_the_ceiling(self):
        journal = Journal()
        shell(journal, "ann", "/bin/sh")     # seq 1
        shell(journal, "ann", "/bin/csh")    # seq 2
        shell(journal, "ann", "/bin/tcsh")   # seq 3
        out = journal.compact(supersedable=SUP, pins=(1,))
        assert out["ceiling"] == 1
        assert out["dropped"] == 1           # only seq 1 foldable
        assert out["floor"] == 1

    def test_force_ignores_pins(self):
        journal = Journal()
        shell(journal, "ann", "/bin/sh")
        shell(journal, "ann", "/bin/csh")
        shell(journal, "ann", "/bin/tcsh")
        out = journal.compact(supersedable=SUP, pins=(0,), force=True)
        assert out["dropped"] == 2
        assert out["floor"] == 2

    def test_tail_below_floor_resyncs(self):
        journal = Journal()
        shell(journal, "ann", "/bin/sh")     # seq 1
        shell(journal, "ann", "/bin/csh")    # seq 2 (drops seq 1)
        shell(journal, "bob", "/bin/sh")     # seq 3
        journal.compact(supersedable=SUP, force=True)
        oldest, current, entries = journal.tail(0)
        assert entries is None               # hole between 0 and 2
        _, _, entries = journal.tail(1)
        assert entries is not None           # at the floor: contiguous
        assert [e.seq for e in entries] == [2, 3]

    def test_floor_rederived_on_load(self, tmp_path):
        """A mid-log compaction hole must force resyncs even across a
        restart: load() re-derives the floor from the seq gap."""
        wal = tmp_path / "wal"
        journal = Journal(path=wal)
        shell(journal, "bob", "/bin/sh")     # seq 1 (kept)
        shell(journal, "ann", "/bin/sh")     # seq 2 (dropped)
        shell(journal, "ann", "/bin/csh")    # seq 3
        journal.compact(supersedable=SUP, force=True)
        assert journal._compact_floor == 2
        journal.close()
        loaded = Journal.load(wal)
        assert loaded._compact_floor == 2
        assert [e.seq for e in loaded.entries] == [1, 3]
        _, _, entries = loaded.tail(1)
        assert entries is None               # below the reloaded floor
        _, _, entries = loaded.tail(2)
        assert [e.seq for e in entries] == [3]

    def test_head_drop_resyncs_across_reload(self, tmp_path):
        """Folding the oldest record moves ``oldest_retained`` up; a
        replica below it still resyncs after a reload even though no
        mid-log gap survives to re-derive a floor from."""
        wal = tmp_path / "wal"
        journal = Journal(path=wal)
        shell(journal, "ann", "/bin/sh")     # seq 1 (dropped)
        shell(journal, "ann", "/bin/csh")    # seq 2
        journal.compact(supersedable=SUP, force=True)
        journal.close()
        loaded = Journal.load(wal)
        _, _, entries = loaded.tail(0)
        assert entries is None
        _, _, entries = loaded.tail(1)
        assert [e.seq for e in entries] == [2]


class TestDurableRewrite:
    def _churn(self, journal):
        for sh in ("/bin/sh", "/bin/csh", "/bin/tcsh"):
            shell(journal, "ann", sh)
            shell(journal, "bob", sh)

    def test_monolithic_rewrite_survives_reload(self, tmp_path):
        """A seed-layout monolithic file is folded into one segment by
        the compaction rewrite."""
        wal = tmp_path / "wal"
        journal = Journal()
        self._churn(journal)
        wal.write_text("".join(e.to_line() + "\n"
                               for e in journal.entries))
        journal = Journal.load(wal)
        journal.compact(supersedable=SUP)
        journal.close()
        assert not wal.exists()
        assert [first for first, _ in journal.segment_files()] == [5]
        loaded = Journal.load(wal)
        assert [(e.seq, e.args) for e in loaded.entries] == [
            (5, ("ann", "/bin/tcsh")), (6, ("bob", "/bin/tcsh"))]

    def test_segmented_rewrite_survives_reload(self, tmp_path):
        wal = tmp_path / "wal"
        journal = Journal(path=wal)
        self._churn(journal)
        before = len(journal.segment_files())
        journal.compact(supersedable=SUP)
        assert len(journal.segment_files()) <= max(1, before)
        shell(journal, "cid", "/bin/sh")     # appends reopen a segment
        journal.close()
        loaded = Journal.load(wal)
        assert [e.args for e in loaded.entries] == [
            ("ann", "/bin/tcsh"), ("bob", "/bin/tcsh"),
            ("cid", "/bin/sh")]
        assert loaded._next_seq == 8

    def test_compact_noop_leaves_file_alone(self, tmp_path):
        wal = tmp_path / "wal"
        journal = Journal(path=wal)
        shell(journal, "ann", "/bin/sh")
        seg = journal.segment_files()[0][1]
        raw = seg.read_bytes()
        out = journal.compact(supersedable=SUP)
        assert out["dropped"] == 0
        assert seg.read_bytes() == raw
        journal.close()


class TestEndToEndRecovery:
    def test_recovery_from_compacted_wal_is_byte_identical(self,
                                                           tmp_path):
        """checkpoint + compacted WAL == the live primary, exactly —
        folding superseded shell churn loses no recoverable state."""
        db = build_database()
        clock = Clock()
        journal = Journal(path=tmp_path / "wal")
        apply_one(db, journal, clock, BASE, "add_user",
                  ["ann", "7001", "/bin/sh", "Last", "Ann", "", "1",
                   "mit001", "1990"])
        checkpoint(db, journal, tmp_path / "snap")
        for i, sh in enumerate(("/bin/csh", "/bin/tcsh", "/bin/sh",
                                "/bin/athena/tcsh")):
            apply_one(db, journal, clock, BASE + 10 + i,
                      "update_user_shell", ["ann", sh])
        dropped = journal.compact(
            supersedable=SUPERSEDABLE_QUERIES)["dropped"]
        assert dropped == 3
        journal.close()
        rec = recover(tmp_path / "snap", wal_path=tmp_path / "wal")
        assert dump(rec.db, tmp_path / "replayed") == \
            dump(db, tmp_path / "primary")
