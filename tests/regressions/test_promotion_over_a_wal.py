"""A replica promoted over a WAL that already holds entries leaves no
gap on disk.

Promotion numbers the new primary's writes from the replica's applied
seq + 1.  A journal handed in over a WAL holding seqs 1–2, on a replica
that had applied 5, once kept them and appended seq 6 after them: the
log on disk read ``[1, 2, 6]``, a gap that a load now refuses as
damage.  The replica's state covers everything up to its applied seq,
so promotion drops what the WAL holds up to there."""

from __future__ import annotations

from repro.db.journal import Journal
from tests.test_failover import (SCRIPT, admin_conn, chaos_world,
                                 make_replica, send, write_when)


def test_the_promoted_wal_starts_after_the_applied_seq(tmp_path):
    world = chaos_world(tmp_path / "wal")
    cid = admin_conn(world.server)
    for wnum, name in SCRIPT[:5]:
        world.clock.set(write_when(wnum))
        assert send(world.server, cid, ["add_machine", name, "VAX"]) == 0
    replica = make_replica(world, "r0")
    replica.step()
    assert replica.applied_seq == 5
    stale = Journal(path=tmp_path / "promoted")
    for i in range(2):
        stale.record(write_when(i), "root", "add_machine",
                     (f"STALE{i}.MIT.EDU", "VAX"))
    stale.close()

    replica.promote(journal=Journal(path=tmp_path / "promoted"))
    world.clock.set(write_when(6))
    assert send(replica.server, admin_conn(replica.server),
                ["add_machine", "POST.MIT.EDU", "VAX"]) == 0
    replica.server.journal.close()
    assert [e.seq for e in Journal.load(tmp_path / "promoted").entries] \
        == [6]
