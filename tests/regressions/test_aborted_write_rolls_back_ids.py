"""A failed write gives back the id it drew and the string it interned.

``values`` (the id hints) and ``strings`` (the interned-string heap)
are versioned relations like any other, so a handler that allocates and
then raises rolls its allocations back with the rest of its
transaction: their dumps are unchanged, nothing is journaled, and the
next successful write draws the same id.  Replay then allocates
naturally, and checkpoint + WAL rebuilds the live database byte for
byte.
"""

from __future__ import annotations

from repro.client import DirectClient
from repro.db.backup import mrbackup
from repro.db.journal import Journal
from repro.db.recovery import checkpoint, recover
from repro.db.schema import build_database
from repro.errors import MoiraError, MR_NO_HANDLE
from repro.queries.base import register, unregister
from repro.sim.clock import DEFAULT_EPOCH, Clock


def _dump(db, directory):
    mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_an_aborted_write_rolls_back_its_ids_and_strings(tmp_path):
    drawn = {}

    @register("doomed_alloc", "dmal", ("name",), (), side_effects=True)
    def doomed_alloc(ctx, args):
        drawn["mach_id"] = ctx.db.next_id("mach_id", now=ctx.now)
        drawn["string_id"] = ctx.intern_string(f"{args[0]}@doomed")
        raise MoiraError(MR_NO_HANDLE, "failed after allocating")

    try:
        db = build_database()
        journal = Journal(path=tmp_path / "wal")
        checkpoint(db, journal, tmp_path / "snap")
        client = DirectClient(db, Clock(DEFAULT_EPOCH + 100),
                              journal=journal)
        client.query("add_machine", "FIRST.MIT.EDU", "VAX")

        before = _dump(db, tmp_path / "before")
        logged = len(journal)
        assert client.mr_query("doomed_alloc", ["ghost"]) == MR_NO_HANDLE
        after = _dump(db, tmp_path / "after")
        assert after["values"] == before["values"]
        assert after["strings"] == before["strings"]
        assert len(journal) == logged

        client.query("add_machine", "SECOND.MIT.EDU", "VAX")
        (row,) = db.table("machine").select({"name": "SECOND.MIT.EDU"})
        assert row["mach_id"] == drawn["mach_id"]
        assert db.get_value("strings_id") == drawn["string_id"]
    finally:
        unregister("doomed_alloc")
    journal.close()

    recovered = recover(tmp_path / "snap", wal_path=tmp_path / "wal").db
    assert _dump(recovered, tmp_path / "recovered") == \
        _dump(db, tmp_path / "live")
