"""A DCM that dies mid-push leaves no host marked in progress.

The DCM once journaled ``inprogress=1`` before each host push and
cleared it with the outcome.  A crash between the two left the flag
set after recovery, and ``delete_server_host_info`` refused that host
with ``MR_IN_USE`` until the service next pushed it.  The DCM's lock is
its in-flight marker now; nothing it journals carries InProgress."""

from __future__ import annotations

import pytest

from repro.client.lib import DirectClient
from repro.db.recovery import checkpoint, recover
from repro.sim.faults import FaultInjector, ServerCrash
from tests.test_dcm_group_commit import group_and_newcomer, wide_world


def test_a_crash_mid_push_recovers_no_inprogress_row(tmp_path):
    faults = FaultInjector()
    d = wide_world(tmp_path, faults=faults)
    checkpoint(d.db, d.journal, tmp_path / "ckpt")
    group, login = group_and_newcomer(d)
    d.direct_client().query("add_member_to_list", group, "USER", login)
    first = faults.calls("daemon.execute")
    crashed = []
    faults.call("daemon.execute", lambda ctx: crashed.append(ctx["host"]),
                at_call=first + 5)
    faults.crash_server("daemon.execute", at_call=first + 5)
    with pytest.raises(ServerCrash):
        d.pump_cdc()
    d.journal.close()      # the un-fsync'd tail reached the file: kept

    rec = recover(tmp_path / "ckpt", wal_path=tmp_path / "wal")
    for table in ("servers", "serverhosts"):
        stuck = [row for row in rec.db.table(table).rows
                 if row["inprogress"]]
        assert stuck == [], table
    [machine] = crashed     # an NFS server, mid-install
    mach_id = rec.db.table("machine").select({"name": machine})[0][
        "mach_id"]
    key = {"service": "NFS", "mach_id": mach_id}
    assert rec.db.table("serverhosts").select(key)
    DirectClient(rec.db, d.clock, caller="root").query(
        "delete_server_host_info", "NFS", machine)
    assert not rec.db.table("serverhosts").select(key)
