"""One bookkeeping write per service round: ``set_server_host_internal``
takes its eight host fields repeated, one group per host, and the DCM
records every host a round marked or pushed in one such statement."""

from __future__ import annotations

import pytest

from repro.client.lib import DirectClient
from repro.db.backup import mrbackup
from repro.db.journal import Journal
from repro.db.recovery import checkpoint, recover
from repro.errors import MR_ARGS, MR_MACHINE, MR_SERVICE, MoiraError
from repro.queries.base import check_argc, get_query
from repro.sim.faults import FaultInjector
from tests.test_dcm_group_commit import group_and_newcomer, wide_world

MACHINES = [f"NFS-{i}.MIT.EDU" for i in range(4)]


def group(machine: str, lts: int, inprogress: int = 0) -> list[str]:
    """One host's eight fields: converged at *lts*."""
    return [machine, "0", "1", str(inprogress), "0", "", str(lts), str(lts)]


def host_rows(db) -> dict[int, dict]:
    return {row["mach_id"]: dict(row)
            for row in db.table("serverhosts").select({"service": "NFS"})}


@pytest.fixture
def nfs(db, clock, tmp_path):
    """A journaled NFS service on four hosts, checkpointed."""
    journal = Journal(path=tmp_path / "wal")
    client = DirectClient(db, clock, journal=journal)
    client.query("add_server_info", "NFS", 360, "/tmp/n.out", "/bin/n.sh",
                 "UNIQUE", 1, "NONE", "NONE")
    for machine in MACHINES:
        client.query("add_machine", machine, "VAX")
        client.query("add_server_host_info", "NFS", machine, 1, 0, 0, "")
    checkpoint(db, journal, tmp_path / "ckpt")
    return client, journal


class TestRepeatedGroups:
    def test_argc_takes_whole_groups_only(self):
        query = get_query("set_server_host_internal")
        check_argc(query, ["NFS"] + group("A", 1))
        check_argc(query, ["NFS"] + group("A", 1) + group("B", 1))
        for args in (["NFS"],                                # no group
                     ["NFS"] + group("A", 1) + group("B", 1)[:3],
                     ["NFS"] + group("A", 1)[:7]):
            with pytest.raises(MoiraError) as err:
                check_argc(query, args)
            assert err.value.code == MR_ARGS, len(args)

    def test_a_fixed_handle_takes_no_extra_group(self):
        query = get_query("set_server_internal_flags")
        with pytest.raises(MoiraError) as err:
            check_argc(query, ["NFS", "1", "1", "0", "0", ""] * 2)
        assert err.value.code == MR_ARGS

    def test_three_groups_are_one_entry_and_replay(self, nfs, db,
                                                   tmp_path):
        client, journal = nfs
        # a single group with inprogress=1, as an older DCM journaled
        client.query("set_server_host_internal", "NFS",
                     *group(MACHINES[3], 50, inprogress=1))
        before, appends = host_rows(db), journal.stats()["appends"]
        client.query("set_server_host_internal", "NFS",
                     *group(MACHINES[0], 100), *group(MACHINES[1], 200),
                     *group(MACHINES[2], 300))
        assert journal.stats()["appends"] == appends + 1
        after = host_rows(db)
        moved = {mach_id for mach_id in after
                 if after[mach_id] != before[mach_id]}
        assert sorted(after[mach_id]["lts"] for mach_id in moved) == [
            100, 200, 300]
        assert [row["inprogress"] for row in after.values()
                if row["mach_id"] not in moved] == [1]
        journal.close()
        rec = recover(tmp_path / "ckpt", wal_path=tmp_path / "wal")
        assert host_rows(rec.db) == after
        mrbackup(db, tmp_path / "live")
        mrbackup(rec.db, tmp_path / "replayed")
        assert (tmp_path / "live" / "serverhosts").read_bytes() == (
            tmp_path / "replayed" / "serverhosts").read_bytes()

    def test_an_unknown_host_rolls_back_every_group(self, nfs, db):
        client, journal = nfs
        before, appends = host_rows(db), journal.stats()["appends"]
        with pytest.raises(MoiraError) as err:
            client.query("set_server_host_internal", "NFS",
                         *group(MACHINES[0], 100), *group(MACHINES[1], 200),
                         *group("NOWHERE.MIT.EDU", 300))
        assert err.value.code == MR_MACHINE
        assert host_rows(db) == before
        assert journal.stats()["appends"] == appends

        client.query("delete_server_host_info", "NFS", MACHINES[2])
        with pytest.raises(MoiraError) as err:
            client.query("set_server_host_internal", "NFS",
                         *group(MACHINES[0], 100), *group(MACHINES[2], 300))
        assert err.value.code == MR_SERVICE
        assert host_rows(db)[db.table("machine").select(
            {"name": MACHINES[0]})[0]["mach_id"]]["lts"] == 0


class TestDetachedMidRound:
    def test_a_host_deleted_mid_scan_costs_no_other_outcome(self, tmp_path):
        """An operator detaches the third of twenty NFS hosts while it
        installs.  The round's one outcome write drops that host, logs
        the drop, and records the other nineteen."""
        faults = FaultInjector()
        d = wide_world(tmp_path, faults=faults)
        group_name, login = group_and_newcomer(d)
        d.direct_client().query("add_member_to_list", group_name, "USER",
                                login)
        hosts = d.dcm._live_hosts("NFS")
        detached = hosts[2][1]

        def detach(ctx):
            if ctx["host"] == detached:
                d.direct_client().query("delete_server_host_info", "NFS",
                                        detached)

        faults.call("daemon.execute", detach)
        now = d.clock.now()
        summary = d.pump_cdc()
        nfs = next(o for o in summary["outcomes"] if o["service"] == "NFS")
        assert nfs["pushes"] == 20
        assert any(f"NFS/{detached}: detached mid-round" in line
                   for line in nfs["log"])
        rows = {row["mach_id"]: row for row in
                d.db.table("serverhosts").select({"service": "NFS"})}
        assert hosts[2][0]["mach_id"] not in rows
        for host_row, machine in hosts[:2] + hosts[3:]:
            row = rows[host_row["mach_id"]]
            assert (row["success"], row["lts"]) == (1, now), machine
