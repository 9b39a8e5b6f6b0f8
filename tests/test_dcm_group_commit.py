"""The DCM's group commit: its bookkeeping writes (service and host
flags) reach the WAL file one by one, but one fsync makes them durable
at the end of each extraction round or cron cycle.

Pinned here: the fsync count of one mutation's propagation, that a
fenced journal still stops the DCM before its next push, and that a
crash between a host install and the fsync costs a re-push, never an
acknowledged client write."""

from __future__ import annotations

import os

import pytest

from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.journal import Journal
from repro.db.recovery import checkpoint, recover
from repro.dcm.dcm import DCM
from repro.errors import MR_FENCED, MoiraError
from repro.sim.faults import FaultInjector, ServerCrash
from repro.workload import PopulationSpec
from tests.test_cdc import installed_files

# twenty NFS servers: one group-membership change is a 20-host scan
WIDE = PopulationSpec(users=60, unregistered_users=5, nfs_servers=20,
                      maillists=8, clusters=3, machines_per_cluster=2,
                      printers=5, network_services=12)


def wide_world(tmp_path, **overrides) -> AthenaDeployment:
    config = dict(population=WIDE, cdc=True, wal_path=tmp_path / "wal")
    config.update(overrides)
    d = AthenaDeployment(DeploymentConfig(**config))
    d.run_hours(25)     # every service built and on every host
    d.clock.advance(60)
    return d


def group_and_newcomer(d) -> tuple[str, str]:
    """A group list and an active user not yet on it."""
    group = next(row for row in d.db.table("list").select({"active": 1})
                 if row["grouplist"] and not row["maillist"])
    members = {row["member_id"] for row in d.db.table("members").select(
        {"list_id": group["list_id"], "member_type": "USER"})}
    user = next(row for row in d.db.table("users").select({"status": 1})
                if row["users_id"] not in members)
    return group["name"], user["login"]


def credentials(d, machine: str) -> bytes:
    return d.hosts[machine.upper()].fs.read("/etc/nfs/credentials")


class TestFsyncCount:
    def test_one_membership_change_costs_two_fsyncs(self, tmp_path):
        """The client's write and the extraction round: one fsync
        each, however many services converge and hosts are pushed —
        and every bookkeeping write is still journaled."""
        d = wide_world(tmp_path)
        group, login = group_and_newcomer(d)
        before = d.journal.stats()
        d.direct_client().query("add_member_to_list", group, "USER", login)
        summary = d.pump_cdc()
        after = d.journal.stats()
        nfs = next(o for o in summary["outcomes"] if o["service"] == "NFS")
        assert nfs["pushes"] == 20
        assert after["fsyncs"] - before["fsyncs"] <= 2
        # the client's write; a flags write per classified service
        # (HESIOD, MAIL, NFS, ZEPHYR); one outcome write per service
        # that pushed (HESIOD, NFS), NFS's naming all twenty hosts
        assert after["appends"] - before["appends"] == 1 + 4 + 2
        [outcome] = [entry for entry in d.journal.after_seq(
                         before["next_seq"] - 1)
                     if entry.query == "set_server_host_internal"
                     and entry.args[0] == "NFS"]
        assert len(outcome.args) == 1 + 8 * 20
        assert sorted(outcome.args[1::8]) == sorted(
            machine for _, machine in d.dcm._live_hosts("NFS"))
        assert after["unsynced"] == 0


class TestFencing:
    def test_fence_between_pushes_stops_the_scan(self, tmp_path):
        """A newer epoch fences the journal while the fifth of twenty
        NFS hosts installs: that host's outcome write and every later
        host's push are refused with MR_FENCED."""
        faults = FaultInjector()
        d = wide_world(tmp_path, faults=faults)
        group, login = group_and_newcomer(d)
        d.direct_client().query("add_member_to_list", group, "USER", login)
        machines = [row[1] for row in d.dcm._live_hosts("NFS")]
        old = {name: credentials(d, name) for name in machines}
        first = faults.calls("daemon.execute")
        faults.call("daemon.execute",
                    lambda ctx: d.journal.fence(d.journal.epoch + 1),
                    at_call=first + 5)
        with pytest.raises(MoiraError) as err:
            d.dcm.converge_service("NFS", d.clock.now())
        assert err.value.code == MR_FENCED
        assert faults.calls("daemon.execute") == first + 5
        assert credentials(d, machines[4]) != old[machines[4]]
        for name in machines[5:]:
            assert credentials(d, name) == old[name], name

    def test_a_fenced_journal_refuses_a_deferred_write(self, tmp_path):
        """``fsync=False`` skips the journal's own epoch check, so the
        query path makes it: the handler never runs."""
        d = wide_world(tmp_path)
        client = d.direct_client()
        d.journal.fence(d.journal.epoch + 1)
        appends = d.journal.stats()["appends"]
        with pytest.raises(MoiraError) as err:
            client.query("add_machine", "FENCED.MIT.EDU", "VAX",
                         fsync=False)
        assert err.value.code == MR_FENCED
        assert not d.db.table("machine").select({"name": "FENCED.MIT.EDU"})
        assert d.journal.stats()["appends"] == appends


def restarted_dcm(d, db) -> DCM:
    """A new DCM process over *db*, driving the same hosts."""
    dcm = DCM(db, d.clock, network=d.network, moira_host=d.moira_host,
              journal=Journal())
    for (service, machine), binding in d.dcm._bindings.items():
        dcm.bind_host(service, machine, binding)
    return dcm


class TestCrashBeforeSync:
    @pytest.mark.parametrize("tail", ["kept", "lost"])
    def test_hosts_match_a_cron_twin_after_recovery(self, tmp_path, tail):
        """The process dies in the round's fsync, after every host
        installed.  Whether the un-fsync'd bookkeeping tail survived
        (``kept``: the kernel had it) or not (``lost``), recovery keeps
        the acknowledged client write, and the next cron cycle leaves
        every host byte-identical to a twin that never crashed."""
        faults = FaultInjector()
        d = wide_world(tmp_path, faults=faults)
        twin = AthenaDeployment(DeploymentConfig(population=WIDE))
        twin.run_hours(25)
        twin.clock.advance(60)
        checkpoint(d.db, d.journal, tmp_path / "ckpt")
        group, login = group_and_newcomer(d)
        for world in (d, twin):
            world.direct_client().query("add_member_to_list", group,
                                        "USER", login)
        segment = d.journal.segment_files()[-1][1]
        durable = segment.stat().st_size   # the acknowledged write's end
        cursor = d.cdc.cursor.seq
        faults.crash_server("journal.batch_flush",
                            at_call=faults.calls("journal.batch_flush") + 1)
        with pytest.raises(ServerCrash):
            d.pump_cdc()
        assert d.cdc.cursor.seq == cursor   # the fsync comes first
        # four services' flags writes and two services' outcome writes
        assert d.journal.stats()["unsynced"] == 4 + 2
        d.journal.close()
        assert d.journal.segment_files()[-1][1] == segment
        if tail == "lost":
            os.truncate(segment, durable)

        rec = recover(tmp_path / "ckpt", wal_path=tmp_path / "wal")
        group_id = rec.db.table("list").select({"name": group})[0]["list_id"]
        users_id = rec.db.table("users").select(
            {"login": login})[0]["users_id"]
        assert rec.db.table("members").select(
            {"list_id": group_id, "member_type": "USER",
             "member_id": users_id})
        for world in (d, twin):
            world.clock.advance(25 * 3600)
        restarted_dcm(d, rec.db).run_once()
        twin.dcm.run_once()
        assert installed_files(d) == installed_files(twin)
