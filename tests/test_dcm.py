"""Tests for the Data Control Manager (§5.7) against a small deployment."""

from __future__ import annotations

import io
import tarfile

import pytest

from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.locks import LockMode
from repro.dcm.dcm import DCM
from repro.dcm.generators.base import get_generator
from repro.workload import PopulationSpec


@pytest.fixture
def deployment():
    return AthenaDeployment(DeploymentConfig(population=PopulationSpec(
        users=40, unregistered_users=5, nfs_servers=3, maillists=8,
        clusters=3, machines_per_cluster=2, printers=5,
        network_services=12)))


def service_row(d, name):
    return d.db.table("servers").select({"name": name})[0]


def host_rows(d, name):
    return d.db.table("serverhosts").select({"service": name})


class TestBasicCycle:
    def test_nothing_happens_before_interval(self, deployment):
        d = deployment
        report = d.dcm.run_once()
        assert report.ran
        # dfcheck starts at deployment time; nothing is due yet
        assert report.generations == 0
        assert report.propagations_attempted == 0

    def test_full_propagation_after_interval(self, deployment):
        d = deployment
        d.run_hours(7)  # past the 6h hesiod interval
        row = service_row(d, "HESIOD")
        assert row["dfgen"] > 0
        for host in host_rows(d, "HESIOD"):
            assert host["success"] == 1
            assert host["lts"] >= row["dfgen"]

    def test_hesiod_serves_propagated_data(self, deployment):
        d = deployment
        d.run_hours(7)
        login = d.handles.logins[0]
        assert d.hesiod.resolve(login, "passwd")

    def test_intervals_respected(self, deployment):
        d = deployment
        d.run_hours(7)
        # only hesiod (6h) has fired; nfs is 12h, mail/zephyr 24h
        assert service_row(d, "HESIOD")["dfgen"] > 0
        assert service_row(d, "NFS")["dfgen"] == 0
        assert service_row(d, "MAIL")["dfgen"] == 0
        d.run_hours(6)
        assert service_row(d, "NFS")["dfgen"] > 0
        assert service_row(d, "MAIL")["dfgen"] == 0
        d.run_hours(12)
        assert service_row(d, "MAIL")["dfgen"] > 0
        assert service_row(d, "ZEPHYR")["dfgen"] > 0

    def test_no_change_skips_generation(self, deployment):
        """§5.1 E: files only regenerated if data changed."""
        d = deployment
        d.run_hours(7)
        first_dfgen = service_row(d, "HESIOD")["dfgen"]
        d.run_hours(7)  # another interval with NO database changes
        row = service_row(d, "HESIOD")
        assert row["dfgen"] == first_dfgen       # not regenerated
        assert row["dfcheck"] > first_dfgen      # but checked

    def test_change_triggers_regeneration(self, deployment):
        d = deployment
        d.run_hours(7)
        first_dfgen = service_row(d, "HESIOD")["dfgen"]
        d.direct_client().query("update_user_shell", d.handles.logins[0],
                                "/bin/changed")
        d.run_hours(7)
        assert service_row(d, "HESIOD")["dfgen"] > first_dfgen

    def test_change_no_file_shows_moves_nothing(self, deployment):
        """A new machine is named by no file: the due cycle regenerates
        the services reading ``machine`` and finds the bytes unchanged,
        so neither ``dfgen`` nor any host moves and nothing is pushed."""
        d = deployment
        d.run_hours(25)
        before = {name: (service_row(d, name)["dfgen"],
                         [h["lts"] for h in host_rows(d, name)])
                  for name in ("HESIOD", "NFS", "MAIL", "ZEPHYR")}
        d.direct_client().query("add_machine", "NEWBOX.MIT.EDU", "VAX")
        d.clock.advance(25 * 3600)
        report = d.dcm.run_once()
        assert set(report.generated_services) == {"HESIOD", "MAIL", "NFS"}
        assert report.propagations_attempted == 0
        assert {name: (service_row(d, name)["dfgen"],
                       [h["lts"] for h in host_rows(d, name)])
                for name in before} == before

    def test_shell_change_sends_hesiod_only_passwd(self, deployment):
        d = deployment
        d.run_hours(7)
        hesiod = d.hosts[d.handles.hesiod_machine.upper()]
        daemon = d.daemons[hesiod.name]
        staged = []
        receive = daemon.receive_file

        def spy(target, data, digest):
            staged.append(data)
            return receive(target, data, digest)

        daemon.receive_file = spy
        d.direct_client().query("update_user_shell", d.handles.logins[0],
                                "/bin/delta")
        d.clock.advance(7 * 3600)
        report = d.dcm.run_once()
        assert "HESIOD" in report.generated_services
        assert len(staged) == 1
        with tarfile.open(fileobj=io.BytesIO(staged[0])) as tar:
            assert tar.getnames() == ["/etc/hesiod/passwd.db"]
        assert b"/bin/delta" in hesiod.fs.read("/etc/hesiod/passwd.db")

    def test_unrelated_change_does_not_regenerate_zephyr(self,
                                                         deployment):
        d = deployment
        d.run_hours(25)
        z_dfgen = service_row(d, "ZEPHYR")["dfgen"]
        # printcap changes don't affect the zephyr extract
        d.direct_client().query("add_machine", "P.MIT.EDU", "VAX")
        d.direct_client().query("add_printcap", "newpr", "P.MIT.EDU",
                                "/sp", "newpr", "")
        d.run_hours(25)
        assert service_row(d, "ZEPHYR")["dfgen"] == z_dfgen
        # but hesiod (which includes printcap.db) did regenerate
        assert service_row(d, "HESIOD")["dfgen"] > z_dfgen


class TestDisabling:
    def test_nodcm_file(self, deployment):
        d = deployment
        d.moira_host.fs.write("/etc/nodcm", b"")
        d.moira_host.fs.fsync()
        report = d.dcm.run_once()
        assert not report.ran
        assert "nodcm" in report.disabled_reason

    def test_dcm_enable_value(self, deployment):
        d = deployment
        d.db.set_value("dcm_enable", 0)
        report = d.dcm.run_once()
        assert not report.ran
        assert report.log  # "logging this action"

    def test_disabled_service_skipped(self, deployment):
        d = deployment
        client = d.direct_client()
        r = client.query("get_server_info", "HESIOD")[0]
        client.query("update_server_info", "HESIOD", r[1], r[2], r[3],
                     r[6], 0, r[11], r[12])
        d.run_hours(7)
        assert service_row(d, "HESIOD")["dfgen"] == 0

    def test_disabled_host_skipped(self, deployment):
        d = deployment
        client = d.direct_client()
        machine = d.handles.nfs_machines[0]
        client.query("update_server_host_info", "NFS", machine, 0, 0, 0,
                     "")
        d.run_hours(13)
        for host in host_rows(d, "NFS"):
            mach = d.db.table("machine").select(
                {"mach_id": host["mach_id"]})[0]
            if mach["name"] == machine:
                assert host["lts"] == 0
            else:
                assert host["lts"] > 0


class TestFailureHandling:
    def test_unreachable_host_is_soft_failure(self, deployment):
        d = deployment
        d.network.partition(d.handles.hesiod_machine)
        d.run_hours(7)
        host = host_rows(d, "HESIOD")[0]
        assert host["success"] == 0
        assert host["hosterror"] == 0          # soft, not hard
        assert host["ltt"] > 0
        assert host["lts"] == 0

    def test_soft_failure_retried_until_success(self, deployment):
        """§5.9 B: "tagged for retry at a later time ... repeated until
        an attempt to update the server succeeds"."""
        d = deployment
        d.network.partition(d.handles.hesiod_machine)
        d.run_hours(7)
        assert host_rows(d, "HESIOD")[0]["lts"] == 0
        d.network.heal(d.handles.hesiod_machine)
        d.run_hours(1)   # next 15-min cron fires; no new generation needed
        host = host_rows(d, "HESIOD")[0]
        assert host["success"] == 1
        assert host["lts"] > 0

    def test_crashed_host_updates_after_reboot(self, deployment):
        d = deployment
        hesiod_host = d.hosts[d.handles.hesiod_machine]
        hesiod_host.crash()
        d.run_hours(7)
        assert host_rows(d, "HESIOD")[0]["success"] == 0
        hesiod_host.reboot()
        d.run_hours(1)
        assert host_rows(d, "HESIOD")[0]["success"] == 1
        # and the rebooted server answers from the new files
        assert d.hesiod.resolve(d.handles.logins[0], "passwd")

    def test_script_failure_is_hard_and_notifies(self, deployment):
        d = deployment
        daemon = d.daemons[d.handles.mailhub_machine]
        daemon.register_command("install_aliases", lambda: 1)
        d.run_hours(25)
        host = host_rows(d, "MAIL")[0]
        assert host["hosterror"] != 0
        assert host["hosterrmsg"]
        # zephyrgram to class MOIRA instance DCM, plus mail
        assert any(n[0] == "MOIRA" and n[1] == "DCM"
                   for n in d.notifications)
        assert d.mail_sent

    def test_hard_host_error_blocks_future_updates(self, deployment):
        d = deployment
        daemon = d.daemons[d.handles.mailhub_machine]
        daemon.register_command("install_aliases", lambda: 1)
        d.run_hours(25)
        tried = host_rows(d, "MAIL")[0]["ltt"]
        d.run_hours(25)
        assert host_rows(d, "MAIL")[0]["ltt"] == tried  # not retried

    def test_replicated_hard_failure_poisons_service(self, deployment):
        """§5.7.1: replicated services stop updating all hosts after a
        hard failure on any host."""
        d = deployment
        first_zephyr = d.handles.zephyr_machines[0]
        d.daemons[first_zephyr].register_command(
            "install_zephyr_acls", lambda: 1)
        d.run_hours(25)
        assert service_row(d, "ZEPHYR")["harderror"] != 0
        # remaining zephyr hosts were not updated after the failure
        updated = [h for h in host_rows(d, "ZEPHYR") if h["lts"] > 0]
        failed = [h for h in host_rows(d, "ZEPHYR")
                  if h["hosterror"] != 0]
        assert len(failed) == 1
        assert len(updated) < len(host_rows(d, "ZEPHYR"))

    def test_generator_failure_while_regenerating_in_place(
            self, deployment, monkeypatch):
        """A restarted DCM (no files in memory, dfgen already set)
        rebuilds the files an overridden host is owed.  A generator
        that raises there is a hard error like any other — flagged,
        reported, zephyred once — and the cycle goes on."""
        d = deployment
        d.run_hours(25)
        dcm = TestRestartedProcess.restart(d)
        client = d.direct_client()
        client.query("set_server_host_override", "MAIL",
                     d.handles.mailhub_machine)
        client.query("set_server_host_override", "ZEPHYR",
                     d.handles.zephyr_machines[0])
        d.clock.advance(60)

        def disk_full(ctx):
            raise RuntimeError("disk full")

        monkeypatch.setattr(get_generator("MAIL"), "generate", disk_full)
        report = dcm.run_once()
        assert [name for name, _ in report.generation_errors] == ["MAIL"]
        assert "disk full" in report.generation_errors[0][1]
        assert [what for what, _ in report.hard_failure_origins] == \
            ["MAIL"]
        row = service_row(d, "MAIL")
        assert row["harderror"] == 1 and "disk full" in row["errmsg"]
        grams = [n for n in d.notifications
                 if n[0] == "MOIRA" and n[1] == "DCM"]
        assert len(grams) == 1 and grams[0][2].startswith("MAIL:")
        # ZEPHYR is scanned after MAIL: the cycle reached it
        assert "ZEPHYR" in dcm._generated
        assert "MAIL" not in dcm._generated

    def test_regenerating_in_place_does_not_swallow_an_update(
            self, deployment):
        """A DCM that lost its files but kept its vector rebuilds
        nothing while no host is owed anything; a change made since
        ``dfgen`` is still seen by the next due check and reaches the
        hosts."""
        d = deployment
        d.run_hours(7)              # HESIOD generated and pushed
        d.clock.advance(60)
        d.direct_client().query("update_user_shell", d.handles.logins[0],
                                "/bin/inplace")
        d.dcm._generated.clear()    # files gone, same database
        d.dcm.run_once()            # HESIOD not due, its host converged
        d.run_hours(30)
        hesiod = d.hosts[d.handles.hesiod_machine.upper()]
        assert b"/bin/inplace" in hesiod.fs.read("/etc/hesiod/passwd.db")

    def test_reset_error_reenables_service(self, deployment):
        d = deployment
        first_zephyr = d.handles.zephyr_machines[0]
        server = d.zephyr_servers[first_zephyr]
        d.daemons[first_zephyr].register_command(
            "install_zephyr_acls", lambda: 1)
        d.run_hours(25)
        # operator fixes the host and clears the errors
        d.daemons[first_zephyr].register_command(
            "install_zephyr_acls", server.install_acls)
        client = d.direct_client()
        client.query("reset_server_error", "ZEPHYR")
        client.query("reset_server_host_error", "ZEPHYR", first_zephyr)
        d.run_hours(25)
        assert service_row(d, "ZEPHYR")["harderror"] == 0
        assert all(h["success"] == 1 for h in host_rows(d, "ZEPHYR"))


class TestRestartedProcess:
    """A new DCM process knows nothing it generated before — no files,
    no input vectors — only what the database says about the hosts."""

    @staticmethod
    def restart(d):
        old = d.dcm
        d.dcm = DCM(d.db, d.clock, network=d.network,
                    moira_host=d.moira_host, journal=d.journal,
                    zephyr_notify=old.zephyr_notify,
                    mail_notify=old.mail_notify)
        for (service, machine), binding in old._bindings.items():
            d.dcm.bind_host(service, machine, binding)
        return d.dcm

    def test_nothing_is_rebuilt_for_converged_hosts(self, deployment):
        d = deployment
        d.run_hours(25)
        dcm = self.restart(d)
        report = dcm.run_once()
        assert dcm.total_generations == 0
        assert report.propagations_attempted == 0
        d.direct_client().query("set_server_host_override", "HESIOD",
                                d.handles.hesiod_machine)
        d.clock.advance(60)
        report = dcm.run_once()
        assert dcm.total_generations == 1       # in place, for the host
        assert report.propagations_succeeded == 1

    @staticmethod
    def passwd_on_hesiod(d):
        hesiod = d.hosts[d.handles.hesiod_machine.upper()]
        return hesiod.fs.read("/etc/hesiod/passwd.db")

    def test_write_in_dfgen_second_is_not_a_delta_base(self, deployment):
        """``changed_since`` reads whole seconds, so to a restarted
        process a write in ``dfgen``'s own second reads as no change.
        The files it then rebuilds hold that write and no host does:
        the next change, to another file, must still carry it."""
        d = deployment
        d.clock.advance(25 * 3600)
        d.dcm.run_once()                # every dfgen is this second
        dcm = self.restart(d)
        client = d.direct_client()
        client.query("update_user_shell", d.handles.logins[0],
                     "/bin/samesecond")
        d.clock.advance(25 * 3600)
        report = dcm.run_once()
        assert "HESIOD" in report.no_change_services
        assert b"/bin/samesecond" not in self.passwd_on_hesiod(d)
        login = d.handles.logins[1]
        box = d.hesiod.get_pobox(login)["machine"]
        client.query("set_pobox", login, "POP", next(
            m for m in d.handles.pop_machines if m != box))
        d.clock.advance(25 * 3600)
        report = dcm.run_once()
        assert "HESIOD" in report.generated_services
        assert b"/bin/samesecond" in self.passwd_on_hesiod(d)

    def test_cdc_write_in_dfgen_second_reaches_hosts(self):
        """CDC was woken by the write itself: a restarted process
        holding no vector counts it as a change, whatever second it
        landed in."""
        d = AthenaDeployment(DeploymentConfig(
            population=PopulationSpec(
                users=40, unregistered_users=5, nfs_servers=3,
                maillists=8, clusters=3, machines_per_cluster=2,
                printers=5, network_services=12),
            cdc=True))
        d.clock.advance(25 * 3600)
        d.dcm.run_once()                # every dfgen is this second
        d.pump_cdc()
        d.cdc.dcm = self.restart(d)
        d.direct_client().query("update_user_shell", d.handles.logins[0],
                                "/bin/samesecond")
        hesiod = {o["service"]: o for o in d.pump_cdc()["outcomes"]}[
            "HESIOD"]
        assert (hesiod["generated"], hesiod["full_pushes"]) == (True, 1)
        assert b"/bin/samesecond" in self.passwd_on_hesiod(d)


class TestOneVectorRecorder:
    def test_cdc_deltas_after_a_cron_cycle(self):
        """Cron and CDC record vectors against the same database, so
        after a cron cycle a shell change reaches every host as a
        delta."""
        d = AthenaDeployment(DeploymentConfig(
            population=PopulationSpec(
                users=40, unregistered_users=5, nfs_servers=3,
                maillists=8, clusters=3, machines_per_cluster=2,
                printers=5, network_services=12),
            cdc=True))
        d.clock.advance(25 * 3600)
        assert d.dcm.run_once().generations == 4
        d.direct_client().query("update_user_shell", d.handles.logins[0],
                                "/bin/onevector")
        outcomes = d.pump_cdc()["outcomes"]
        assert sum(o["delta_pushes"] for o in outcomes) >= 1
        assert sum(o["full_pushes"] for o in outcomes) == 0
        hesiod = d.hosts[d.handles.hesiod_machine.upper()]
        assert b"/bin/onevector" in hesiod.fs.read("/etc/hesiod/passwd.db")


class TestOverride:
    def test_override_forces_immediate_update(self, deployment):
        d = deployment
        d.run_hours(7)
        lts_before = host_rows(d, "HESIOD")[0]["lts"]
        client = d.direct_client()
        client.query("set_server_host_override", "HESIOD",
                     d.handles.hesiod_machine)
        d.clock.advance(60)
        d.dcm.run_once()
        host = host_rows(d, "HESIOD")[0]
        assert host["lts"] > lts_before
        assert host["override"] == 0  # cleared after the forced update


class TestLocking:
    def test_locked_service_skipped(self, deployment):
        d = deployment
        token = d.dcm.locks.acquire("service:HESIOD", LockMode.EXCLUSIVE)
        report = d.dcm.run_once()
        assert report.skipped_locked >= 1
        assert service_row(d, "HESIOD")["dfgen"] == 0
        d.dcm.locks.release("service:HESIOD", token)
        d.clock.advance(3600 * 7)
        d.dcm.run_once()
        assert service_row(d, "HESIOD")["dfgen"] > 0


class TestNfsSpecifics:
    def test_per_host_files_differ(self, deployment):
        d = deployment
        d.run_hours(13)
        quotas = set()
        for name in d.handles.nfs_machines:
            host = d.hosts[name]
            quotas.add(host.fs.read("/etc/nfs/quotas"))
        assert len(quotas) > 1  # hosts got different quota files

    def test_credentials_identical_across_hosts(self, deployment):
        d = deployment
        d.run_hours(13)
        creds = {d.hosts[n].fs.read("/etc/nfs/credentials")
                 for n in d.handles.nfs_machines}
        assert len(creds) == 1

    def test_value3_restricts_credentials(self, deployment):
        d = deployment
        client = d.direct_client()
        restricted = d.handles.nfs_machines[0]
        some_list = d.handles.maillist_names[0]
        client.query("update_server_host_info", "NFS", restricted, 1, 0,
                     0, some_list)
        d.run_hours(13)
        small = d.hosts[restricted].fs.read("/etc/nfs/credentials")
        full = d.hosts[d.handles.nfs_machines[1]].fs.read(
            "/etc/nfs/credentials")
        assert len(small.splitlines()) < len(full.splitlines())

    def test_lockers_created_from_directories_file(self, deployment):
        d = deployment
        d.run_hours(13)
        created = sum(len(s.lockers_created)
                      for s in d.nfs_servers.values())
        assert created == len(d.handles.logins)


class TestTriggerDcm:
    def test_trigger_via_protocol(self, deployment):
        d = deployment
        admin = d.handles.logins[0]
        d.make_admin(admin)
        client = d.client_for(admin, "pw", "dcm_maint")
        runs = d.dcm.runs
        assert client.mr_trigger_dcm() == 0
        assert d.dcm.runs == runs + 1
        client.close()

    def test_trigger_denied_without_capability(self, deployment):
        d = deployment
        from repro.errors import MR_PERM
        user = d.handles.logins[1]
        client = d.client_for(user, "pw", "dcm_maint")
        assert client.mr_trigger_dcm() == MR_PERM
        client.close()


class TestReport:
    def test_report_counts(self, deployment):
        d = deployment
        d.clock.advance(3600 * 25)
        report = d.dcm.run_once()
        assert report.generations == 4          # all four services
        assert report.propagations_attempted == \
            1 + 3 + 1 + 3                       # hesiod+nfs+mail+zephyr
        assert report.propagations_succeeded == \
            report.propagations_attempted
        assert report.bytes_propagated > 0
        assert report.files_generated > 11
