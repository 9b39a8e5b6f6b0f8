"""E6 — the update protocol's crash/retry matrix (§5.9).

The paper's goals: "Completely automatic update for normal cases and
expected kinds of failures.  Survives clean server crashes.  Survives
clean Moira crashes."  We drive every failure scenario the paper
enumerates and verify convergence, then benchmark a healthy update and
a full crash-recovery round trip.

The ablation removes the atomic-rename install (writing the target in
two pieces with a crash in between) to demonstrate the torn files the
§5.9 design rules out.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record
from repro.core import AthenaDeployment, DeploymentConfig
from repro.workload import PopulationSpec

SPEC = PopulationSpec(users=200, unregistered_users=0, nfs_servers=3,
                      maillists=10, clusters=2, machines_per_cluster=2,
                      printers=4, network_services=10)


def fresh():
    return AthenaDeployment(DeploymentConfig(population=SPEC))


def hesiod_host_row(d):
    return d.db.table("serverhosts").select({"service": "HESIOD"})[0]


class TestRobustnessMatrix:
    def test_scenario_matrix_and_emit(self, benchmark):
        outcomes = []

        # 1. host down during the whole cycle -> retried to success
        d = fresh()
        d.hosts[d.handles.hesiod_machine].crash()
        d.run_hours(7)
        down_ok = hesiod_host_row(d)["success"] == 0
        d.hosts[d.handles.hesiod_machine].reboot()
        d.run_hours(1)
        recovered = hesiod_host_row(d)["success"] == 1
        outcomes.append(("host crashed, rebooted", down_ok and recovered))

        # 2. crash mid-install (between transfer and install fsync)
        d = fresh()
        host = d.hosts[d.handles.hesiod_machine]
        host.crash_after_syncs(1)   # dies at end of transfer phase
        d.run_hours(7)
        soft = hesiod_host_row(d)["hosterror"] == 0
        host.reboot()
        d.run_hours(1)
        converged = hesiod_host_row(d)["success"] == 1 and \
            d.hesiod.getpwnam(d.handles.logins[0])
        outcomes.append(("crash mid-transfer, soft + converged",
                         soft and bool(converged)))

        # 3. network corruption -> checksum catches it, retry succeeds
        d = fresh()
        d.network.set_corrupt_rate(d.handles.hesiod_machine, 1.0)
        d.run_hours(7)
        caught = hesiod_host_row(d)["success"] == 0 and \
            hesiod_host_row(d)["hosterror"] == 0
        d.network.set_corrupt_rate(d.handles.hesiod_machine, 0.0)
        d.run_hours(1)
        healed = hesiod_host_row(d)["success"] == 1
        outcomes.append(("payload damaged in transit", caught and healed))

        # 4. Moira (DCM) crashes between generation and propagation
        d = fresh()
        d.clock.advance(7 * 3600)
        report = d.dcm.run_once()
        assert report.generations >= 1
        # simulate a Moira crash: a brand-new DCM with no in-memory files
        from repro.dcm.dcm import DCM
        d.dcm = DCM(d.db, d.clock, network=d.network,
                    moira_host=d.moira_host, journal=d.journal)
        d._bind_dcm()   # re-wire host bindings, as a restart would
        d.server.dcm_trigger = d.dcm.run_once
        # hosts already updated? if the first run completed them, force
        # a new generation with a change, then let the new DCM push it
        d.direct_client().query("add_machine", "POSTCRASH.MIT.EDU",
                                "VAX")
        d.clock.advance(7 * 3600)
        d.dcm.run_once()
        resumed = hesiod_host_row(d)["success"] == 1
        outcomes.append(("Moira crashed between cycles", resumed))

        # 5. repeated (duplicate) installation is harmless
        d = fresh()
        d.run_hours(7)
        before = d.hesiod.getpwnam(d.handles.logins[0])
        d.direct_client().query("set_server_host_override", "HESIOD",
                                d.handles.hesiod_machine)
        d.clock.advance(60)
        d.dcm.run_once()
        after = d.hesiod.getpwnam(d.handles.logins[0])
        outcomes.append(("duplicate installation", before == after))

        lines = ["E6: update-protocol robustness matrix"]
        for name, ok in outcomes:
            lines.append(f"  {'PASS' if ok else 'FAIL':4s}  {name}")
        record("e6_update_robustness", dict(outcomes), lines)
        assert all(ok for _, ok in outcomes)

        benchmark(lambda: None)

    def test_ablation_nonatomic_install_tears_files(self, benchmark):
        """Without atomic rename, a crash mid-write leaves a torn file;
        with it, the §5.9 invariant holds."""
        from repro.hosts.host import SimulatedHost

        payload = b"NEW" * 1000

        # non-atomic: write the target directly in two halves, crash
        # after the first half has been synced
        host = SimulatedHost("victim")
        host.fs.write("/etc/passwd.db", b"OLD" * 1000)
        host.fs.fsync()
        half = len(payload) // 2
        host.fs.write("/etc/passwd.db", payload[:half])
        host.fs.fsync()
        host.crash()   # before the second half lands
        torn = host.fs.read("/etc/passwd.db")
        torn_file = torn not in (b"OLD" * 1000, payload)

        # atomic: stage + rename; crash at any point leaves old or new
        host2 = SimulatedHost("survivor")
        host2.fs.write("/etc/passwd.db", b"OLD" * 1000)
        host2.fs.fsync()
        host2.fs.write("/etc/passwd.db.moira_update", payload)
        host2.fs.fsync()
        host2.fs.rename("/etc/passwd.db.moira_update", "/etc/passwd.db")
        host2.crash()
        survived = host2.fs.read("/etc/passwd.db")
        intact = survived in (b"OLD" * 1000, payload)

        record("e6_atomicity_ablation", {
            "in_place_write_torn": torn_file,
            "atomic_rename_torn": not intact,
        }, [
            "E6 ablation: crash during install",
            f"  in-place write:  torn file = {torn_file}",
            f"  atomic rename:   torn file = {not intact}",
        ])
        assert torn_file
        assert intact

        benchmark(lambda: None)

    def test_benchmark_healthy_update(self, benchmark):
        d = fresh()
        d.run_hours(7)
        direct = d.direct_client()

        def one_push():
            direct.query("set_server_host_override", "HESIOD",
                         d.handles.hesiod_machine)
            d.clock.advance(60)
            return d.dcm.run_once()

        report = benchmark.pedantic(one_push, rounds=5, iterations=1)
        assert report.propagations_succeeded == 1

    def test_benchmark_crash_recovery_roundtrip(self, benchmark):
        def crash_cycle():
            d = fresh()
            d.hosts[d.handles.hesiod_machine].crash()
            d.run_hours(7)
            d.hosts[d.handles.hesiod_machine].reboot()
            d.run_hours(1)
            assert hesiod_host_row(d)["success"] == 1
            return d

        benchmark.pedantic(crash_cycle, rounds=3, iterations=1)
