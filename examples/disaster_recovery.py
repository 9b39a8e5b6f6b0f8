"""Failure handling: crashes, partitions, backups, and the journal.

Demonstrates the robustness story of §5.2.2 and §5.9:

1. a managed host crashes mid-update and converges after reboot;
2. a network partition causes soft failures that retry to success;
3. a hard install failure raises a zephyrgram to MOIRA/DCM and stops
   a replicated service until an operator resets it;
4. the nightly mrbackup + journal replay recovers the database.

Run with:  python examples/disaster_recovery.py
"""

import tempfile
from pathlib import Path

from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.backup import mrbackup, mrrestore, rotate
from repro.db.recovery import replay_wal
from repro.db.schema import build_database
from repro.workload import PopulationSpec


def main() -> None:
    deployment = AthenaDeployment(DeploymentConfig(
        population=PopulationSpec(users=80, nfs_servers=3)))

    # -- 1. crash during an update ------------------------------------------
    print("== 1. Hesiod host crashes mid-cycle ==")
    hesiod_host = deployment.hosts[deployment.handles.hesiod_machine]
    hesiod_host.crash()
    deployment.run_hours(7)
    host_row = deployment.db.table("serverhosts").select(
        {"service": "HESIOD"})[0]
    print(f"  update failed softly (success={host_row['success']}, "
          f"hosterror={host_row['hosterror']})")
    hesiod_host.reboot()
    deployment.run_hours(1)   # next 15-minute cron retries
    host_row = deployment.db.table("serverhosts").select(
        {"service": "HESIOD"})[0]
    print(f"  after reboot + retry: success={host_row['success']}")
    print(f"  hesiod serves data again: "
          f"{deployment.hesiod.getpwnam(deployment.handles.logins[0])['login']}")

    # -- 2. network partition -----------------------------------------------
    print("\n== 2. Mail hub partitioned from the network ==")
    deployment.network.partition(deployment.handles.mailhub_machine)
    deployment.run_hours(25)
    mail_row = deployment.db.table("serverhosts").select(
        {"service": "MAIL"})[0]
    print(f"  soft failure recorded: {mail_row['hosterrmsg']!r}")
    deployment.network.heal(deployment.handles.mailhub_machine)
    deployment.run_hours(1)
    mail_row = deployment.db.table("serverhosts").select(
        {"service": "MAIL"})[0]
    print(f"  after partition heals: success={mail_row['success']}")

    # -- 3. hard failure on a replicated service ------------------------------
    print("\n== 3. Install script fails hard on a Zephyr server ==")
    victim = deployment.handles.zephyr_machines[0]
    real = deployment.zephyr_servers[victim].install_acls
    deployment.daemons[victim].register_command("install_zephyr_acls",
                                                lambda: 1)
    client = deployment.direct_client()
    # a zephyr-relevant change so the next cycle regenerates ACLs
    client.query("add_zephyr_class", "new-class", "USER",
                 deployment.handles.logins[0], "NONE", "NONE", "NONE",
                 "NONE", "NONE", "NONE")
    deployment.run_hours(25)
    svc = deployment.db.table("servers").select({"name": "ZEPHYR"})[0]
    print(f"  service poisoned: harderror={svc['harderror']} "
          f"({svc['errmsg']!r})")
    print(f"  operators were notified: {deployment.notifications[-1]}")
    # the operator fixes the host and resets the errors
    deployment.daemons[victim].register_command("install_zephyr_acls",
                                                real)
    client.query("reset_server_error", "ZEPHYR")
    client.query("reset_server_host_error", "ZEPHYR", victim)
    deployment.run_hours(25)
    svc = deployment.db.table("servers").select({"name": "ZEPHYR"})[0]
    print(f"  after reset_server_error: harderror={svc['harderror']}, "
          "all hosts updated")

    # -- 4. database disaster recovery ----------------------------------------
    print("\n== 4. Nightly backup + journal replay ==")
    with tempfile.TemporaryDirectory() as tmp:
        backup_dir = rotate(Path(tmp))
        sizes = mrbackup(deployment.db, backup_dir)
        backup_seq = deployment.journal.current_seq()
        print(f"  mrbackup wrote {len(sizes)} relations, "
              f"{sum(sizes.values())} bytes")

        deployment.clock.advance(3600)
        client.query("add_machine", "TODAY1.MIT.EDU", "VAX")
        client.query("add_machine", "TODAY2.MIT.EDU", "RT")
        print("  two machines added after the backup "
              "(live only in the journal)")

        print("  ...the Ingres database is corrupted beyond repair...")
        restored = build_database()
        mrrestore(restored, backup_dir)
        print(f"  mrrestore loaded "
              f"{len(restored.table('machine'))} machines "
              "(missing today's)")

        count = replay_wal(restored, deployment.journal,
                           after_seq=backup_seq).replayed
        print(f"  journal replayed {count} change(s); machine count "
              f"now {len(restored.table('machine'))}")
        assert restored.table("machine").select(
            {"name": "TODAY1.MIT.EDU"})

    print("\nDone — no transaction lost.")


if __name__ == "__main__":
    main()
