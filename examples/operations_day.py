"""A day in the life of the Moira operations staff.

Strings together the operator tooling: morning consistency check,
watching DCM status, handling a hard failure zephyrgram, forcing an
urgent push, preregistering a late student, and the nightly backup.

Run with:  python examples/operations_day.py
"""

import tempfile
from pathlib import Path

from repro.apps import DcmMaint, MrCheck, MrTest, UserMaint
from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.backup import mrbackup, rotate
from repro.reg import RegistrationForms, RegistrationServer, UserReg
from repro.reg.server import hash_mit_id
from repro.workload import PopulationSpec


def main() -> None:
    d = AthenaDeployment(DeploymentConfig(
        population=PopulationSpec(users=120, nfs_servers=4,
                                  maillists=15)))
    operator = d.handles.logins[0]
    d.make_admin(operator)
    client = d.client_for(operator, "pw", "operations")
    dcm_maint = DcmMaint(client)

    print("== 08:00 morning checks ==")
    problems = MrCheck(d.db).run()
    print(f"  mrcheck: {len(problems)} problems")
    for status in dcm_maint.service_status("*"):
        if status.service == "POP":
            continue
        print(f"  {status.service:7s} enabled={status.enabled} "
              f"harderror={status.harderror} interval={status.interval}m")

    print("\n== 10:30 a zephyr server starts failing installs ==")
    victim = d.handles.zephyr_machines[0]
    d.daemons[victim].register_command("install_zephyr_acls", lambda: 1)
    client.query("add_zephyr_class", "ops-test", "NONE", "NONE", "NONE",
                 "NONE", "NONE", "NONE", "NONE", "NONE")
    d.run_hours(25)
    print(f"  zephyrgrams to MOIRA/DCM: {len(d.notifications)}")
    print(f"  failed hosts: {dcm_maint.failed_hosts('ZEPHYR')}")

    print("\n== 11:00 operator fixes the host and resets errors ==")
    d.daemons[victim].register_command(
        "install_zephyr_acls", d.zephyr_servers[victim].install_acls)
    dcm_maint.reset_service_error("ZEPHYR")
    dcm_maint.reset_host_error("ZEPHYR", victim)
    d.run_hours(25)
    print(f"  services with errors now: "
          f"{dcm_maint.services_with_errors()}")

    print("\n== 14:00 urgent printcap change, pushed immediately ==")
    client.query("add_printcap", "rush-lw", d.handles.hesiod_machine,
                 "/usr/spool/printer/rush-lw", "rush-lw", "new LaserWriter")
    dcm_maint.force_update("HESIOD", d.handles.hesiod_machine)
    pcap = d.hesiod.resolve("rush-lw", "pcap")
    print(f"  hesiod already serves: {pcap[0][:60]}...")

    print("\n== 15:30 a late student shows up at the accounts office ==")
    um = UserMaint(client)
    um.preregister("Justin", "Time", hash_mit_id("955555555", "Justin",
                                                 "Time"), "1992")
    reg = RegistrationServer(d.db, d.clock, d.kdc, journal=d.journal)
    forms = RegistrationForms(UserReg(reg, d.kdc))
    result = forms.session(["Justin", "X", "Time", "955555555",
                            "jtime", "hunter2", "hunter2"])
    print(f"  registered via the walk-up form: {result.login!r}")

    print("\n== 23:00 nightly backup (nightly.sh) ==")
    with tempfile.TemporaryDirectory() as tmp:
        target = rotate(Path(tmp))
        sizes = mrbackup(d.db, target)
        print(f"  dumped {len(sizes)} relations, "
              f"{sum(sizes.values())} bytes into {target.name}")

    print("\n== 23:30 quick mrtest sanity pass ==")
    mrtest = MrTest(client)
    print("  " + mrtest.run("get_value", "dcm_enable").render()
          .replace("\n", "\n  "))

    problems = MrCheck(d.db).run()
    print(f"\nEnd of day: mrcheck reports {len(problems)} problems; "
          f"{d.dcm.total_propagations} propagations performed.")
    client.close()


if __name__ == "__main__":
    main()
