"""New-user registration, end to end (paper §5.10).

A student walks up to a workstation at the start of term, registers
with userreg, and — after the DCM's propagation intervals pass — can
resolve themselves in Hesiod, receive mail on the hub, and find their
NFS home locker created on the right file server.

Run with:  python examples/new_user_registration.py
"""

from repro.core import AthenaDeployment, DeploymentConfig
from repro.reg import RegistrationServer, UserReg
from repro.workload import PopulationSpec


def main() -> None:
    deployment = AthenaDeployment(DeploymentConfig(
        population=PopulationSpec(users=100, unregistered_users=30,
                                  nfs_servers=4)))
    reg_server = RegistrationServer(deployment.db, deployment.clock,
                                    deployment.kdc,
                                    journal=deployment.journal)
    userreg = UserReg(reg_server, deployment.kdc)

    first, last, mit_id = deployment.handles.unregistered_ids[0]
    print(f"Student {first} {last} (MIT ID {mit_id}) sits down at a "
          f"workstation and logs in as 'register'...")

    outcome = userreg.register(first, last, mit_id,
                               desired_login="jrandom",
                               password="six!seven")
    for step in outcome.steps:
        print(f"  userreg: {step}")
    assert outcome.success

    client = deployment.direct_client()
    row = client.query("get_user_by_login", "jrandom")[0]
    print(f"\nAccount created: login={row[0]} uid={row[1]} "
          f"status={row[6]} (2 = half-registered)")
    pobox = client.query("get_pobox", "jrandom")[0]
    print(f"Post office box:  {pobox[1]} on {pobox[2]}")
    fs = client.query("get_filesys_by_label", "jrandom")[0]
    print(f"Home filesystem:  {fs[3]} on {fs[2]} (mount {fs[4]})")

    # accounts staff activate the account (status 2 -> 1)
    client.query("update_user_status", "jrandom", 1)

    print("\nThe paper: 'the user will not benefit from this allocation "
          "for a maximum of six hours'...")
    try:
        deployment.hesiod.getpwnam("jrandom")
        print("  (unexpectedly resolvable already!)")
    except Exception:
        print("  hesiod does not know jrandom yet.")

    print("  advancing 13 simulated hours (hesiod 6h, NFS 12h)...")
    deployment.run_hours(13)

    pw = deployment.hesiod.getpwnam("jrandom")
    print(f"\n  hesiod resolves jrandom -> uid {pw['uid']}, "
          f"home {pw['home']}")
    box = deployment.hesiod.get_pobox("jrandom")
    print(f"  pobox.db says mail goes to {box['machine']}")

    nfs_server = deployment.nfs_servers[fs[2]]
    print(f"  NFS server {fs[2]}: locker exists = "
          f"{nfs_server.locker_exists(fs[3])}, "
          f"quota = {nfs_server.quota_for(int(pw['uid']))} units")

    # the student can now authenticate with the password they chose
    cache = deployment.kdc.kinit("jrandom", "six!seven")
    print(f"\n  kerberos kinit as jrandom -> principal "
          f"{cache.principal!r}: success")

    print("\nDone — a new student got an Athena account with no "
          "intervention from user-accounts staff.")


if __name__ == "__main__":
    main()
