"""Verifying a student writes nothing into the users row.

The registration server's ``_find_student`` parked the authenticator's
payload in the users row it had selected (``row["_auth_payload"]``),
and ``verify_user`` never took it out.  That row is the table's head
row, so the key no column declares sat in the live relation, and the
next write of the row carried it into every later snapshot.  The
payload now travels beside the row.
"""

from __future__ import annotations

from repro.core import AthenaDeployment, DeploymentConfig
from repro.reg.server import RegistrationServer, make_authenticator
from repro.workload import PopulationSpec

SPEC = PopulationSpec(users=6, unregistered_users=2, nfs_servers=1,
                      maillists=1, clusters=1, machines_per_cluster=1,
                      printers=1, network_services=1)


def test_verify_user_leaves_the_users_row_alone():
    d = AthenaDeployment(DeploymentConfig(population=SPEC))
    reg = RegistrationServer(d.db, d.clock, d.kdc, journal=d.journal)
    first, last, mit_id = d.handles.unregistered_ids[0]
    users = d.db.table("users")
    columns = set(users.columns)
    where = {"first": first, "last": last}

    reply = reg.verify_user(first, last, make_authenticator(
        mit_id, first, last, payload="walkup"))
    assert reply.status == 0

    [head] = users.select(where)
    assert set(head) == columns
    # a later write of the row publishes its state to the snapshots
    d.direct_client().query("update_user_shell", head["login"], "/bin/sh")
    with d.db.read_view() as view:
        [seen] = view.table("users").select(where)
    assert seen["shell"] == "/bin/sh"
    assert set(seen) == columns
    assert [set(row) for row in users.select(where)] == [columns]
