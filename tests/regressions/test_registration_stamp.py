"""Registering a user does not stamp the POP servers' host policy.

``register_user`` assigns the new user a POP box and counts it on the
chosen server's ``serverhosts.value1`` ("the number of poboxes assigned
to this server").  ``set_pobox`` and ``delete_pobox`` move the same
counter as bookkeeping (``touch_stats=False``): no generator reads it,
so it is not a data change.  Registration must count it the same way.
Counted as a user write, every registration stamped ``serverhosts`` and
the CDC extractor dirtied every service that reads host policy.
"""

from __future__ import annotations

from repro.core import AthenaDeployment, DeploymentConfig
from repro.workload import PopulationSpec

SPEC = PopulationSpec(users=8, unregistered_users=2, nfs_servers=1,
                      maillists=1, clusters=1, machines_per_cluster=1,
                      printers=1, network_services=1)


def _pop_load(db) -> int:
    return sum(h["value1"]
               for h in db.table("serverhosts").select({"service": "POP"}))


def test_register_user_stamps_no_serverhosts():
    d = AthenaDeployment(DeploymentConfig(population=SPEC))
    unregistered = d.db.table("users").select({"status": 0})[0]
    load = _pop_load(d.db)
    d.direct_client().query("register_user", str(unregistered["uid"]),
                            "stampreg", "1")
    entry = d.journal.entries[-1]
    assert entry.query == "register_user"
    assert "users" in dict(entry.changed)
    assert "serverhosts" not in dict(entry.changed)
    # the new box is still counted on its server
    assert _pop_load(d.db) == load + 1
