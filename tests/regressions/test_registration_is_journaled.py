"""A walk-up registration reaches the WAL.

The registration server built its direct client without a journal, so
``register_user`` changed the live database and nothing else: no WAL
entry, so a restart from checkpoint + WAL lost the registration, and
neither the CDC extractor nor a replica ever saw it.  The server now
takes the deployment's journal.
"""

from __future__ import annotations

from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.recovery import checkpoint, recover
from repro.reg.server import RegistrationServer
from repro.reg.userreg import UserReg
from repro.workload import PopulationSpec

SPEC = PopulationSpec(users=6, unregistered_users=2, nfs_servers=1,
                      maillists=1, clusters=1, machines_per_cluster=1,
                      printers=1, network_services=1)


def test_a_registration_survives_a_restart(tmp_path):
    wal, snap = tmp_path / "wal", tmp_path / "snap"
    d = AthenaDeployment(DeploymentConfig(population=SPEC, wal_path=wal))
    watermark = checkpoint(d.db, d.journal, snap)
    reg = RegistrationServer(d.db, d.clock, d.kdc, journal=d.journal)
    first, last, mit_id = d.handles.unregistered_ids[0]
    UserReg(reg, d.kdc).register(first, last, mit_id,
                                 desired_login="walkup",
                                 password="walk!up")
    d.journal.close()

    recovered = recover(snap, wal_path=wal)
    rows = recovered.db.table("users").select({"login": "walkup"})
    assert [(row["first"], row["last"]) for row in rows] == [(first, last)]
    entries = [entry for entry in recovered.journal.after_seq(watermark)
               if entry.query == "register_user"]
    assert [entry.args[1] for entry in entries] == ["walkup"]
    assert entries[0].client == "registration"
