"""Integration tests for the assembled deployment and the workload
generator — the whole paper's system running together."""

from __future__ import annotations

import pytest

from repro.apps import MrCheck
from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.backup import mrbackup, mrrestore
from repro.db.recovery import replay_wal
from repro.db.schema import build_database
from repro.workload import PopulationSpec, load_population, random_names


@pytest.fixture(scope="module")
def world():
    return AthenaDeployment(DeploymentConfig(population=PopulationSpec(
        users=60, unregistered_users=6, nfs_servers=4, maillists=12,
        clusters=3, machines_per_cluster=3, printers=6,
        network_services=15)))


class TestPopulation:
    def test_deterministic_under_seed(self):
        db1, db2 = build_database(), build_database()
        spec = PopulationSpec(users=25, unregistered_users=2,
                              nfs_servers=2, maillists=5, clusters=2,
                              machines_per_cluster=2, printers=3,
                              network_services=5, seed=7)
        h1 = load_population(db1, spec)
        h2 = load_population(db2, spec)
        assert h1.logins == h2.logins
        assert list(db1.table("users").rows) == list(db2.table("users").rows)
        assert list(db1.table("members").rows) == list(db2.table("members").rows)

    def test_logins_unique(self):
        import random
        names = random_names(random.Random(3), 500)
        logins = [l for _, _, l in names]
        assert len(set(logins)) == 500

    def test_population_is_consistent(self, world):
        assert MrCheck(world.db).run() == []

    def test_every_user_has_group_locker_quota(self, world):
        d = world
        for login in d.handles.logins[:10]:
            client = d.direct_client()
            assert client.query("get_list_info", login)
            fs = client.query("get_filesys_by_label", login)[0]
            assert fs[10] == "HOMEDIR"
            assert client.query("get_nfs_quota", login, login)

    def test_class_mix(self, world):
        rows = world.direct_client().query("get_user_by_class", "*")
        years = {r[8] for r in rows}
        assert "G" in years          # grads present
        assert any(y.startswith("19") for y in years)  # undergrads


class TestSteadyState:
    def test_week_of_operation(self, world):
        """A simulated week: all services propagate, stay healthy, and
        the database stays consistent."""
        d = world
        d.run_hours(24 * 7)
        for name in ("HESIOD", "NFS", "MAIL", "ZEPHYR"):
            row = d.db.table("servers").select({"name": name})[0]
            assert row["harderror"] == 0, row["errmsg"]
            assert row["dfgen"] > 0
        hosts = d.db.table("serverhosts").rows
        for host in hosts:
            if host["service"] in ("HESIOD", "NFS", "MAIL", "ZEPHYR"):
                assert host["success"] == 1
        assert MrCheck(d.db).run() == []

    def test_quiet_week_generates_once(self):
        """With no database changes, each service generates exactly once
        (the first interval) and then reports no-change forever."""
        d = AthenaDeployment(DeploymentConfig(population=PopulationSpec(
            users=10, unregistered_users=0, nfs_servers=2, maillists=2,
            clusters=1, machines_per_cluster=1, printers=1,
            network_services=3)))
        d.run_hours(24 * 7)
        # count generation log lines from all runs
        assert d.dcm.runs > 600   # 4/hour * 24 * 7
        hesiod = d.db.table("servers").select({"name": "HESIOD"})[0]
        first_gen = hesiod["dfgen"]
        assert first_gen > 0
        d.run_hours(24)
        assert d.db.table("servers").select(
            {"name": "HESIOD"})[0]["dfgen"] == first_gen

    def test_end_to_end_change_flow(self, world):
        """An admin change lands on the managed servers within the
        propagation interval — the system's whole reason to exist."""
        d = world
        client = d.direct_client()
        client.query("add_user", "e2euser", -1, "/bin/csh", "End",
                     "ToEnd", "", 1, "x", "STAFF")
        client.query("set_pobox", "e2euser", "POP",
                     d.handles.pop_machines[0])
        d.run_hours(7)
        pw = d.hesiod.getpwnam("e2euser")
        assert pw["shell"] == "/bin/csh"
        box = d.hesiod.get_pobox("e2euser")
        assert box["machine"] == d.handles.pop_machines[0]
        d.run_hours(24)
        assert d.mailhub.resolve("e2euser")[0].endswith(".local")


class TestBackupIntegration:
    def test_full_world_roundtrip(self, world, tmp_path):
        d = world
        sizes = mrbackup(d.db, tmp_path / "b")
        restored = build_database()
        mrrestore(restored, tmp_path / "b")
        for name, table in d.db.tables.items():
            assert len(restored.tables[name]) == len(table), name
        # consistency survives the round trip
        assert MrCheck(restored).run() == []
        # passwd-ish relations dominate the dump, as in the paper
        assert sizes["users"] == max(sizes.values())


class TestJournalRecovery:
    def test_replay_after_restore(self, tmp_path):
        """§5.2.2: nightly backup + journal bounds loss to zero."""
        d = AthenaDeployment(DeploymentConfig(population=PopulationSpec(
            users=8, unregistered_users=0, nfs_servers=2, maillists=2,
            clusters=1, machines_per_cluster=1, printers=1,
            network_services=3)))
        # nightly backup happens now
        mrbackup(d.db, tmp_path / "nightly")
        backup_seq = d.journal.current_seq()
        # next day: changes accumulate in the journal
        d.clock.advance(3600)
        client = d.direct_client()
        client.query("add_machine", "LOST1.MIT.EDU", "VAX")
        client.query("add_machine", "LOST2.MIT.EDU", "RT")
        client.query("update_user_shell", d.handles.logins[0], "/bin/sh")
        # disaster: restore from the backup...
        restored = build_database()
        mrrestore(restored, tmp_path / "nightly")
        assert not restored.table("machine").select(
            {"name": "LOST1.MIT.EDU"})
        # ...then replay the journal
        replayed = replay_wal(restored, d.journal, after_seq=backup_seq)
        assert replayed.replayed == 3
        assert restored.table("machine").select({"name": "LOST1.MIT.EDU"})
        assert restored.table("users").select(
            {"login": d.handles.logins[0]})[0]["shell"] == "/bin/sh"
