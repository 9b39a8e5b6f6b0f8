"""Final coverage batch: generator exceptions, cache eviction, config
toggles, and seeding idempotency."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import AthenaDeployment, DeploymentConfig
from repro.dcm.generators.base import Generator, register_generator
from repro.server.access import AccessCache, seed_capacls
from repro.workload import PopulationSpec

SMALL = PopulationSpec(users=15, unregistered_users=0, nfs_servers=2,
                       maillists=3, clusters=1, machines_per_cluster=1,
                       printers=1, network_services=3)


class ExplodingGenerator(Generator):
    """A generator whose extract crashes — a coding error in a .gen."""

    service = "BROKEN"
    depends = ("values",)

    def generate(self, ctx):
        """Always raise."""
        raise RuntimeError("bug in the generator")


class TestGeneratorCrash:
    def test_generator_exception_is_service_hard_error(self):
        d = AthenaDeployment(DeploymentConfig(population=SMALL))
        register_generator(ExplodingGenerator())
        client = d.direct_client()
        client.query("add_machine", "B.MIT.EDU", "VAX")
        client.query("add_server_info", "BROKEN", 30, "/tmp/b.out",
                     "/bin/b.sh", "UNIQUE", 1, "NONE", "NONE")
        client.query("add_server_host_info", "BROKEN", "B.MIT.EDU", 1,
                     0, 0, "")
        d.run_hours(1)
        row = d.db.table("servers").select({"name": "BROKEN"})[0]
        assert row["harderror"] == 1
        assert "generator failed" in row["errmsg"]
        # the operators heard about it
        assert any("BROKEN" in n[2] for n in d.notifications)
        # and the other services were unaffected
        d.run_hours(7)
        hesiod = d.db.table("servers").select({"name": "HESIOD"})[0]
        assert hesiod["harderror"] == 0
        assert hesiod["dfgen"] > 0


class TestAccessCacheEviction:
    def test_cache_bounded(self):
        cache = AccessCache(max_entries=8)
        for i in range(20):
            cache.store("user", "query", (str(i),), True)
        # the cache clears itself rather than growing without bound
        assert len(cache._cache) <= 8

    def test_generation_isolates_entries(self):
        cache = AccessCache()
        cache.store("u", "q", ("a",), True)
        assert cache.lookup("u", "q", ("a",)) is True
        cache.invalidate()
        assert cache.lookup("u", "q", ("a",)) is None


class TestSeedIdempotency:
    def test_seed_capacls_twice_is_safe(self, db):
        first = seed_capacls(db)
        count = len(db.table("capacls"))
        second = seed_capacls(db)
        assert first == second
        assert len(db.table("capacls")) == count


class TestConfigToggles:
    def test_knob_count_only_ratchets_down(self):
        # every independent knob doubles the configurations nobody
        # tests (DESIGN.md §17); adding one means deleting one first
        assert len(dataclasses.fields(DeploymentConfig)) <= 10

    def test_run_hours_returns_cron_firings(self):
        d = AthenaDeployment(DeploymentConfig(population=SMALL))
        fired = d.run_hours(1)
        assert fired == 4  # the 15-minute DCM cron


class TestDeploymentSurface:
    def test_client_for_reuses_principal(self):
        d = AthenaDeployment(DeploymentConfig(population=SMALL))
        login = d.handles.logins[0]
        c1 = d.client_for(login, "pw", "a")
        c2 = d.client_for(login, "pw", "b")  # same password works
        c1.close()
        c2.close()
        from repro.errors import MoiraError
        with pytest.raises(MoiraError):
            d.client_for(login, "wrong", "c")

    def test_pop_value1_matches_reality_at_build(self):
        d = AthenaDeployment(DeploymentConfig(population=SMALL))
        for row in d.db.table("serverhosts").select({"service": "POP"}):
            actual = d.db.table("users").count(
                {"pop_id": row["mach_id"], "potype": "POP"})
            assert row["value1"] == actual
