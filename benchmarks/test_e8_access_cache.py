"""E8 — access-check doubling and the anticipated cache (§5.5).

"It is expected that many access checks will have to be performed
twice: once to allow the client to find out that it should prompt the
user ... and again when the query is actually executed.  It is expected
that some form of access caching will eventually be worked into the
server for performance reasons."

We measure the canonical client pattern (mr_access, prompt, mr_query)
with the cache enabled and disabled.  Shape expected: the cache turns
the second check into a dictionary hit; the doubled-check pattern costs
noticeably less with it.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import record
from repro.client import MoiraClient
from repro.core import AthenaDeployment, DeploymentConfig
from repro.server.access import AccessCache
from repro.server.moira_server import MoiraServer
from repro.workload import PopulationSpec

SPEC = PopulationSpec(users=2000, unregistered_users=0, maillists=100)


@pytest.fixture(scope="module")
def world():
    d = AthenaDeployment(DeploymentConfig(population=SPEC))
    # a deep ACL: the capability list contains nested sub-lists, so an
    # uncached access check does real recursive membership work
    direct = d.direct_client()
    direct.query("add_list", "ops-inner", 1, 0, 0, 0, 0, 0, "NONE",
                 "NONE", "operators inner")
    direct.query("add_list", "ops-outer", 1, 0, 0, 0, 0, 0, "NONE",
                 "NONE", "operators outer")
    admin = d.handles.logins[0]
    direct.query("add_member_to_list", "ops-inner", "USER", admin)
    direct.query("add_member_to_list", "ops-outer", "LIST", "ops-inner")
    direct.query("add_member_to_list", "moira-admins", "LIST",
                 "ops-outer")
    # pad the admin list with individual members so membership scans
    # are non-trivial
    for login in d.handles.logins[1000:1400]:
        direct.query("add_member_to_list", "moira-admins", "USER", login)
    return d, admin


def make_client(d, admin, enabled):
    server = MoiraServer(d.db, d.clock, d.kdc,
                         access_cache=AccessCache(enabled=enabled),
                         service_principal="moira")
    if not d.kdc.principal_exists(admin):
        d.kdc.add_principal(admin, "pw")
    client = MoiraClient(dispatcher=server, kdc=d.kdc,
                         credentials=d.kdc.kinit(admin, "pw"),
                         clock=d.clock)
    client.connect().auth("e8")
    return server, client


def doubled_check(client, machine):
    """The paper's pattern: access first, then the query itself."""
    assert client.access("get_server_info", "HESIOD")
    return client.query("get_server_info", "HESIOD")


class TestAccessCache:
    def test_benchmark_with_cache(self, world, benchmark):
        d, admin = world
        _, client = make_client(d, admin, enabled=True)
        benchmark(lambda: doubled_check(client, None))
        client.close()

    def test_benchmark_without_cache(self, world, benchmark):
        d, admin = world
        _, client = make_client(d, admin, enabled=False)
        benchmark(lambda: doubled_check(client, None))
        client.close()

    def test_shape_and_emit(self, world, benchmark):
        d, admin = world

        def timeit(client, rounds=300):
            doubled_check(client, None)
            t0 = time.perf_counter()
            for _ in range(rounds):
                doubled_check(client, None)
            return (time.perf_counter() - t0) / rounds * 1e6

        server_on, client_on = make_client(d, admin, enabled=True)
        t_on = timeit(client_on)
        hit_rate = server_on.access_cache.hits / max(
            1, server_on.access_cache.hits + server_on.access_cache.misses)
        client_on.close()

        server_off, client_off = make_client(d, admin, enabled=False)
        t_off = timeit(client_off)
        client_off.close()

        record("e8_access_cache", {
            "cache_enabled_us": round(t_on, 1),
            "cache_disabled_us": round(t_off, 1),
            "hit_rate": round(hit_rate, 3),
        }, [
            "E8: the access-then-query doubled check (µs per pair)",
            f"  cache enabled:   {t_on:9.1f}  "
            f"(hit rate {hit_rate:.0%})",
            f"  cache disabled:  {t_off:9.1f}",
            f"  speedup: {t_off / t_on:.2f}x",
            "shape check (paper): caching pays because every guarded "
            "query is access-checked twice",
        ])
        assert hit_rate > 0.5
        assert t_off > t_on

        benchmark(lambda: None)
