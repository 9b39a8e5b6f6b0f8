"""E2 — connection start-up cost: Moira vs the Athenareg design (§5.4).

"One of the limiting factors for Athenareg, Moira's predecessor, is the
time it takes to start up the Ingres back end subprocess which it uses
to access the database.  This was done for every client connection ...
the Moira server will do this only once, at the start up time of the
daemon."

We measure (a) a Moira client connect + first query against the
long-running server with its already-open backend, and (b) the
Athenareg regime, where serving a client requires standing up a fresh
backend — simulated here as opening the database engine and loading the
schema + data, which is exactly what the Ingres subprocess had to do.

Shape expected: Moira connect ≪ per-connection backend startup.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import record
from repro.client import MoiraClient
from repro.db.backup import mrbackup, mrrestore
from repro.db.schema import build_database


@pytest.fixture(scope="module")
def world(paper_deployment, tmp_path_factory):
    d = paper_deployment
    # the "database on disk" a fresh backend would open
    dump = tmp_path_factory.mktemp("e2") / "dump"
    mrbackup(d.db, dump)
    return d, dump


def moira_connect_and_query(d):
    client = MoiraClient(dispatcher=d.server)
    assert client.mr_connect() == 0
    rows = client.query("get_machine", d.handles.hesiod_machine)
    client.close()
    return rows


def athenareg_connect_and_query(d, dump):
    """Per-connection backend: open the database from disk, then query."""
    backend = build_database()
    mrrestore(backend, dump)
    from repro.client.lib import DirectClient
    client = DirectClient(backend, d.clock)
    return client.query("get_machine", d.handles.hesiod_machine)


class TestConnectionStartup:
    def test_benchmark_moira_connect(self, world, benchmark):
        d, _ = world
        rows = benchmark(lambda: moira_connect_and_query(d))
        assert rows

    def test_benchmark_athenareg_connect(self, world, benchmark):
        d, dump = world
        rows = benchmark.pedantic(
            lambda: athenareg_connect_and_query(d, dump),
            rounds=3, iterations=1)
        assert rows

    def test_shape_and_emit(self, world, benchmark):
        d, dump = world

        def timeit(fn, rounds):
            fn()
            t0 = time.perf_counter()
            for _ in range(rounds):
                fn()
            return (time.perf_counter() - t0) / rounds

        t_moira = timeit(lambda: moira_connect_and_query(d), 50)
        t_athenareg = timeit(
            lambda: athenareg_connect_and_query(d, dump), 2)

        speedup = t_athenareg / t_moira
        record("e2_connection_startup", {
            "moira_connect_ms": round(t_moira * 1e3, 3),
            "athenareg_connect_ms": round(t_athenareg * 1e3, 3),
            "speedup": round(speedup, 1),
        }, [
            "E2: cost of serving one new client connection",
            f"  Moira (shared backend):          {t_moira * 1e3:9.2f} ms",
            f"  Athenareg (backend per client):  "
            f"{t_athenareg * 1e3:9.2f} ms",
            f"  speedup: {speedup:.0f}x",
            "shape check (paper): starting a backend per connection is "
            "a 'rather heavyweight operation'; Moira amortises it",
        ])
        assert speedup > 10

        benchmark(lambda: moira_connect_and_query(d))
