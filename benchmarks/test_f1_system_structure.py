"""F1 — Figure 1, "The Moira System Structure".

The figure shows the only sanctioned dataflow:

    application -> application library -> Moira protocol ->
    Moira server -> database          (administrative reads/writes)
    database -> DCM -> server-specific files -> managed servers

This experiment exercises the complete path in both directions and
measures the per-layer cost of a query: direct glue library (no
protocol), in-process protocol (encode/decode, no socket), and real
TCP.  The paper's design claim is that layering the protocol on GDB
keeps the per-request overhead small relative to the query itself.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record
from repro.client import MoiraClient
from repro.protocol.transport import TcpServerTransport


@pytest.fixture(scope="module")
def world(paper_deployment):
    d = paper_deployment
    admin = d.handles.logins[0]
    d.make_admin(admin)
    return d, admin


class TestSystemStructure:
    def test_full_administrative_path(self, world, benchmark):
        """app -> library -> protocol -> server -> database and back."""
        d, admin = world
        client = d.client_for(admin, "pw", "f1")
        login = d.handles.logins[42]

        def roundtrip():
            return client.query("get_user_by_login", login)

        rows = benchmark(roundtrip)
        assert rows[0][0] == login
        client.close()

    def test_layer_breakdown(self, world, benchmark):
        """Measure each layer and emit the figure as a latency table."""
        import time

        d, admin = world
        login = d.handles.logins[7]
        samples = 300

        def timed(fn):
            fn()  # warm
            start = time.perf_counter()
            for _ in range(samples):
                fn()
            return (time.perf_counter() - start) / samples * 1e6  # µs

        direct = d.direct_client()
        t_direct = timed(lambda: direct.query("get_user_by_login",
                                              login))

        inproc = d.client_for(admin, "pw", "f1-inproc")
        t_inproc = timed(lambda: inproc.query("get_user_by_login",
                                              login))

        tcp = TcpServerTransport(d.server).start()
        try:
            host, port = tcp.address
            tcp_client = MoiraClient(tcp_address=(host, port), kdc=d.kdc,
                                     credentials=d.kdc.kinit(admin, "pw"),
                                     clock=d.clock)
            tcp_client.connect().auth("f1-tcp")
            t_tcp = timed(lambda: tcp_client.query("get_user_by_login",
                                                   login))
            tcp_client.close()
        finally:
            tcp.stop()
        inproc.close()

        record("f1_system_structure", {
            "direct_us": round(t_direct, 1),
            "inproc_us": round(t_inproc, 1),
            "tcp_us": round(t_tcp, 1),
        }, [
            "F1: per-layer latency of one get_user_by_login (µs/query)",
            f"  direct glue library (DCM path):     {t_direct:9.1f}",
            f"  + protocol encode/decode (inproc):  {t_inproc:9.1f}",
            f"  + real TCP socket:                  {t_tcp:9.1f}",
            "shape check: each layer adds cost; protocol overhead is "
            "within ~50x of the bare query",
        ])
        # the layering is ordered and the protocol isn't catastrophic
        assert t_direct <= t_inproc <= t_tcp
        assert t_inproc < t_direct * 50

        benchmark(lambda: direct.query("get_user_by_login", login))

    def test_distribution_path(self, world, benchmark):
        """database -> DCM -> files -> managed server, measured as one
        forced end-to-end push."""
        d, admin = world
        direct = d.direct_client()

        def force_push():
            direct.query("set_server_host_override", "HESIOD",
                         d.handles.hesiod_machine)
            report = d.dcm.run_once()
            return report

        report = benchmark.pedantic(force_push, rounds=3, iterations=1)
        assert report.propagations_succeeded >= 1
        # the pushed data is live in the nameserver
        assert d.hesiod.getpwnam(d.handles.logins[0])
