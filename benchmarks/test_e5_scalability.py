"""E5 — the 10,000-active-user design point (§5.1 A).

"The system is designed optimally for 10,000 active users."  We sweep
the population from 1k to 10k and measure the operations whose cost
must *not* grow with the user count (indexed point queries through the
full protocol stack) and the ones that legitimately scale linearly
(full extracts).

Shape expected: point-query latency roughly flat across the sweep;
extract time linear in users; both comfortably fast at 10k.
"""

from __future__ import annotations

import gc
import time
from collections import Counter

import pytest

from benchmarks.conftest import record
from repro.core import AthenaDeployment, DeploymentConfig
from repro.dcm.generators import get_generator
from repro.dcm.generators.base import GenContext
from repro.workload import PopulationSpec

SCALES = (1_000, 4_000, 10_000)


def build(users, **overrides):
    return AthenaDeployment(DeploymentConfig(
        population=PopulationSpec(users=users, unregistered_users=0,
                                  maillists=users // 70),
        **overrides))


def full_cycle_wall(d):
    """One DCM invocation with every service due: generate everything
    and propagate to every host."""
    d.clock.advance(25 * 3600)
    gc.disable()
    try:
        t0 = time.perf_counter()
        report = d.dcm.run_once()
        return time.perf_counter() - t0, report
    finally:
        gc.enable()


def dirty_full_cycle_wall(d, serial):
    """The steady-state full cycle: one user renamed — a login is a
    column all four generators read, where a shell reaches only Hesiod
    and the mail hub — every service due again: all four generators
    run, and every host whose files name the user receives them (a
    host whose bytes did not move is marked converged, not pushed)."""
    d.clock.advance(60)  # the change lands after the last generation
    login = d.handles.logins[serial % len(d.handles.logins)]
    user = d.db.table("users").select({"login": login})[0]
    d.direct_client().query(
        "update_user", login, f"{login}r{serial}", user["uid"],
        user["shell"], user["last"], user["first"], user["middle"],
        user["status"], user["mit_id"], user["mit_year"])
    return full_cycle_wall(d)


def host_file_bytes(d):
    return {name: {path: host.fs.read(path)
                   for path in host.fs.listdir("/")
                   if host.fs.exists(path)}
            for name, host in d.hosts.items()}


@pytest.fixture(scope="module")
def sweep():
    return {users: build(users) for users in SCALES}


def point_query_us(d, samples=300):
    client = d.direct_client()
    login = d.handles.logins[len(d.handles.logins) // 2]
    client.query("get_user_by_login", login)
    t0 = time.perf_counter()
    for _ in range(samples):
        client.query("get_user_by_login", login)
    return (time.perf_counter() - t0) / samples * 1e6


def extract_seconds(d):
    generator = get_generator("HESIOD")
    hosts = d.db.table("serverhosts").select({"service": "HESIOD"})
    t0 = time.perf_counter()
    generator.generate(GenContext(d.db, d.clock.now(), hosts=hosts))
    return time.perf_counter() - t0


class TestScalability:
    def test_benchmark_point_query_at_10k(self, sweep, benchmark):
        d = sweep[10_000]
        client = d.direct_client()
        login = d.handles.logins[5000]
        benchmark(lambda: client.query("get_user_by_login", login))

    def test_benchmark_extract_at_10k(self, sweep, benchmark):
        d = sweep[10_000]
        generator = get_generator("HESIOD")
        hosts = d.db.table("serverhosts").select({"service": "HESIOD"})
        benchmark.pedantic(
            lambda: generator.generate(
                GenContext(d.db, d.clock.now(), hosts=hosts)),
            rounds=3, iterations=1)

    def test_shape_and_emit(self, sweep, benchmark):
        queries = {u: point_query_us(sweep[u]) for u in SCALES}
        extracts = {u: extract_seconds(sweep[u]) for u in SCALES}

        lines = ["E5: scaling from 1k to the 10k-user design point",
                 f"{'users':>7s} {'point query (µs)':>18s} "
                 f"{'hesiod extract (s)':>20s}"]
        for users in SCALES:
            lines.append(f"{users:>7d} {queries[users]:>18.1f} "
                         f"{extracts[users]:>20.2f}")
        q_ratio = queries[10_000] / queries[1_000]
        x_ratio = extracts[10_000] / extracts[1_000]
        lines.append(f"  query growth 1k->10k:   {q_ratio:5.1f}x "
                     "(flat = indexed)")
        lines.append(f"  extract growth 1k->10k: {x_ratio:5.1f}x "
                     "(linear expected ~10x)")
        record("e5_scalability", {
            "point_query_us": {str(u): round(queries[u], 1)
                               for u in SCALES},
            "hesiod_extract_s": {str(u): round(extracts[u], 3)
                                 for u in SCALES},
        }, lines)

        # point queries stay roughly flat (indexes, not scans)
        assert q_ratio < 4
        # extracts scale roughly linearly, not quadratically
        assert x_ratio < 40
        # and the design point itself is comfortable
        assert queries[10_000] < 10_000   # well under 10 ms

        benchmark(lambda: None)

    def test_pipeline_speedup_at_10k(self, benchmark):
        """The DCM pipeline at 10k users, push loop inline (width 1)
        versus on the 8-wide pool — one cold full cycle, then three
        steady-state full cycles (one user renamed each, every service
        due, every host the rename reaches re-propagated).  Both arms
        must push the same hosts and install byte-identical files on
        every host; wall times are reported, not gated.
        """
        rounds = 3

        def measure(**overrides):
            # one deployment resident at a time, with a clean heap
            # before the timed sections — otherwise whichever variant
            # runs last pays collector costs for its predecessors
            d = build(10_000, **overrides)
            gc.collect()
            cold, report = full_cycle_wall(d)
            dirty = []
            for serial in range(rounds):
                wall, report = dirty_full_cycle_wall(d, serial)
                assert report.generations == 4
                dirty.append(wall)
            files = host_file_bytes(d)
            # service -> hosts pushed by the last dirty cycle
            props = Counter(line.split()[1].split("/")[0]
                            for line in report.log
                            if line.endswith(": updated"))
            assert sum(props.values()) == report.propagations_succeeded
            del d
            gc.collect()
            return cold, min(dirty), props, files

        c_seq, t_seq, p_seq, files_seq = measure(push_pool_width=1)
        c_par, t_par, p_par, files_par = measure(push_pool_width=8)

        record("e5_pipeline_speedup", {
            "cold_cycle_10k_sequential_s": round(c_seq, 3),
            "cold_cycle_10k_parallel_s": round(c_par, 3),
            "full_cycle_10k_sequential_s": round(t_seq, 3),
            "full_cycle_10k_parallel_s": round(t_par, 3),
        }, [
            "E5b: full 10k-user DCM cycle, push loop inline vs pooled",
            f"(best of {rounds} steady-state cycles; cold first cycle "
            "in parens)",
            f"  sequential push (width 1): {t_seq:6.2f}s ({c_seq:.2f}s)",
            f"  8-wide push:               {t_par:6.2f}s ({c_par:.2f}s)",
        ])

        # determinism: both widths installed identical bytes on every
        # host after the same change sequence; the rename reaches every
        # NFS host, Hesiod and the mail hub, while ZEPHYR's hosts keep
        # their bytes and are not pushed
        assert p_seq == p_par == {"NFS": 20, "HESIOD": 1, "MAIL": 1}
        assert files_seq == files_par

        benchmark(lambda: None)
