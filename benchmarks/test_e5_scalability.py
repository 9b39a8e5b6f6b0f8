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
    """The steady-state full cycle: one user changed, every service due
    again — all four generators run and all 25 hosts are re-propagated."""
    d.clock.advance(60)  # the change lands after the last generation
    login = d.handles.logins[serial % len(d.handles.logins)]
    shell = f"/bin/sh{serial}"
    d.direct_client().query("update_user_shell", login, shell)
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
        """The incremental pipeline versus the seed-era one at 10k
        users — one cold full cycle, then three steady-state full
        cycles (one user change each, every service due, all 25 hosts
        re-propagated):

        * ``legacy_dcm=True`` reproduces the seed behaviour end to end
          — one GenContext per service, modtime change checks, full
          re-extracts, the push loop at width 1 with no governor
          admission, and the shlex-era server-side record parser;
        * the default pipeline shares one extraction snapshot per
          cycle, patches user-keyed files from the changed-row log,
          builds each distinct payload once, and fans the pushes over
          the thread pool.

        The acceptance bar is >= 2x on the steady-state cycle with
        byte-identical files installed on every host.
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
            props = report.propagations_succeeded
            del d
            gc.collect()
            return cold, min(dirty), props, files

        c_legacy, t_legacy, p_legacy, files_legacy = \
            measure(legacy_dcm=True)
        c_seq, t_seq, p_seq, files_seq = measure(push_pool_width=1)
        c_par, t_par, p_par, files_par = measure(push_pool_width=8)

        speedup = t_legacy / t_par
        record("e5_pipeline_speedup", {
            "cold_cycle_10k_legacy_s": round(c_legacy, 3),
            "cold_cycle_10k_parallel_s": round(c_par, 3),
            "full_cycle_10k_legacy_s": round(t_legacy, 3),
            "full_cycle_10k_sequential_s": round(t_seq, 3),
            "full_cycle_10k_parallel_s": round(t_par, 3),
            "full_cycle_10k_speedup": round(speedup, 2),
        }, [
            "E5b: full 10k-user DCM cycle, seed pipeline vs incremental",
            f"(best of {rounds} steady-state cycles; cold first cycle "
            "in parens)",
            f"  legacy (seed) pipeline:        {t_legacy:6.2f}s "
            f"({c_legacy:.2f}s)",
            f"  shared-cache, sequential push: {t_seq:6.2f}s "
            f"({c_seq:.2f}s)",
            f"  shared-cache, 8-wide push:     {t_par:6.2f}s "
            f"({c_par:.2f}s)",
            f"  speedup vs seed: {speedup:.2f}x (bar: >= 2x)",
        ])

        # determinism: every variant installed identical bytes on every
        # host after the same change sequence
        assert p_legacy == p_seq == p_par == 25
        assert files_legacy == files_par
        assert files_legacy == files_seq
        assert speedup >= 2.0

        benchmark(lambda: None)
