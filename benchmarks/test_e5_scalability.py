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
from benchmarks.test_e18_cdc_freshness import installed_files
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
        """The DCM pipeline at 10k users — one cold full cycle, then
        three steady-state full cycles (one user renamed each, every
        service due, every host the rename reaches re-propagated) —
        against its reference twin, ``always_regenerate`` (every due
        service built in full and pushed whole to every host).  Both
        arms must install byte-identical config files on every host
        (push residue differs: a whole push leaves a ``.moira_old`` of
        every file); wall times are reported, not gated.
        """
        rounds = 3

        def measure(always_regenerate):
            # one deployment resident at a time, with a clean heap
            # before the timed sections — otherwise whichever variant
            # runs last pays collector costs for its predecessors
            d = build(10_000)
            d.dcm.always_regenerate = always_regenerate
            gc.collect()
            cold, report = full_cycle_wall(d)
            dirty = []
            for serial in range(rounds):
                wall, report = dirty_full_cycle_wall(d, serial)
                assert report.generations == 4
                dirty.append(wall)
            files = installed_files(d)
            # service -> hosts pushed by the last dirty cycle
            props = Counter(line.split()[1].split("/")[0]
                            for line in report.log
                            if line.endswith(": updated"))
            assert sum(props.values()) == report.propagations_succeeded
            del d
            gc.collect()
            return cold, min(dirty), props, files

        c_inc, t_inc, p_inc, files_inc = measure(False)
        c_ref, t_ref, _, files_ref = measure(True)

        record("e5_pipeline_speedup", {
            "cold_cycle_10k_s": round(c_inc, 3),
            "cold_cycle_10k_always_regenerate_s": round(c_ref, 3),
            "full_cycle_10k_s": round(t_inc, 3),
            "full_cycle_10k_always_regenerate_s": round(t_ref, 3),
        }, [
            "E5b: full 10k-user DCM cycle, one sequential push loop",
            f"(best of {rounds} steady-state cycles; cold first cycle "
            "in parens)",
            f"  default pipeline:         {t_inc:6.2f}s ({c_inc:.2f}s)",
            f"  always_regenerate twin:   {t_ref:6.2f}s ({c_ref:.2f}s)",
        ])

        # the rename reaches every NFS host, Hesiod and the mail hub,
        # while ZEPHYR's hosts keep their bytes and are not pushed; the
        # full-rebuild twin installed identical bytes on every host
        assert p_inc == {"NFS": 20, "HESIOD": 1, "MAIL": 1}
        assert files_inc == files_ref

        benchmark(lambda: None)
