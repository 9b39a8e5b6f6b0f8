"""E1 — the no-change optimisation (§5.1 E, §5.7.1).

"The data control manager is designed to only generate and propagate
new files if the database has changed within the previous time
interval" — MR_NO_CHANGE.  We measure a DCM cycle in three regimes:

* quiet  — nothing changed; the cycle should be nearly free;
* dirty  — one change a file shows (a login shell): the service's files
  are patched and its host receives the changed file;
* ablation — the dfcheck/no-change machinery disabled
  (``d.dcm.always_regenerate = True``): every cycle pays full price,
  a full build and a full push.

Shape expected: quiet ≪ dirty ≈ ablation-every-cycle.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import record
from repro.core import AthenaDeployment, DeploymentConfig
from repro.workload import PopulationSpec

SPEC = PopulationSpec(users=800, unregistered_users=0, nfs_servers=6,
                      maillists=40, clusters=4, machines_per_cluster=3,
                      printers=10, network_services=30)


@pytest.fixture(scope="module")
def steady():
    """A deployment that has completed its first full cycle."""
    d = AthenaDeployment(DeploymentConfig(population=SPEC))
    d.run_hours(25)
    return d


def quiet_cycle(d):
    d.clock.advance(6 * 3600 + 60)
    return d.dcm.run_once()


def dirty_cycle(d, serial=[0]):
    serial[0] += 1
    d.direct_client().query("update_user_shell", d.handles.logins[0],
                            f"/bin/churn{serial[0]}")
    d.clock.advance(6 * 3600 + 60)
    return d.dcm.run_once()


class TestIncrementalPropagation:
    def test_quiet_cycle_generates_nothing(self, steady):
        report = quiet_cycle(steady)
        assert report.generations == 0
        assert report.generations_no_change >= 1
        assert report.propagations_attempted == 0

    def test_dirty_cycle_regenerates(self, steady):
        report = dirty_cycle(steady)
        assert report.generations >= 1
        assert report.propagations_succeeded >= 1

    def test_machine_dirty_reruns_only_dependents(self, steady):
        """A cycle with every service due and a machine-only change
        regenerates exactly the generators declaring ``machine``
        (HESIOD, MAIL, NFS) — ZEPHYR reports no-change on the exact
        version-vector comparison — and, since no file names the new
        machine, pushes nothing."""
        d = steady
        d.run_hours(25)  # drain any pending churn from earlier tests
        d.direct_client().query("add_machine", "MACHONLY.MIT.EDU", "VAX")
        d.clock.advance(25 * 3600)  # all four services due at once
        report = d.dcm.run_once()
        assert set(report.generated_services) == {"HESIOD", "MAIL", "NFS"}
        assert set(report.no_change_services) == {"ZEPHYR"}
        assert report.propagations_attempted == 0

    def test_benchmark_quiet_cycle(self, steady, benchmark):
        benchmark.pedantic(lambda: quiet_cycle(steady), rounds=10,
                           iterations=1)

    def test_benchmark_dirty_cycle(self, steady, benchmark):
        benchmark.pedantic(lambda: dirty_cycle(steady), rounds=5,
                           iterations=1)

    def test_ablation_and_emit(self, steady, benchmark):
        """Disable the optimisation and compare a week of quiet
        operation with and without it."""

        def measure_week(always_regenerate: bool):
            d = AthenaDeployment(DeploymentConfig(population=SPEC))
            # the ablation is not a deployment knob: set it on the DCM
            d.dcm.always_regenerate = always_regenerate
            d.run_hours(25)  # first full cycle in both regimes
            base = d.dcm.total_generations
            t0 = time.perf_counter()
            d.run_hours(24 * 7)
            elapsed = time.perf_counter() - t0
            return elapsed, d.dcm.total_generations - base

        t_opt, gen_opt = measure_week(False)
        t_abl, gen_abl = measure_week(True)

        t0 = time.perf_counter()
        quiet_cycle(steady)
        t_quiet = time.perf_counter() - t0
        t0 = time.perf_counter()
        dirty_cycle(steady)
        t_dirty = time.perf_counter() - t0
        record("e1_incremental_propagation", {
            "quiet_cycle_s": round(t_quiet, 4),
            "dirty_cycle_s": round(t_dirty, 4),
            "week_with_no_change_check_s": round(t_opt, 3),
            "week_always_regenerate_s": round(t_abl, 3),
            "week_generations_with_check": gen_opt,
            "week_generations_always": gen_abl,
        }, [
            "E1: one quiet simulated week of DCM operation",
            f"  with no-change check:  {gen_opt:4d} generations, "
            f"{t_opt:6.2f}s wall",
            f"  always-regenerate:     {gen_abl:4d} generations, "
            f"{t_abl:6.2f}s wall",
            f"  generation ratio: {gen_abl / max(gen_opt, 1):.0f}x",
            "shape check (paper): quiet intervals cost nothing when "
            "nothing changed",
        ])
        assert gen_opt == 0                 # nothing changed all week
        assert gen_abl >= 28                # 4 services x 7 days (6h min)
        assert t_abl > t_opt

        benchmark(lambda: quiet_cycle(steady))
