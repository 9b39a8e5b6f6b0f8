"""The parallel population builder and the 1M design-point math.

Three contracts from the scale PR:

* ``PopulationSpec.design_point`` sizes the campus with ~33% headroom
  at every design point the roadmap names (10k, 100k, 1M);
* ``random_names`` stays deterministic (a golden digest pins the
  generator) and globally collision-free under partitioned callers;
* ``load_population(parallel=True)`` builds a world byte-identical to
  the serial oracle, at any worker count, with or without user
  sub-shards.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.db.backup import mrbackup
from repro.db.schema import build_database
from repro.workload import (
    USERS_PARTITION,
    PopulationSpec,
    load_population,
    random_names,
)

SMALL = dict(users=400, unregistered_users=40, nfs_servers=4,
             maillists=20, clusters=3, machines_per_cluster=3,
             printers=6, network_services=12)


# -- design-point headroom -----------------------------------------------------


class TestDesignPoint:
    @pytest.mark.parametrize("users", [10_000, 100_000, 1_000_000])
    def test_nfs_headroom(self, users):
        """NFS capacity ≥ 4/3 of demand: every account (registered +
        registrar tape) takes 4 slots of the 300-per-partition layout,
        and a third of the fleet must be spare."""
        spec = PopulationSpec.design_point(users)
        total = spec.users + spec.unregistered_users
        per_partition = 400_000 // 300
        capacity = spec.nfs_servers * 3 * per_partition
        assert capacity >= total * 4, (spec.nfs_servers, users)

    @pytest.mark.parametrize("users", [10_000, 100_000, 1_000_000])
    def test_pop_and_zephyr_track_users(self, users):
        spec = PopulationSpec.design_point(users)
        assert spec.pop_servers * 6_000 >= spec.users + \
            spec.unregistered_users
        assert spec.zephyr_servers >= max(3, users // 20_000)

    @pytest.mark.parametrize("users", [10_000, 100_000, 1_000_000])
    def test_campus_floors(self, users):
        spec = PopulationSpec.design_point(users)
        assert spec.clusters >= max(12, users // 2_500)
        assert spec.printers >= max(40, users // 1_000)
        assert spec.maillists >= max(150, users // 200)
        assert spec.unregistered_users >= max(1_000, users // 10)

    def test_paper_point_matches_defaults(self):
        """The 10k design point is the paper's §5.1 campus."""
        spec = PopulationSpec.design_point(10_000)
        assert spec.users == 10_000
        assert spec.nfs_servers >= 20


# -- random_names --------------------------------------------------------------


class TestRandomNames:
    def test_logins_unique_at_scale(self):
        names = random_names(random.Random(7), 50_000)
        assert len({login for _, _, login in names}) == 50_000

    def test_partition_offsets_disjoint(self):
        """Partitioned callers with private RNGs and start offsets
        never collide — the login suffix is the global serial."""
        whole: set = set()
        for p, start in enumerate(range(0, 4 * USERS_PARTITION,
                                        USERS_PARTITION)):
            part = random_names(random.Random(f"seed/{p}"),
                                USERS_PARTITION, start=start)
            logins = {login for _, _, login in part}
            assert not (whole & logins)
            whole |= logins
        assert len(whole) == 4 * USERS_PARTITION

    def test_golden_digest_seed_1988(self):
        """Pin the generator: any drift in syllables, draw order, or
        login construction silently rebuilds every world — this digest
        makes it a visible, deliberate change."""
        names = random_names(random.Random(1988), 1000)
        digest = hashlib.sha256(
            "\n".join("|".join(t) for t in names).encode()).hexdigest()
        assert digest == ("fee1e2daf57773668bee728b7bd0e21b"
                          "ab8a08ac8a6f1fdb7b65ca86ed1fbe30")

    def test_start_continuation_equivalence(self):
        """One RNG drawn in two chunks equals one continuous draw —
        the property the per-partition id plan relies on."""
        rng = random.Random(42)
        split = random_names(rng, 100) + random_names(rng, 100,
                                                      start=100)
        assert split == random_names(random.Random(42), 200)


# -- parallel build == serial oracle -------------------------------------------


def _digest(db, tmp_path, tag):
    directory = tmp_path / tag
    mrbackup(db, directory)
    h = hashlib.sha256()
    for p in sorted(directory.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _build(tmp_path, tag, *, parallel, workers=None):
    db = build_database()
    handles = load_population(db, PopulationSpec(**SMALL),
                              parallel=parallel, workers=workers)
    return handles, _digest(db, tmp_path, tag)


class TestParallelBuild:
    def test_parallel_matches_serial_oracle(self, tmp_path):
        serial, d_serial = _build(tmp_path, "serial", parallel=False)
        par, d_par = _build(tmp_path, "par4", parallel=True, workers=4)
        assert par.logins == serial.logins
        assert d_par == d_serial

    def test_worker_count_is_invisible(self, tmp_path):
        _, d_one = _build(tmp_path, "par1", parallel=True, workers=1)
        _, d_eight = _build(tmp_path, "par8", parallel=True, workers=8)
        assert d_one == d_eight

    def test_builds_are_rerun_stable(self, tmp_path):
        _, first = _build(tmp_path, "a", parallel=True)
        _, second = _build(tmp_path, "b", parallel=True)
        assert first == second

    def test_nfsphys_allocation_matches_serial(self, tmp_path):
        """Satellite check for the old per-machine probe: the machines
        stage's name→id map must land the same quota accounting the
        serial per-user updates did."""
        db_s = build_database()
        load_population(db_s, PopulationSpec(**SMALL), parallel=False)
        db_p = build_database()
        load_population(db_p, PopulationSpec(**SMALL), parallel=True)
        alloc_s = sorted(r["allocated"]
                         for r in db_s.table("nfsphys").select())
        alloc_p = sorted(r["allocated"]
                         for r in db_p.table("nfsphys").select())
        assert alloc_p == alloc_s
        assert sum(alloc_s) > 0

    def test_backends_without_shards_fall_back(self):
        """SQLite-backed worlds have no shard locks; parallel=True must
        quietly build serially rather than fail."""
        from repro.db.backend import create_backend
        db = create_backend("sqlite", ":memory:")
        handles = load_population(db, PopulationSpec(**SMALL),
                                  parallel=True)
        assert len(handles.logins) == SMALL["users"]
