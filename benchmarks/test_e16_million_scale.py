"""E16 — the last 10x: parallel build and WAL compaction.

The 1M-user design point stresses two places the 100k write path never
did: building the world (the serial loader extrapolates to ~10 minutes
at 1M) and the unbounded WAL (a semester of shell/finger churn keeps
every superseded record forever).  E16 gates the two fixes:

1. **Parallel population build** — ``load_population(parallel=True)``
   partitions each bulk stage across a worker pool with per-partition
   derived RNGs and pre-reserved id ranges.  Gate: ≥
   ``E16_MIN_BUILD_SPEEDUP`` (default 4x) over the serial loader at
   ``E16_USERS``, with the built worlds **byte-identical** under an
   ``mrbackup`` dump of both.

2. **WAL compaction** — ``Journal.compact()`` folds superseded
   shell/finger records.  Gate: WAL bytes stay bounded across a
   ``E16_COMPACT_WRITES`` rollover storm (final WAL ≪ the uncompacted
   trajectory), crash-boundary recovery from checkpoint + compacted
   WAL is byte-identical on the ``memory`` and ``sqlite`` backends,
   and compaction respects replica pins: the default ``compact_wal``
   never strands a lagging replica, while ``force=True`` past its pin
   makes the replica **resync** (not corrupt) and converge.

The record lands in ``benchmarks/results/E16.json``.

Env knobs (CI smoke uses tiny values): E16_USERS, E16_COMPACT_WRITES,
E16_MIN_BUILD_SPEEDUP.
"""

from __future__ import annotations

import gc
import hashlib
import os
import time
from pathlib import Path

from benchmarks.conftest import record
from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.backup import mrbackup
from repro.db.recovery import checkpoint, recover
from repro.db.schema import build_database
from repro.workload import PopulationSpec, load_population

USERS = int(os.environ.get("E16_USERS", "100000"))
COMPACT_WRITES = int(os.environ.get("E16_COMPACT_WRITES", "100000"))
MIN_BUILD_SPEEDUP = float(os.environ.get("E16_MIN_BUILD_SPEEDUP", "4.0"))


def _dump(db, directory: Path) -> dict[str, bytes]:
    mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _dump_digest(dump: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(dump):
        h.update(name.encode())
        h.update(dump[name])
    return h.hexdigest()


# -- part 1: parallel population build -----------------------------------------


def _timed_build(users: int, *, parallel: bool):
    db = build_database()
    spec = PopulationSpec.design_point(users)
    started = time.perf_counter()
    load_population(db, spec, parallel=parallel)
    return db, time.perf_counter() - started


def _bench_build(tmp_path: Path) -> dict:
    """Serial-vs-parallel build at each design point, back to back in
    one process so a noisy neighbour skews both sides equally."""
    points = sorted({10_000, USERS})
    trajectory = {}
    digests = {}
    for users in points:
        # each timed build runs on a clean heap: the previous world is
        # dumped to disk and freed (cycles collected) before the next
        # build starts — a live 100k world drags the second build
        # 3-4x through allocator pressure, poisoning the ratio in
        # whichever direction it is held
        db_s, t_ser = _timed_build(users, parallel=False)
        ser = _dump(db_s, tmp_path / f"build-serial-{users}")
        del db_s
        gc.collect()
        db_p, t_par = _timed_build(users, parallel=True)
        par = _dump(db_p, tmp_path / f"build-parallel-{users}")
        del db_p
        gc.collect()
        trajectory[str(users)] = {
            "serial_s": round(t_ser, 2),
            "parallel_s": round(t_par, 2),
            "speedup": round(t_ser / t_par, 2),
        }
        assert par == ser, (
            f"parallel build diverged from the serial oracle at {users}")
        if users == USERS:
            digests["world_sha256"] = _dump_digest(par)
        del par, ser
    gate_point = trajectory[str(USERS)]
    return {
        "points": trajectory,
        "speedup": gate_point["speedup"],
        **digests,
    }


# -- part 2: WAL compaction ----------------------------------------------------

COMPACT_USERS = 200
COMPACT_EVERY = 16  # compact every N rollover waves


def _compact_config(backend: str, workdir: Path, *,
                    replicas: int = 0) -> DeploymentConfig:
    kwargs = dict(
        population=PopulationSpec(users=COMPACT_USERS,
                                  unregistered_users=10, nfs_servers=4,
                                  maillists=10, clusters=2,
                                  machines_per_cluster=2, printers=4,
                                  network_services=10),
        server_workers=0,
        wal_path=workdir / "wal",
        wal_segments=True,
        replicas=replicas,
    )
    if backend != "memory":
        kwargs["backend"] = backend
        kwargs["backend_path"] = str(workdir / f"world.{backend}")
    return DeploymentConfig(**kwargs)


def _compact_storm(backend: str, tmp_path: Path) -> dict:
    """Rollover churn with periodic compaction: N waves of shell +
    finger updates over a fixed login set.  Every record but the last
    per (query, target) is superseded, so the compacted WAL must stay
    ~flat while total writes grow; recovery from checkpoint + the
    compacted WAL must still reproduce the primary byte for byte."""
    workdir = tmp_path / f"compact-{backend}"
    workdir.mkdir()
    d = AthenaDeployment(_compact_config(backend, workdir))
    admin = d.handles.logins[-1]
    d.make_admin(admin)
    client = d.direct_client(admin)
    checkpoint(d.db, d.journal, workdir / "snap")

    logins = d.handles.logins[:64]
    shells = ["/bin/sh", "/usr/athena/tcsh", "/bin/csh"]
    waves = max(1, COMPACT_WRITES // (len(logins) * 2))
    wal_trajectory = []
    writes = 0
    for wave in range(waves):
        for i, login in enumerate(logins):
            client.query("update_user_shell", login,
                         shells[(wave + i) % 3])
            client.query("update_finger_by_login", login,
                         f"Wave {wave} User {i}", "", "", "",
                         "", "", "", "staff")
            writes += 2
        if (wave + 1) % COMPACT_EVERY == 0 or wave == waves - 1:
            d.compact_wal()
            wal_trajectory.append(
                {"writes": writes,
                 "wal_bytes": d.journal.stats()["wal_bytes"]})

    stats = d.journal.stats()
    assert stats["compactions"] >= 1
    # boundedness: the folded WAL holds ~one live record per (query,
    # target) pair regardless of how many waves ran over it
    live_entries = len(d.journal.entries)
    assert live_entries <= 2 * len(logins) + 64, (
        f"{backend}: WAL not bounded — {live_entries} entries "
        f"after compaction for {writes} writes")
    if len(wal_trajectory) >= 2:
        assert wal_trajectory[-1]["wal_bytes"] <= (
            2 * wal_trajectory[0]["wal_bytes"]), (
            f"{backend}: compacted WAL bytes still growing "
            f"with write count: {wal_trajectory}")

    # crash-boundary recovery: the process dies here; checkpoint +
    # compacted WAL must rebuild the exact primary
    primary = _dump(d.db, workdir / "primary-dump")
    if backend == "memory":
        rec = recover(workdir / "snap", wal_path=workdir / "wal")
    else:
        from repro.db.backend import create_backend
        fresh = create_backend(backend,
                               str(workdir / f"recovered.{backend}"))
        rec = recover(workdir / "snap", wal_path=workdir / "wal",
                      db=fresh)
    assert _dump(rec.db, workdir / "recover-dump") == primary, (
        f"{backend}: recovery from the compacted WAL diverged")
    d.server.shutdown()
    return {"writes": writes, "entries_after_compaction": live_entries,
            "compactions": stats["compactions"],
            "wal_trajectory": wal_trajectory}


def _compact_replica_pins(tmp_path: Path) -> dict:
    """Default compaction respects replica pins (lagging replica
    catches up from the WAL); force-compacting past the pin makes the
    replica resync from a snapshot — never corrupt."""
    workdir = tmp_path / "compact-pins"
    workdir.mkdir()
    d = AthenaDeployment(_compact_config("memory", workdir, replicas=1))
    admin = d.handles.logins[-1]
    d.make_admin(admin)
    client = d.direct_client(admin)
    replica = d.replica_cluster.replicas[0]
    d.replica_cluster.sync_all()

    logins = d.handles.logins[:16]
    for i, login in enumerate(logins):
        client.query("update_user_shell", login, "/bin/csh")
    replica.step()  # replica current through the first rollover

    # lagging replica: new writes it has not pulled yet
    for login in logins:
        client.query("update_user_shell", login, "/bin/sh")
    pinned = d.compact_wal()          # bounded by replica.applied_seq
    replica.step()
    assert replica.resyncs == 0, (
        "pin-bounded compaction forced a replica resync")

    # force past the pin: two superseding waves the replica never saw,
    # so force-compaction folds the first and the floor passes the
    # replica's applied_seq — it must detect the hole and resync
    replica.step()
    for login in logins:
        client.query("update_user_shell", login, "/bin/athena/tcsh")
    for login in logins:
        client.query("update_user_shell", login, "/bin/sh")
    forced = d.compact_wal(force=True)
    assert forced["dropped"] >= 1, "force-compaction folded nothing"
    replica.step()
    assert replica.resyncs >= 1, (
        "force-compaction past the pin did not trigger a resync")
    primary = _dump(d.db, workdir / "primary-dump")
    assert _dump(replica.db, workdir / "replica-dump") == primary, (
        "replica diverged from the primary after resync")
    d.server.shutdown()
    return {"pinned_compact": pinned, "forced_compact": forced,
            "resyncs": replica.resyncs}


def test_e16_million_scale(tmp_path):
    build = _bench_build(tmp_path)

    compaction = {backend: _compact_storm(backend, tmp_path)
                  for backend in ("memory", "sqlite")}
    pins = _compact_replica_pins(tmp_path)

    lines = [
        f"E16: the {USERS // 1000}k design point "
        "(build + WAL compaction)",
        "build trajectory (serial vs parallel, one process):",
    ] + [
        f"  {int(users):>8} users: serial {row['serial_s']:>7.2f}s  "
        f"parallel {row['parallel_s']:>7.2f}s  "
        f"speedup {row['speedup']:.2f}x"
        for users, row in sorted(build["points"].items(),
                                 key=lambda kv: int(kv[0]))
    ] + [
        f"build gate: {build['speedup']:.2f}x "
        f"(required {MIN_BUILD_SPEEDUP}x), worlds byte-identical",
        f"compaction: {compaction['memory']['writes']} writes folded "
        f"to {compaction['memory']['entries_after_compaction']} WAL "
        f"entries ({compaction['memory']['compactions']} compactions); "
        "recovery byte-identical on memory + sqlite",
        f"replica pins: default compact -> {0} resyncs, "
        f"forced past pin -> {pins['resyncs']} resync(s), "
        "replica byte-identical after",
    ]
    section = {
        "users": USERS,
        "build": build,
        "build_speedup": build["speedup"],
        "min_build_speedup_required": MIN_BUILD_SPEEDUP,
        "build_byte_identical": True,
        "compaction": compaction,
        "replica_pins": pins,
    }
    record("E16", section, lines)
    assert build["speedup"] >= MIN_BUILD_SPEEDUP, (
        f"parallel build speedup {build['speedup']:.2f}x < required "
        f"{MIN_BUILD_SPEEDUP}x")
