"""E16 — the last 10x: parallel build and the checkpoint-bounded WAL.

The 1M-user design point stresses two places the 100k write path never
did: building the world (the serial loader extrapolates to ~10 minutes
at 1M) and the unbounded WAL (a semester of shell/finger churn keeps
every record forever).  E16 gates the two answers:

1. **Bulk population build** — ``load_population()`` splits each
   bulk stage into partitions with partition-derived RNGs and
   pre-reserved id ranges, applied on the calling thread through
   ``bulk_load`` batches.  Gate: ≥ ``E16_MIN_BUILD_SPEEDUP``
   (default 4x) over the per-row loader at ``E16_USERS``, with the
   built worlds **byte-identical** under an ``mrbackup`` dump of
   both.  One ``checkpoint()`` of the per-row world is timed at each
   design point (``checkpoint_s``).

2. **The checkpoint bounds the WAL** (paper §5.2.2: the nightly
   ``mrbackup`` plus the journal of changes since).  An
   ``E16_STORM_WRITES`` shell/finger rollover storm runs with a
   ``checkpoint()`` after every wave but the last.  Gate: retained
   entries, sampled just before each checkpoint, stay ≤ 2 × 64 + 64;
   the WAL-bytes trajectory stays flat; recovery from the last
   checkpoint + the WAL is byte-identical to the primary on the
   ``memory`` and ``sqlite`` backends.  A replica a checkpoint
   truncated past resyncs from a snapshot (``test_replication.py``
   ``test_checkpoint_past_lagging_replica_forces_resync``).

The record lands in ``benchmarks/results/E16.json``.

Env knobs (CI smoke uses tiny values): E16_USERS, E16_STORM_WRITES,
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
from repro.db.journal import Journal
from repro.db.recovery import checkpoint, recover
from repro.db.schema import build_database
from repro.workload import PopulationSpec, load_population

USERS = int(os.environ.get("E16_USERS", "100000"))
STORM_WRITES = int(os.environ.get("E16_STORM_WRITES", "100000"))
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


def _timed_build(users: int, *, per_row: bool):
    db = build_database()
    spec = PopulationSpec.design_point(users)
    started = time.perf_counter()
    load_population(db, spec, per_row=per_row)
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
        db_s, t_ser = _timed_build(users, per_row=True)
        ser = _dump(db_s, tmp_path / f"build-serial-{users}")
        started = time.perf_counter()
        checkpoint(db_s, Journal(), tmp_path / f"checkpoint-{users}")
        t_ckpt = time.perf_counter() - started
        del db_s
        gc.collect()
        db_p, t_par = _timed_build(users, per_row=False)
        par = _dump(db_p, tmp_path / f"build-parallel-{users}")
        del db_p
        gc.collect()
        trajectory[str(users)] = {
            "serial_s": round(t_ser, 2),
            "parallel_s": round(t_par, 2),
            "speedup": round(t_ser / t_par, 2),
            "checkpoint_s": round(t_ckpt, 2),
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


# -- part 2: the checkpoint-bounded WAL -----------------------------------------

STORM_USERS = 200
STORM_LOGINS = 64


def _storm_config(backend: str, workdir: Path) -> DeploymentConfig:
    kwargs = dict(
        population=PopulationSpec(users=STORM_USERS,
                                  unregistered_users=10, nfs_servers=4,
                                  maillists=10, clusters=2,
                                  machines_per_cluster=2, printers=4,
                                  network_services=10),
        wal_path=workdir / "wal",
    )
    if backend != "memory":
        kwargs["backend"] = backend
        kwargs["backend_path"] = str(workdir / f"world.{backend}")
    return DeploymentConfig(**kwargs)


def _checkpointed_storm(backend: str, tmp_path: Path) -> dict:
    """Rollover churn bounded by the checkpoint: N waves of shell +
    finger updates over a fixed login set, a ``checkpoint()`` after
    every wave but the last.  The WAL must stay ~flat while total
    writes grow; recovery from the last checkpoint + the WAL (the last
    wave) must reproduce the primary byte for byte."""
    workdir = tmp_path / f"storm-{backend}"
    workdir.mkdir()
    d = AthenaDeployment(_storm_config(backend, workdir))
    admin = d.handles.logins[-1]
    d.make_admin(admin)
    client = d.direct_client(admin)
    checkpoint(d.db, d.journal, workdir / "snap")

    logins = d.handles.logins[:STORM_LOGINS]
    shells = ["/bin/sh", "/usr/athena/tcsh", "/bin/csh"]
    waves = max(1, STORM_WRITES // (len(logins) * 2))
    trajectory = []
    checkpoint_s = []
    writes = 0
    for wave in range(waves):
        for i, login in enumerate(logins):
            client.query("update_user_shell", login,
                         shells[(wave + i) % 3])
            client.query("update_finger_by_login", login,
                         f"Wave {wave} User {i}", "", "", "",
                         "", "", "", "staff")
            writes += 2
        stats = d.journal.stats()
        trajectory.append({"writes": writes,
                           "entries": stats["entries_retained"],
                           "wal_bytes": stats["wal_bytes"]})
        if wave < waves - 1:
            started = time.perf_counter()
            checkpoint(d.db, d.journal, workdir / "snap")
            checkpoint_s.append(time.perf_counter() - started)

    most = max(point["entries"] for point in trajectory)
    assert most <= 2 * len(logins) + 64, (
        f"{backend}: WAL not bounded — {most} entries before a "
        f"checkpoint for {writes} writes")
    assert trajectory[-1]["wal_bytes"] <= 2 * trajectory[0]["wal_bytes"], (
        f"{backend}: WAL bytes still growing with write count: "
        f"{trajectory[0]} -> {trajectory[-1]}")

    # the process dies here: the last checkpoint + the WAL must
    # rebuild the exact primary
    primary = _dump(d.db, workdir / "primary-dump")
    d.server.shutdown()
    started = time.perf_counter()
    if backend == "memory":
        rec = recover(workdir / "snap", wal_path=workdir / "wal")
    else:
        from repro.db.backend import create_backend
        fresh = create_backend(backend,
                               str(workdir / f"recovered.{backend}"))
        rec = recover(workdir / "snap", wal_path=workdir / "wal",
                      db=fresh)
    recover_s = time.perf_counter() - started
    assert rec.replayed == trajectory[-1]["entries"]
    assert _dump(rec.db, workdir / "recover-dump") == primary, (
        f"{backend}: recovery from the last checkpoint + WAL diverged")
    checkpoint_s.sort()
    return {"writes": writes, "checkpoints": len(checkpoint_s),
            "max_entries_before_checkpoint": most,
            "final_wal_bytes": trajectory[-1]["wal_bytes"],
            "wal_bytes_range": [min(p["wal_bytes"] for p in trajectory),
                                max(p["wal_bytes"] for p in trajectory)],
            "checkpoint_p50_s": round(
                checkpoint_s[len(checkpoint_s) // 2], 4)
            if checkpoint_s else 0.0,
            "recover_s": round(recover_s, 4)}


def test_e16_million_scale(tmp_path):
    build = _bench_build(tmp_path)

    storm = {backend: _checkpointed_storm(backend, tmp_path)
             for backend in ("memory", "sqlite")}

    lines = [
        f"E16: the {USERS // 1000}k design point "
        "(build + checkpoint-bounded WAL)",
        "build trajectory (serial vs parallel, one process):",
    ] + [
        f"  {int(users):>8} users: serial {row['serial_s']:>7.2f}s  "
        f"parallel {row['parallel_s']:>7.2f}s  "
        f"speedup {row['speedup']:.2f}x  "
        f"checkpoint {row['checkpoint_s']:.2f}s"
        for users, row in sorted(build["points"].items(),
                                 key=lambda kv: int(kv[0]))
    ] + [
        f"build gate: {build['speedup']:.2f}x "
        f"(required {MIN_BUILD_SPEEDUP}x), worlds byte-identical",
    ] + [
        f"storm ({backend}): {row['writes']} writes, "
        f"{row['checkpoints']} checkpoints, "
        f"<= {row['max_entries_before_checkpoint']} WAL entries before "
        f"each, final WAL {row['final_wal_bytes']} B, recover "
        f"{row['recover_s']:.3f}s, byte-identical"
        for backend, row in storm.items()
    ]
    section = {
        "users": USERS,
        "build": build,
        "build_speedup": build["speedup"],
        "min_build_speedup_required": MIN_BUILD_SPEEDUP,
        "build_byte_identical": True,
        "storm": storm,
    }
    record("E16", section, lines)
    assert build["speedup"] >= MIN_BUILD_SPEEDUP, (
        f"parallel build speedup {build['speedup']:.2f}x < required "
        f"{MIN_BUILD_SPEEDUP}x")
