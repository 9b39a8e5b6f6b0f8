"""E16 — the last 10x: parallel build, uid sub-shards, WAL compaction.

The 1M-user design point stresses three places the 100k write path
never did: building the world (the serial loader extrapolates to ~10
minutes at 1M), the single ``users`` writer shard (a registration
storm serialises every account mutation behind one lock), and the
unbounded WAL (a semester of shell/finger churn keeps every
superseded record forever).  E16 gates the three fixes together:

1. **Parallel population build** — ``load_population(parallel=True)``
   partitions each bulk stage across a worker pool with per-partition
   derived RNGs and pre-reserved id ranges.  Gate: ≥
   ``E16_MIN_BUILD_SPEEDUP`` (default 4x) over the serial loader at
   ``E16_USERS``, with the built worlds **byte-identical** under an
   ``mrbackup`` dump of both.  The serial/parallel ``build_seconds``
   trajectory per design point lands in ``BENCH_scale.json``.

2. **Uid-range user sub-shards** — ``user_subshards=N`` splits the
   ``users`` writer lock into N uid-bucket locks; commit-window
   lanes key on the touched bucket set, so shell/finger waves against
   disjoint uid ranges commit concurrently.  Gate: registration-storm
   throughput ≥ ``E16_MIN_STORM_SPEEDUP`` (default 1.8x) with
   ``E16_SUBSHARDS`` sub-shards vs the single users shard, with the
   E15 oracles intact (WAL in commit-seq order, checkpoint + replay
   byte-identical to the primary).

3. **WAL compaction** — ``Journal.compact()`` folds superseded
   shell/finger records.  Gate: WAL bytes stay bounded across a
   ``E16_COMPACT_WRITES`` rollover storm (final WAL ≪ the uncompacted
   trajectory), crash-boundary recovery from checkpoint + compacted
   WAL is byte-identical on the ``memory`` and ``sqlite`` backends,
   and compaction respects replica pins: the default ``compact_wal``
   never strands a lagging replica, while ``force=True`` past its pin
   makes the replica **resync** (not corrupt) and converge.

Results land in ``benchmarks/results/BENCH_scale.json`` and
``benchmarks/results/E16.txt``.

Env knobs (CI smoke uses tiny values): E16_USERS, E16_SUBSHARDS,
E16_STORM_USERS, E16_STORM_WRITES, E16_LATENCY, E16_COMPACT_WRITES,
E16_MIN_BUILD_SPEEDUP, E16_MIN_STORM_SPEEDUP.
"""

from __future__ import annotations

import gc
import hashlib
import os
import threading
import time
from pathlib import Path

from benchmarks.conftest import (
    BENCH_SCALE_JSON,
    record_bench_to,
    write_result,
)
from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.backup import mrbackup
from repro.db.recovery import checkpoint, recover
from repro.db.schema import USER_SUBSHARD_SPAN, build_database
from repro.protocol.wire import MajorRequest, decode_reply, encode_request
from repro.workload import PopulationSpec, load_population

USERS = int(os.environ.get("E16_USERS", "100000"))
SUBSHARDS = int(os.environ.get("E16_SUBSHARDS", "8"))
STORM_USERS = int(os.environ.get("E16_STORM_USERS", "4000"))
STORM_WRITES = int(os.environ.get("E16_STORM_WRITES", "1600"))
LATENCY = float(os.environ.get("E16_LATENCY", "0.02"))
COMPACT_WRITES = int(os.environ.get("E16_COMPACT_WRITES", "100000"))
MIN_BUILD_SPEEDUP = float(os.environ.get("E16_MIN_BUILD_SPEEDUP", "4.0"))
MIN_STORM_SPEEDUP = float(os.environ.get("E16_MIN_STORM_SPEEDUP", "1.8"))
WORKERS = 12


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


# -- part 2: uid sub-shard registration storm ----------------------------------


def _storm_world(tmp_path: Path, subshards: int) -> AthenaDeployment:
    config = DeploymentConfig(
        population=PopulationSpec.design_point(STORM_USERS),
        server_workers=WORKERS,
        wal_path=tmp_path / "wal",
        user_subshards=subshards,
    )
    d = AthenaDeployment(config)
    d.db.sim_backend_latency = LATENCY
    return d


def _storm_plans(d: AthenaDeployment, buckets: int) -> list[list[list[str]]]:
    """One plan per uid bucket: shell/finger waves on that bucket's
    logins plus a minority registration slice.  Bucket-disjoint targets
    mean sub-sharded mode can overlap every client's backend round
    trip; the single-shard baseline serialises them all."""
    users = d.db.table("users")
    by_bucket: dict[int, list[str]] = {b: [] for b in range(buckets)}
    for login in d.handles.logins:
        row = users.select({"login": login})[0]
        by_bucket[(row["uid"] // USER_SUBSHARD_SPAN) % buckets].append(login)
    unregistered = users.select({"status": 0})
    per_plan = max(1, STORM_WRITES // buckets)
    n_reg = max(1, per_plan // 16)

    plans = []
    for b in range(buckets):
        targets = by_bucket[b]
        assert targets, f"uid bucket {b} has no logins at {STORM_USERS}"
        plan: list[list[str]] = []
        for i in range(per_plan - n_reg):
            login = targets[i % len(targets)]
            if i % 2 == 0:
                plan.append(["update_user_shell", login,
                             "/usr/athena/tcsh" if i % 4 else "/bin/sh"])
            else:
                plan.append(["update_finger_by_login", login,
                             f"Bench User {i}", "bench", "", "",
                             f"E40-{i:03d}", "", "", "student"])
        regs = unregistered[b::buckets][:n_reg]
        plan.extend(["register_user", str(u["uid"]), f"e16r{b}x{j}", "1"]
                    for j, u in enumerate(regs))
        plans.append(plan)
    return plans


def _run_storm(d: AthenaDeployment, plans, admin: str) -> float:
    conn_ids = []
    for _ in plans:
        conn_id = d.server.open_connection("e16")
        d.server._connections[conn_id].principal = admin
        conn_ids.append(conn_id)
    elapsed = [0.0] * len(plans)
    errors: list[BaseException] = []
    gate = threading.Barrier(len(plans))

    def client(i: int) -> None:
        try:
            gate.wait(timeout=60)
            started = time.perf_counter()
            for query in plans[i]:
                body = encode_request(MajorRequest.QUERY, query)[4:]
                done = threading.Event()
                replies: list[bytes] = []
                d.server.submit_frame(
                    conn_ids[i], body,
                    lambda r, acc=replies: (acc.append(r), True)[1],
                    done.set)
                if not done.wait(timeout=300):
                    raise TimeoutError(f"client {i} stalled on {query}")
                code = decode_reply(replies[-1][4:]).code
                if code != 0:
                    raise AssertionError(f"{query} -> code {code}")
            elapsed[i] = time.perf_counter() - started
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(len(plans))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=900)
    assert not errors, errors[:3]
    return max(elapsed)


def _storm_mode(subshards: int, tmp_path: Path) -> dict:
    workdir = tmp_path / f"storm-{subshards}"
    workdir.mkdir()
    d = _storm_world(workdir, subshards)
    plans = _storm_plans(d, SUBSHARDS)
    admin = d.handles.logins[-1]
    d.make_admin(admin)
    checkpoint(d.db, d.journal, workdir / "snap")

    wall = _run_storm(d, plans, admin)
    d.server.shutdown()
    d.journal.close()

    writes = sum(len(p) for p in plans)
    seqs = [e.commit_seq for e in d.journal.entries if e.commit_seq]
    assert len(seqs) >= writes
    assert all(a < b for a, b in zip(seqs, seqs[1:])), (
        f"{subshards} sub-shards: journal not in commit-seq order")

    primary = _dump(d.db, workdir / "primary-dump")
    rec = recover(workdir / "snap", wal_path=workdir / "wal")
    assert _dump(rec.db, workdir / "replay-dump") == primary, (
        f"{subshards} sub-shards: replay diverged from the primary")
    return {"writes": writes, "wall_s": wall, "wps": writes / wall,
            "row_counts": {n: len(t) for n, t in d.db.tables.items()}}


# -- part 3: WAL compaction ----------------------------------------------------

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

    single = _storm_mode(0, tmp_path)
    sharded = _storm_mode(SUBSHARDS, tmp_path)
    assert sharded["row_counts"] == single["row_counts"], (
        "storm modes diverged in table row counts")
    storm_speedup = sharded["wps"] / single["wps"]

    compaction = {backend: _compact_storm(backend, tmp_path)
                  for backend in ("memory", "sqlite")}
    pins = _compact_replica_pins(tmp_path)

    lines = [
        f"E16: the {USERS // 1000}k design point "
        f"(build + {SUBSHARDS} uid sub-shards + WAL compaction)",
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
        f"storm: {single['writes']} writes, "
        f"{single['wps']:.0f} w/s single shard vs "
        f"{sharded['wps']:.0f} w/s with {SUBSHARDS} sub-shards "
        f"= {storm_speedup:.2f}x (required {MIN_STORM_SPEEDUP}x)",
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
        "subshards": SUBSHARDS,
        "storm_users": STORM_USERS,
        "sim_backend_latency_s": LATENCY,
        "build": build,
        "build_speedup": build["speedup"],
        "min_build_speedup_required": MIN_BUILD_SPEEDUP,
        "build_byte_identical": True,
        "single_wps": round(single["wps"], 1),
        "subshard_wps": round(sharded["wps"], 1),
        "storm_speedup": round(storm_speedup, 2),
        "min_storm_speedup_required": MIN_STORM_SPEEDUP,
        "journal_commit_seq_ordered": True,
        "replay_byte_identical": True,
        "compaction": compaction,
        "replica_pins": pins,
    }
    write_result("E16", lines)
    record_bench_to(BENCH_SCALE_JSON, "e16_million_scale", section)
    assert build["speedup"] >= MIN_BUILD_SPEEDUP, (
        f"parallel build speedup {build['speedup']:.2f}x < required "
        f"{MIN_BUILD_SPEEDUP}x")
    assert storm_speedup >= MIN_STORM_SPEEDUP, (
        f"sub-shard storm speedup {storm_speedup:.2f}x < required "
        f"{MIN_STORM_SPEEDUP}x")
