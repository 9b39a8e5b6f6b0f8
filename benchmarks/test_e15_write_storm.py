"""E15 — write-path scale-out: sharded writer locks + group commit.

The seed write path ran every mutation under one global exclusive
lock with one fsync each — fine for the paper's ~10k-user campus,
fsync-bound and serialised at the 100k design point this PR targets.
E15 drives a registration storm (``register_user``, spanning all
three writer shards), a semester rollover (``update_user_status``,
users shard only), and machine churn (``add_machine``, machines +
quota shards) concurrently against the write path at the 100k-user
point: per-shard writer locks, group-committed windows of up to 8
sharing one fsync and one simulated backend round trip.

Reported: absolute writes/s, fsyncs and mean window size.  (The 2.4x
in EXPERIMENTS.md was measured at PR 7 against ``write_shards=False,
write_batch=0``, a mode that no longer exists; there is no second arm
to take a ratio against.)  Two oracles ride along:

1. **journal order** — commit seqs in the WAL are strictly increasing
   even though shards committed concurrently (the commit-gate
   invariant; ``replay_wal`` additionally asserts it during recovery);
2. **recovery byte-identity** — ``mrbackup`` of the post-storm
   primary equals a dump of checkpoint + WAL replay into a fresh
   database, byte for byte (id bindings reproduce the allocation
   trajectory past interleaved and aborted writers).

Part 2 is the batch-boundary crash sweep (E12 discipline): torn
writes inside commit windows and ``ServerCrash`` at the
``journal.batch_flush`` fsync point, swept across boundaries on the
``memory`` and ``sqlite`` backends; every run must recover + resume
to a state byte-identical to a never-crashed oracle.

Results land in ``benchmarks/results/BENCH_writes.json`` and
``benchmarks/results/E15.txt``.

Env knobs (CI smoke uses tiny values): E15_USERS, E15_REG,
E15_ROLLOVER, E15_MACHINES, E15_THREADS, E15_WORKERS, E15_LATENCY,
E15_CRASH_BOUNDARIES.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

from benchmarks.conftest import (
    BENCH_WRITES_JSON,
    record_bench_to,
    write_result,
)
from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.backup import mrbackup
from repro.db.journal import Journal
from repro.db.recovery import checkpoint, recover
from repro.errors import MoiraError
from repro.protocol.wire import MajorRequest, decode_reply, encode_request
from repro.queries.base import QueryContext, execute_query
from repro.sim.faults import FaultInjector, ServerCrash
from repro.workload import PopulationSpec

USERS = int(os.environ.get("E15_USERS", "100000"))
REG = int(os.environ.get("E15_REG", "1200"))
ROLLOVER = int(os.environ.get("E15_ROLLOVER", "1200"))
MACHINES = int(os.environ.get("E15_MACHINES", "600"))
THREADS = int(os.environ.get("E15_THREADS", "4"))  # per workload class
WORKERS = int(os.environ.get("E15_WORKERS", "12"))
LATENCY = float(os.environ.get("E15_LATENCY", "0.002"))
CRASH_BOUNDARIES = int(os.environ.get("E15_CRASH_BOUNDARIES", "24"))


# -- part 1: the 100k write storm ---------------------------------------------


def _build_world(tmp_path: Path) -> AthenaDeployment:
    config = DeploymentConfig(
        population=PopulationSpec.design_point(USERS),
        server_workers=WORKERS,
        wal_path=tmp_path / "wal",
    )
    d = AthenaDeployment(config)
    d.db.sim_backend_latency = LATENCY
    return d


def _storm_plans(d: AthenaDeployment) -> list[list[list[str]]]:
    """One request plan per client thread, covering three write mixes.

    Registration targets come from the unregistered registrar tape
    (status-0 accounts) — their uids drive ``register_user``; the
    rollover deactivates a slice of active users; machine churn adds
    bench-private hosts.  Every target is thread-private, so the final
    state is independent of interleaving.
    """
    unregistered = d.db.table("users").select({"status": 0})
    assert len(unregistered) >= REG, "not enough registrar-tape users"
    reg_uids = [u["uid"] for u in unregistered[:REG]]
    rollover_logins = d.handles.logins[:ROLLOVER]

    plans: list[list[list[str]]] = []
    for t in range(THREADS):
        plans.append([["register_user", str(uid), f"e15r{i}", "1"]
                      for i, uid in enumerate(reg_uids)
                      if i % THREADS == t])
    for t in range(THREADS):
        plans.append([["update_user_status", login, "3"]
                      for i, login in enumerate(rollover_logins)
                      if i % THREADS == t])
    for t in range(THREADS):
        plans.append([["add_machine", f"E15M{i}.MIT.EDU", "VAX"]
                      for i in range(MACHINES) if i % THREADS == t])
    return plans


def _run_storm(d: AthenaDeployment, plans, admin: str) -> float:
    """Drive every plan through the server worker pool; returns the
    wall time of the slowest client (bounds completion)."""
    conn_ids = []
    for i in range(len(plans)):
        conn_id = d.server.open_connection("e15")
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
                if code not in (0,):
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


def _dump(db, directory: Path) -> dict[str, bytes]:
    mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _run_storm_world(tmp_path: Path) -> dict:
    workdir = tmp_path / "storm"
    workdir.mkdir()
    d = _build_world(workdir)
    plans = _storm_plans(d)
    # the admin principal is minted before the checkpoint so its ACL
    # membership is in the snapshot, not a WAL entry under test
    admin = d.handles.logins[-1]
    d.make_admin(admin)
    watermark = checkpoint(d.db, d.journal, workdir / "snap")

    wall = _run_storm(d, plans, admin)
    d.server.shutdown()
    d.journal.close()

    writes = sum(len(p) for p in plans)
    # oracle 1: WAL order is commit-seq order, storms notwithstanding
    seqs = [e.commit_seq for e in d.journal.entries if e.commit_seq]
    assert len(seqs) >= writes
    assert all(a < b for a, b in zip(seqs, seqs[1:])), (
        "journal not in commit-seq order")

    # oracle 2: checkpoint + WAL replay reproduces the primary's bytes
    primary = _dump(d.db, workdir / "primary-dump")
    rec = recover(workdir / "snap", wal_path=workdir / "wal")
    replayed = _dump(rec.db, workdir / "replay-dump")
    assert replayed == primary, "replay diverged from the primary"

    wal_stats = d.journal.stats()
    return {
        "writes": writes,
        "wall_s": wall,
        "wps": writes / wall,
        "watermark": watermark,
        "replayed": rec.replayed,
        "fsyncs": wal_stats["fsyncs"],
        "appends": wal_stats["appends"],
        "mean_batch":
            d.server._write_batcher.occupancy()["mean_batch_size"],
        "shard_waits": d.server.metrics.shard_waits(),
    }


# -- part 2: batch-boundary crash sweep ---------------------------------------

SWEEP_USERS = 200
SWEEP_WRITES = 48
SWEEP_SHELLS = ["/bin/sh", "/usr/athena/tcsh", "/bin/csh"]


def _sweep_config(backend: str, workdir: Path, *,
                  wal: bool) -> DeploymentConfig:
    kwargs = dict(
        population=PopulationSpec(users=SWEEP_USERS,
                                  unregistered_users=10, nfs_servers=4,
                                  maillists=10, clusters=2,
                                  machines_per_cluster=2, printers=4,
                                  network_services=10),
        server_workers=0,       # inline frames: crashes hit the caller
    )
    if wal:
        kwargs["wal_path"] = workdir / "wal"
    if backend != "memory":
        kwargs["backend"] = backend
        kwargs["backend_path"] = str(workdir / f"world.{backend}")
    return DeploymentConfig(**kwargs)


def _sweep_mutations(d: AthenaDeployment) -> list[list[str]]:
    """Distinct-target idempotent updates: any lost suffix or window
    can be re-applied in any order and land on the oracle state."""
    logins = d.handles.logins[:SWEEP_WRITES]
    return [["update_user_shell", login, SWEEP_SHELLS[i % 3]]
            for i, login in enumerate(logins)]


def _apply_as_admin(db, clock, admin: str, query: list[str]) -> None:
    """Apply one mutation exactly as the server's write path stamps it
    (modby = the admin principal, modwith = the bench connection)."""
    ctx = QueryContext(db=db, clock=clock, caller=admin, client="e15",
                       privileged=True)
    execute_query(ctx, query[0], query[1:])


def _sweep_oracle(backend: str, tmp_path: Path) -> dict[str, bytes]:
    workdir = tmp_path / f"{backend}-oracle"
    workdir.mkdir()
    d = AthenaDeployment(_sweep_config(backend, workdir, wal=False))
    admin = d.handles.logins[-1]
    d.make_admin(admin)
    for query in _sweep_mutations(d):
        _apply_as_admin(d.db, d.clock, admin, query)
    dump = _dump(d.db, workdir / "dump")
    d.server.shutdown()
    return dump


def _crash_sweep(backend: str, boundaries: int, tmp_path: Path) -> int:
    oracle = _sweep_oracle(backend, tmp_path)
    kinds = ("batch_flush", "torn")
    for boundary in range(1, boundaries + 1):
        kind = kinds[boundary % len(kinds)]
        workdir = tmp_path / f"{backend}-{kind}-{boundary}"
        workdir.mkdir()
        d = AthenaDeployment(_sweep_config(backend, workdir, wal=True))
        muts = _sweep_mutations(d)
        admin = d.handles.logins[-1]
        d.make_admin(admin)
        checkpoint(d.db, d.journal, workdir / "snap")
        # arm faults only after the snapshot: the boundary count starts
        # at the storm's first journal append
        faults = FaultInjector()
        if kind == "batch_flush":
            faults.crash_server("journal.batch_flush", at_call=boundary)
        else:
            faults.tear_write("journal.write", at_call=boundary)
        d.journal.faults = faults
        dead = threading.Event()
        crashes: list[BaseException] = []

        def client(plan) -> None:
            conn_id = d.server.open_connection("e15")
            d.server._connections[conn_id].principal = admin
            for query in plan:
                if dead.is_set():
                    return
                body = encode_request(MajorRequest.QUERY, query)[4:]
                try:
                    d.server.handle_frame(conn_id, body)
                except ServerCrash as exc:
                    crashes.append(exc)
                    dead.set()
                    return

        threads = [threading.Thread(target=client,
                                    args=(muts[t::4],))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        d.server.shutdown()

        if crashes or dead.is_set():
            # dead process: recover from checkpoint + surviving WAL
            # into a fresh backend, then the "operator" re-runs the
            # whole schedule (idempotent; the WAL made some durable)
            if backend == "memory":
                rec = recover(workdir / "snap",
                              wal_path=workdir / "wal")
            else:
                from repro.db.backend import create_backend
                fresh = create_backend(
                    backend, str(workdir / f"recovered.{backend}"))
                rec = recover(workdir / "snap",
                              wal_path=workdir / "wal", db=fresh)
            db = rec.db
            for query in muts:
                try:
                    _apply_as_admin(db, d.clock, admin, query)
                except MoiraError:
                    pass    # the WAL already made it durable
        else:
            db = d.db
        got = _dump(db, workdir / "dump")
        assert got == oracle, (
            f"{backend}: divergence after {kind} crash "
            f"at boundary {boundary}")
    return boundaries


def test_e15_write_storm(tmp_path):
    sharded = _run_storm_world(tmp_path)

    sweeps = {}
    for backend in ("memory", "sqlite"):
        sweeps[backend] = _crash_sweep(backend, CRASH_BOUNDARIES,
                                       tmp_path)

    shard_lines = [
        f"  shard {name:<10} waits {row['waits']:>6}  "
        f"p50 {row['wait_p50_us']:>7} us  p99 {row['wait_p99_us']:>7} us"
        for name, row in sorted(sharded["shard_waits"].items())]
    lines = [
        f"E15: write storm at the {USERS // 1000}k design point "
        f"({REG} registrations + {ROLLOVER} rollover + "
        f"{MACHINES} machines, {THREADS * 3} clients, "
        f"backend latency {LATENCY * 1000:.1f} ms)",
        f"{'mode':<10}{'writes':>8}{'wall s':>9}{'writes/s':>10}"
        f"{'fsyncs':>8}{'batch':>7}",
        f"{'sharded':<10}{sharded['writes']:>8}"
        f"{sharded['wall_s']:>9.2f}{sharded['wps']:>10.0f}"
        f"{sharded['fsyncs']:>8}{sharded['mean_batch']:>7.1f}",
        "oracles: WAL in commit-seq order, checkpoint+replay "
        "byte-identical to the primary",
        f"crash sweep: {CRASH_BOUNDARIES} batch boundaries x "
        "{torn, batch_flush} x {memory, sqlite}, all byte-identical "
        "through recover+resume",
    ] + shard_lines
    section = {
        "users": USERS,
        "registrations": REG,
        "rollover": ROLLOVER,
        "machines": MACHINES,
        "clients": THREADS * 3,
        "sim_backend_latency_s": LATENCY,
        "sharded_wps": round(sharded["wps"], 1),
        "sharded_fsyncs": sharded["fsyncs"],
        "sharded_mean_batch": round(sharded["mean_batch"], 2),
        "journal_commit_seq_ordered": True,
        "replay_byte_identical": True,
        "crash_sweep": {
            "boundaries": CRASH_BOUNDARIES,
            "kinds": ["torn", "batch_flush"],
            "backends": sorted(sweeps),
            "byte_identical": True,
        },
        "shard_waits": {
            name: {k: row[k] for k in
                   ("waits", "wait_p50_us", "wait_p99_us")}
            for name, row in sharded["shard_waits"].items()},
    }
    write_result("E15", lines)
    record_bench_to(BENCH_WRITES_JSON, "e15_write_storm", section)
