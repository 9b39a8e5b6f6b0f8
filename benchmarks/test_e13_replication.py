"""E13 — horizontal read scale-out with WAL-shipped replicas.

Phase A (the gate): closed-loop read throughput, N client threads each
driving a :class:`~repro.client.lib.ReplicaSet` router.  Two modes over
identically seeded worlds:

* ``primary_only`` — no replicas configured; every read lands on the
  primary's worker pool.
* ``replicated`` — ``E13_REPLICAS`` read replicas, each with its own
  worker pool and its own copy of the database; the router spreads
  side-effect-free queries across them round-robin.

``Database.sim_backend_latency`` models the INGRES backend round trip
(as in E10), held under each database's lock — so each replica is an
independent unit of read capacity, exactly the paper's motivation for
read scale-out.  Per-client row streams are hashed and compared across
modes: a replica-served read must return byte-identical rows to the
primary-served one.

Phase B: read-your-writes under injected feed lag — the session token
forces MR_BUSY on stale replicas and the router falls through to the
primary; the read never time-travels.

Results land in ``benchmarks/results/E13.txt`` and
``benchmarks/results/BENCH_replication.json``.

Env knobs (CI smoke uses tiny values): E13_CLIENTS, E13_REQUESTS,
E13_LATENCY, E13_WORKERS, E13_REPLICAS, E13_MIN_SPEEDUP.  E13_TCP=1
runs both modes over real sockets (every node behind a
:class:`~repro.protocol.transport.TcpServerTransport`; routers dial
TCP) — the failover-suite shape of the same gate.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time

from benchmarks.conftest import (
    BENCH_REPLICATION_JSON,
    record_bench_to,
    write_result,
)
from repro.core import AthenaDeployment, DeploymentConfig
from repro.errors import MoiraError, MR_ABORTED
from repro.sim.faults import FaultInjector
from repro.workload import PopulationSpec

CLIENTS = int(os.environ.get("E13_CLIENTS", "16"))
REQUESTS = int(os.environ.get("E13_REQUESTS", "30"))
LATENCY = float(os.environ.get("E13_LATENCY", "0.010"))
WORKERS = int(os.environ.get("E13_WORKERS", "4"))
REPLICAS = int(os.environ.get("E13_REPLICAS", "3"))
MIN_SPEEDUP = float(os.environ.get("E13_MIN_SPEEDUP", "2.5"))
TCP = os.environ.get("E13_TCP", "0") not in ("", "0")

BENCH_MACHINES = 64

POPULATION = dict(users=40, unregistered_users=0, nfs_servers=2,
                  maillists=5, clusters=1, machines_per_cluster=2,
                  printers=2, network_services=5)


def _build_world(replicas: int) -> AthenaDeployment:
    d = AthenaDeployment(DeploymentConfig(
        population=PopulationSpec(**POPULATION),
        server_workers=WORKERS,
        replicas=replicas,
        replica_workers=WORKERS,
        replica_tcp=TCP))
    direct = d.direct_client()
    for k in range(BENCH_MACHINES):
        direct.query("add_machine", f"BENCH{k}.MIT.EDU", "VAX")
    if d.replica_cluster is not None:
        d.replica_cluster.sync_all()     # pull the BENCH rows across
        for replica in d.replica_cluster.replicas:
            replica.db.sim_backend_latency = LATENCY
    d.db.sim_backend_latency = LATENCY
    return d


def _read_plan(client: int) -> list[str]:
    return [f"BENCH{(client * 7 + j * 3) % BENCH_MACHINES}.MIT.EDU"
            for j in range(REQUESTS)]


def _run_mode(replicas: int) -> tuple[float, list[str], dict]:
    """One measurement on a fresh world.

    Returns (requests/sec, per-client row digests, routing stats).
    """
    d = _build_world(replicas)
    primary_transport = None
    if replicas:
        routers = [d.replica_cluster.replica_set(pooled=True, seed=i)
                   for i in range(CLIENTS)]
    else:
        from repro.client.lib import MoiraClient, ReplicaSet
        if TCP:
            from repro.protocol.transport import TcpServerTransport
            primary_transport = TcpServerTransport(d.server,
                                                   port=0).start()
            routers = [ReplicaSet(MoiraClient(
                tcp_address=primary_transport.address).connect())
                for _ in range(CLIENTS)]
        else:
            routers = [ReplicaSet(MoiraClient(dispatcher=d.server,
                                              pooled=True).connect())
                       for _ in range(CLIENTS)]
    plans = [_read_plan(i) for i in range(CLIENTS)]
    digests = [hashlib.sha256() for _ in range(CLIENTS)]
    errors: list[Exception] = []

    # untimed warmup: fault in compiled plans, worker threads, and the
    # pooled-connection machinery before the clock starts
    def warm(i: int) -> None:
        for name in plans[i][:2]:
            routers[i].query("get_machine", name)

    warmers = [threading.Thread(target=warm, args=(i,))
               for i in range(CLIENTS)]
    for t in warmers:
        t.start()
    for t in warmers:
        t.join(timeout=120)
    for router in routers:
        router.reset_stats()

    def client(i: int) -> None:
        try:
            for name in plans[i]:
                rows = routers[i].query("get_machine", name)
                digests[i].update(repr(rows).encode())
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    elapsed = time.perf_counter() - start
    stats = {"reads_replica": 0, "reads_primary": 0, "fallthroughs": 0,
             "ejections": 0}
    for router in routers:
        for key in stats:
            stats[key] += router.stats()[key]
        router.close()
    if d.replica_cluster is not None:
        d.replica_cluster.stop()
    if primary_transport is not None:
        primary_transport.stop()
    d.server.shutdown()
    assert not errors, errors[:3]
    rps = CLIENTS * REQUESTS / elapsed
    return rps, [digest.hexdigest() for digest in digests], stats


def _phase_b_read_your_writes() -> dict:
    """Feed partition: the token falls the read through to the primary."""
    faults = FaultInjector()
    d = AthenaDeployment(DeploymentConfig(
        population=PopulationSpec(**POPULATION),
        replicas=2, staleness_budget=0.05, faults=faults))
    admin = d.handles.logins[0]
    d.make_admin(admin)
    rs = d.replica_set_client(admin)
    faults.fail("repl.tail", MoiraError(MR_ABORTED, "partitioned"),
                times=-1)
    rs.query("add_machine", "E13RYW.MIT.EDU", "VAX")
    rows = rs.query("get_machine", "E13RYW.MIT.EDU")
    stats = rs.stats()
    rs.close()
    d.replica_cluster.stop()
    d.server.shutdown()
    assert rows[0][0] == "E13RYW.MIT.EDU", "read-your-writes violated"
    assert stats["fallthroughs"] >= 1
    return {"read_saw_write": True,
            "fallthroughs": stats["fallthroughs"],
            "ejections": stats["ejections"]}


def test_e13_replication_scaleout():
    lines = [
        "E13: horizontal read scale-out "
        f"({CLIENTS} clients x {REQUESTS} reads, "
        f"backend latency {LATENCY * 1000:.2f} ms, "
        f"{WORKERS} workers/pool, {REPLICAS} replicas, "
        f"transport {'tcp' if TCP else 'inproc'})",
        f"{'mode':<16}{'rps':>10}{'replica':>9}{'primary':>9}",
    ]
    base_rps, base_digests, base_stats = _run_mode(0)
    repl_rps, repl_digests, repl_stats = _run_mode(REPLICAS)
    # a replica-served read returns byte-identical rows
    assert repl_digests == base_digests, "reply drift via replicas"
    assert base_stats["reads_replica"] == 0
    assert repl_stats["reads_replica"] == CLIENTS * REQUESTS
    speedup = repl_rps / base_rps
    lines.append(f"{'primary_only':<16}{base_rps:>10.0f}"
                 f"{base_stats['reads_replica']:>9}"
                 f"{base_stats['reads_primary']:>9}")
    lines.append(f"{'replicated':<16}{repl_rps:>10.0f}"
                 f"{repl_stats['reads_replica']:>9}"
                 f"{repl_stats['reads_primary']:>9}")
    lines.append(f"speedup: {speedup:.2f}x "
                 f"(gate: >= {MIN_SPEEDUP}x)")

    ryw = _phase_b_read_your_writes()
    lines.append(f"read-your-writes under feed partition: "
                 f"served by primary after {ryw['fallthroughs']} "
                 f"fallthrough(s), {ryw['ejections']} ejection(s)")

    write_result("E13", lines)
    record_bench_to(BENCH_REPLICATION_JSON, "e13_replication", {
        "clients": CLIENTS,
        "requests_per_client": REQUESTS,
        "sim_backend_latency_s": LATENCY,
        "workers_per_pool": WORKERS,
        "replicas": REPLICAS,
        "transport": "tcp" if TCP else "inproc",
        "primary_only_rps": round(base_rps, 1),
        "replicated_rps": round(repl_rps, 1),
        "speedup": round(speedup, 2),
        "min_speedup_required": MIN_SPEEDUP,
        "byte_identical_replies": True,
        "read_your_writes": ryw,
    })
    assert speedup >= MIN_SPEEDUP, (
        f"replicated speedup {speedup:.2f}x < required {MIN_SPEEDUP}x")
