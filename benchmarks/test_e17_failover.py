"""E17 — failover latency over the TCP replica tier.

The design point: a 10,000-user world served by one TCP primary and two
TCP replicas, a stream of acknowledged writes in flight, and then the
primary's transport is stopped cold — the kill is a real socket-level
death, not a flag.  The measurement decomposes the outage as a client
would feel it:

* **detection** — a monitor probing ``_repl_status`` over TCP notices
  the primary stopped answering;
* **promotion** — the coordinator salvages the dead primary's durable
  WAL into the candidate, fences the old epoch, and flips the candidate
  to a full primary on a fresh epoch-owning journal
  (:class:`~repro.replication.failover.PromotionRecord` carries the
  per-step timings);
* **first committed write** — the router's probe sweep re-points its
  write target and the retried write commits on the new primary.

Correctness gates (asserted, not just reported): zero acknowledged
writes lost across the kill, the fenced old primary accepts zero writes
afterwards (journal seq frozen), and the surviving replica follows the
new primary to full convergence.

The record lands in ``benchmarks/results/E17.json``.

Env knobs (CI smoke uses tiny values): E17_USERS (design point 10000),
E17_WRITES.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from pathlib import Path

from benchmarks.conftest import record
from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.journal import Journal
from repro.errors import MoiraError, MR_FENCED
from repro.protocol.transport import connect_tcp
from repro.protocol.wire import MajorRequest
from repro.workload import PopulationSpec

USERS = int(os.environ.get("E17_USERS", "10000"))
PRE_WRITES = int(os.environ.get("E17_WRITES", "40"))

POPULATION = dict(users=USERS, unregistered_users=0, nfs_servers=4,
                  maillists=8, clusters=2, machines_per_cluster=2,
                  printers=2, network_services=4)


def _machine_exists(db, name: str) -> bool:
    return db.table("machine").count({"name": name}) > 0


def test_e17_failover_latency():
    with tempfile.TemporaryDirectory() as tmp:
        d = AthenaDeployment(DeploymentConfig(
            population=PopulationSpec(**POPULATION),
            replicas=2,
            replica_tcp=True, staleness_budget=0.1,
            wal_path=Path(tmp) / "primary-wal"))
        cluster = d.replica_cluster
        admin = d.handles.logins[0]
        d.make_admin(admin)
        rs = d.replica_set_client(admin)

        # the acknowledged write stream; replicas lag behind on purpose
        # so salvage (not the feed) must close the gap
        acked = []
        for k in range(PRE_WRITES):
            name = f"E17PRE{k}.MIT.EDU"
            rs.query("add_machine", name, "VAX")
            acked.append(name)
        lag = d.journal.current_seq() - min(r.applied_seq
                                            for r in cluster.replicas)

        # the monitor: TCP probes against the primary's status endpoint
        primary_address = cluster.primary_transport.address
        detected = threading.Event()
        detect_at = [0.0]

        def monitor():
            while not detected.is_set():
                try:
                    conn = connect_tcp(*primary_address, timeout=1.0)
                    replies = conn.call(MajorRequest.QUERY,
                                        ["_repl_status"])
                    conn.close()
                    if replies[-1].code != 0:
                        raise MoiraError(replies[-1].code)
                except (MoiraError, OSError):
                    detect_at[0] = time.perf_counter()
                    detected.set()
                    return
                time.sleep(0.002)

        threading.Thread(target=monitor, daemon=True).start()
        time.sleep(0.02)                      # a few healthy probes
        assert not detected.is_set()

        kill_at = time.perf_counter()
        cluster.primary_transport.stop()      # the kill
        assert detected.wait(5.0), "monitor never noticed the kill"
        detection_s = detect_at[0] - kill_at

        coordinator = cluster.coordinator()
        candidate = cluster.replicas[0]
        promotion = coordinator.promote(
            candidate,
            journal=Journal(path=Path(tmp) / "promoted-wal"),
            feed_factory=cluster.feed_factory_for(candidate),
            credentials=cluster.feed_credentials(),
            catch_up_feed=False)              # the primary is dead
        promoted_at = time.perf_counter()

        # first committed write: the router's probe sweep finds the new
        # primary; the failed attempt is retried once re-pointed
        first_commit_s = None
        for _ in range(50):
            try:
                rs.query("add_machine", "E17POST.MIT.EDU", "VAX")
                first_commit_s = time.perf_counter() - kill_at
                break
            except MoiraError:
                continue
        assert first_commit_s is not None, "no write committed post-kill"

        # zero acknowledged writes lost
        lost = [name for name in acked
                if not _machine_exists(candidate.db, name)]
        assert not lost, f"lost acknowledged writes: {lost[:5]}"
        assert _machine_exists(candidate.db, "E17POST.MIT.EDU")

        # the fenced old primary accepts nothing, its seq is frozen
        seq_before = d.journal.current_seq()
        accepted = 0
        stale = d.client_for(admin, "pw")
        for k in range(3):
            try:
                stale.query("add_machine", f"E17STALE{k}.MIT.EDU", "VAX")
                accepted += 1
            except MoiraError as exc:
                assert exc.code == MR_FENCED
        stale.close()
        assert accepted == 0
        assert d.journal.current_seq() == seq_before

        # the survivor follows the new primary to convergence
        survivor = cluster.replicas[1]
        target = candidate.server.journal.current_seq()
        assert survivor.wait_for_seq(target, budget=10.0), \
            f"survivor stuck at {survivor.applied_seq} < {target}"
        assert survivor.epoch == promotion.epoch

        rs.close()
        cluster.stop()
        d.server.shutdown()

    detection_ms = detection_s * 1000
    promotion_ms = promotion.total_s * 1000
    first_commit_ms = first_commit_s * 1000
    lines = [
        f"E17: fenced failover over TCP ({USERS} users, 2 replicas, "
        f"{PRE_WRITES} acked writes, replica lag {lag} entries at kill)",
        f"detection (TCP status probe, 2ms cadence): "
        f"{detection_ms:.1f} ms",
        f"promotion: {promotion_ms:.1f} ms "
        f"(salvage {promotion.salvaged_entries} entries "
        f"{promotion.catch_up_s * 1000:.1f} ms, "
        f"fence {promotion.fence_s * 1000:.1f} ms, "
        f"promote {promotion.promote_s * 1000:.1f} ms) "
        f"-> epoch {promotion.epoch}",
        f"kill -> first committed write on new primary: "
        f"{first_commit_ms:.1f} ms",
        "zero acknowledged writes lost; fenced primary accepted 0 "
        "writes; survivor converged",
    ]
    record("E17", {
        "users": USERS,
        "replicas": 2,
        "acked_writes": PRE_WRITES,
        "replica_lag_entries_at_kill": lag,
        "detection_ms": round(detection_ms, 2),
        "promotion_ms": round(promotion_ms, 2),
        "salvaged_entries": promotion.salvaged_entries,
        "catch_up_ms": round(promotion.catch_up_s * 1000, 2),
        "fence_ms": round(promotion.fence_s * 1000, 2),
        "promote_ms": round(promotion.promote_s * 1000, 2),
        "first_committed_write_ms": round(first_commit_ms, 2),
        "epoch": promotion.epoch,
        "zero_lost_acked_writes": True,
        "fenced_primary_writes_accepted": 0,
    }, lines)
