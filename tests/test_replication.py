"""Replication-tier tests: snapshot/tail byte-identity, idempotent
apply, freshness (read-your-writes), router ejection/re-probe, and the
crash/restart matrix on both sides of the feed.

The correctness oracle is the one ``tests/test_wal_recovery.py`` uses:
mrbackup dumps compared byte-for-byte.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import pytest

from repro.client.lib import MoiraClient, ReplicaSet
from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.journal import Journal
from repro.db.recovery import checkpoint, recover
from repro.db.schema import build_database
from repro.dcm.retry import RetryPolicy
from repro.errors import (
    MoiraError,
    MR_ABORTED,
    MR_BUSY,
    MR_DEADLOCK,
    MR_NO_MATCH,
    MR_PERM,
)
from repro.protocol.transport import connect_inproc
from repro.protocol.wire import MajorRequest, encode_request
from repro.replication.replica import ReplicaServer
from repro.server.moira_server import MoiraServer
from repro.sim.clock import DEFAULT_EPOCH, Clock
from repro.sim.faults import FaultInjector
from repro.workload import PopulationSpec

from tests.test_wal_recovery import apply_one, dump, mutations

BASE = DEFAULT_EPOCH + 1000

SMALL = dict(users=10, unregistered_users=2, nfs_servers=2, maillists=3,
             clusters=2, machines_per_cluster=2, printers=2,
             network_services=3)


def make_primary(**journal_kwargs):
    """A bare primary: database + journal + serving stack, no campus."""
    db = build_database()
    clock = Clock()
    journal = Journal(**journal_kwargs)
    server = MoiraServer(db, clock, journal=journal, workers=0)
    return SimpleNamespace(db=db, clock=clock, journal=journal,
                           server=server)


def make_replica(primary, **kw):
    return ReplicaServer(
        primary.clock,
        feed_factory=lambda: connect_inproc(primary.server),
        **kw)


def mutate(primary, muts, *, start=0):
    for i, (name, args) in enumerate(muts, start=start):
        apply_one(primary.db, primary.journal, primary.clock,
                  BASE + i * 10, name, args)


def add_machine(primary, name="FRAME0.MIT.EDU", *, at=500):
    apply_one(primary.db, primary.journal, primary.clock,
              BASE + at * 10, "add_machine", [name, "VAX"])


class TestSnapshotAndTail:
    def test_bootstrap_is_byte_identical(self, tmp_path):
        primary = make_primary()
        mutate(primary, mutations(6))
        replica = make_replica(primary)
        replica.step()
        assert replica.applied_seq == primary.journal.current_seq()
        assert replica.snapshots_loaded == 1
        assert dump(replica.db, tmp_path / "r") == \
            dump(primary.db, tmp_path / "p")

    def test_incremental_tail_is_byte_identical(self, tmp_path):
        primary = make_primary()
        muts = mutations(10)
        mutate(primary, muts[:4])
        replica = make_replica(primary)
        replica.step()
        mutate(primary, muts[4:], start=4)
        applied = replica.step()
        assert applied == 6
        assert replica.snapshots_loaded == 1     # tail only, no resync
        assert replica.entries_applied == 6
        assert dump(replica.db, tmp_path / "r") == \
            dump(primary.db, tmp_path / "p")

    def test_apply_is_idempotent_by_watermark(self, tmp_path):
        primary = make_primary()
        mutate(primary, mutations(5))
        replica = make_replica(primary)
        replica.step()
        before = dump(replica.db, tmp_path / "r1")
        # re-deliver the full tail (a feed retry after a lost ack)
        applied = replica._apply(list(primary.journal.entries))
        assert applied == 0
        assert dump(replica.db, tmp_path / "r2") == before

    def test_tail_respects_max_entries(self):
        primary = make_primary()
        muts = mutations(14)
        mutate(primary, muts[:8])
        replica = make_replica(primary)
        replica.sync_snapshot()      # watermark 8... make it lag:
        mutate(primary, muts[8:], start=8)
        assert replica.step(max_entries=2) == 2
        assert replica.applied_seq == 10
        assert replica.step() == 4
        assert replica.applied_seq == 14

    def test_version_vector_tracks_primary(self):
        primary = make_primary()
        mutate(primary, mutations(3))
        replica = make_replica(primary)
        replica.step()
        assert replica.primary_versions == primary.db.versions()
        role, seq, _versions, epoch = replica.status_tuple()
        assert (role, seq) == ("replica", str(replica.applied_seq))
        assert epoch == str(replica.epoch)


def test_failed_apply_is_retried_not_reported_out_of_order(
        tmp_path, monkeypatch):
    """A transient handler error must leave the commit-seq high-water
    behind the failed entry: the next pull re-offers it and it applies,
    instead of every later pull answering "out of commit order"."""
    from repro.queries import base as queries_base

    primary = make_primary()
    muts = mutations(5)
    mutate(primary, muts[:2])
    replica = make_replica(primary)
    replica.step()
    mutate(primary, muts[2:], start=2)

    real = queries_base.execute_query
    failures = [MoiraError(MR_DEADLOCK, "transient")]

    def flaky(ctx, name, args):
        if failures:
            raise failures.pop()
        return real(ctx, name, args)

    monkeypatch.setattr(queries_base, "execute_query", flaky)
    with pytest.raises(MoiraError) as caught:
        replica.step()
    assert caught.value.code == MR_DEADLOCK
    assert replica.applied_seq == 2
    assert replica.step() == 3
    assert replica.applied_seq == primary.journal.current_seq()
    assert dump(replica.db, tmp_path / "r") == \
        dump(primary.db, tmp_path / "p")


class TestReadOnlyServing:
    def test_replica_rejects_mutations(self):
        primary = make_primary()
        mutate(primary, mutations(2))
        replica = make_replica(primary)
        replica.step()
        client = MoiraClient(dispatcher=replica.server).connect()
        with pytest.raises(MoiraError) as err:
            client.query("add_machine", "X.MIT.EDU", "VAX")
        assert err.value.code == MR_PERM
        # ...even wrapped in the freshness gate
        with pytest.raises(MoiraError) as err:
            client.query("_repl_read", "0", "add_machine",
                         "Y.MIT.EDU", "VAX")
        assert err.value.code == MR_PERM
        client.close()

    def test_repl_read_frames_match_primary(self):
        """The replica's gated read answers byte-identical frames to
        the primary's plain query — the wire-level oracle."""
        primary = make_primary()
        mutate(primary, mutations(6))
        add_machine(primary)
        replica = make_replica(primary)
        replica.step()
        plain = encode_request(MajorRequest.QUERY,
                               ["get_machine", "FRAME0.MIT.EDU"])[4:]
        gated = encode_request(MajorRequest.QUERY,
                               ["_repl_read",
                                str(replica.applied_seq),
                                "get_machine", "FRAME0.MIT.EDU"])[4:]
        p_conn = primary.server.open_connection("oracle")
        r_conn = replica.server.open_connection("probe")
        p_frames = primary.server.handle_frame(p_conn, plain)
        r_frames = replica.server.handle_frame(r_conn, gated)
        assert p_frames == r_frames
        assert len(p_frames) >= 2    # at least one tuple + final status

    def test_primary_unwraps_repl_read(self):
        primary = make_primary()
        mutate(primary, mutations(3))
        add_machine(primary)
        client = MoiraClient(dispatcher=primary.server).connect()
        direct = client.query("get_machine", "FRAME0.MIT.EDU")
        wrapped = client.query("_repl_read", "999999",
                               "get_machine", "FRAME0.MIT.EDU")
        assert direct == wrapped     # any token is fresh on the primary
        client.close()

    def test_replica_behind_token_answers_busy(self):
        primary = make_primary()
        mutate(primary, mutations(3))
        replica = make_replica(primary, staleness_budget=0.02)
        replica.step()
        # sever the feed so the eager pull inside the gate cannot help
        replica._feed_factory = lambda: (_ for _ in ()).throw(
            MoiraError(MR_ABORTED, "partitioned"))
        replica._drop_feed()
        client = MoiraClient(dispatcher=replica.server,
                             busy_retries=0).connect()
        with pytest.raises(MoiraError) as err:
            client.query("_repl_read",
                         str(replica.applied_seq + 1),
                         "get_machine", "ANY.MIT.EDU")
        assert err.value.code == MR_BUSY
        client.close()


class TestCrashMatrix:
    def test_replica_restart_resyncs(self, tmp_path):
        primary = make_primary()
        muts = mutations(9)
        mutate(primary, muts[:5])
        replica = make_replica(primary)
        replica.step()
        replica.stop()       # the replica process dies; state is gone
        mutate(primary, muts[5:], start=5)
        reborn = make_replica(primary, name="reborn")
        reborn.step()
        assert reborn.applied_seq == primary.journal.current_seq()
        assert dump(reborn.db, tmp_path / "r") == \
            dump(primary.db, tmp_path / "p")

    def test_checkpoint_does_not_strand_fresh_replica(self, tmp_path):
        primary = make_primary(path=tmp_path / "wal")
        muts = mutations(10)
        mutate(primary, muts[:6])
        replica = make_replica(primary)
        replica.step()
        checkpoint(primary.db, primary.journal, tmp_path / "snap")
        mutate(primary, muts[6:], start=6)
        replica.step()
        assert replica.resyncs == 0      # the tail never gapped for it
        assert dump(replica.db, tmp_path / "r") == \
            dump(primary.db, tmp_path / "p")

    def test_checkpoint_past_lagging_replica_forces_resync(self, tmp_path):
        primary = make_primary(path=tmp_path / "wal")
        muts = mutations(12)
        mutate(primary, muts[:4])
        replica = make_replica(primary)
        replica.step()       # applied 4
        mutate(primary, muts[4:8], start=4)
        checkpoint(primary.db, primary.journal, tmp_path / "snap")
        mutate(primary, muts[8:], start=8)
        replica.step()       # tail reports the gap -> snapshot resync
        assert replica.resyncs == 1
        assert replica.snapshots_loaded == 2
        replica.step()       # next tail is contiguous
        assert replica.applied_seq == primary.journal.current_seq()
        assert dump(replica.db, tmp_path / "r") == \
            dump(primary.db, tmp_path / "p")

    def test_primary_restart_does_not_strand_replica(self, tmp_path):
        """Primary crashes and recovers via the PR 4 protocol; the
        replica's next pulls continue from its watermark unharmed."""
        wal = tmp_path / "wal"
        primary = make_primary(path=wal)
        box = {"server": primary.server}
        muts = mutations(12)
        mutate(primary, muts[:5])
        checkpoint(primary.db, primary.journal, tmp_path / "snap")
        mutate(primary, muts[5:9], start=5)
        replica = ReplicaServer(
            primary.clock,
            feed_factory=lambda: connect_inproc(box["server"]))
        replica.step()       # applied 9
        # -- crash: everything in memory is gone ------------------------
        primary.journal.close()
        rec = recover(tmp_path / "snap", wal_path=wal)
        journal = Journal.load(wal)
        restarted = MoiraServer(rec.db, Clock(), journal=journal,
                                workers=0)
        box["server"] = restarted
        replica._drop_feed()     # its old connection died with the crash
        clock = Clock()
        for j, (name, args) in enumerate(muts[9:], start=9):
            apply_one(rec.db, journal, clock, BASE + j * 10, name, args)
        replica.step()
        assert replica.resyncs == 0
        assert replica.applied_seq == journal.current_seq()
        assert dump(replica.db, tmp_path / "r") == \
            dump(rec.db, tmp_path / "p")

    def test_group_commit_rewind_forces_resync(self, tmp_path):
        """A primary that lost an un-fsync'd batch restarts *behind*
        the replica; the replica detects the rewind and rebuilds."""
        primary = make_primary()
        mutate(primary, mutations(8))
        replica = make_replica(primary)
        replica.step()       # applied 8
        # simulate the rewound primary: same feed, shorter history
        rewound = make_primary()
        mutate(rewound, mutations(5))
        replica._feed_factory = lambda: connect_inproc(rewound.server)
        replica._drop_feed()
        replica.step()
        assert replica.resyncs == 1
        assert replica.applied_seq == 5
        assert dump(replica.db, tmp_path / "r") == \
            dump(rewound.db, tmp_path / "p")


class TestReplicaSetRouting:
    @pytest.fixture()
    def world(self):
        d = AthenaDeployment(DeploymentConfig(
            population=PopulationSpec(**SMALL),
            replicas=2, server_workers=0,
            staleness_budget=0.05,
            faults=FaultInjector()))
        yield d
        d.replica_cluster.stop()
        d.server.shutdown()

    def test_reads_balance_and_writes_hit_primary(self, world):
        admin = world.handles.logins[0]
        world.make_admin(admin)
        rs = world.replica_set_client(admin)
        rs.query("add_machine", "RTR1.MIT.EDU", "VAX")
        for _ in range(4):
            rows = rs.query("get_machine", "RTR1.MIT.EDU")
            assert rows[0][0] == "RTR1.MIT.EDU"
        stats = rs.stats()
        assert stats["writes"] == 1
        assert stats["reads_replica"] == 4    # both replicas in rotation
        assert stats["reads_primary"] == 0
        assert stats["min_seq"] >= 1          # token advanced by write
        # the replicas really served it (freshness pulled them forward)
        for replica in world.replica_cluster.replicas:
            assert replica.applied_seq >= stats["min_seq"]
        rs.close()

    def test_read_your_writes_falls_through_under_lag(self, world):
        """Feed partition: replicas cannot catch up to the session
        token, answer MR_BUSY, and the router lands on the primary —
        the read still sees the write."""
        admin = world.handles.logins[0]
        world.make_admin(admin)
        rs = world.replica_set_client(admin)
        world.config.faults.fail(
            "repl.tail", MoiraError(MR_ABORTED, "partitioned"),
            times=-1)
        rs.query("add_machine", "RYW.MIT.EDU", "VAX")
        rows = rs.query("get_machine", "RYW.MIT.EDU")
        assert rows[0][0] == "RYW.MIT.EDU"    # never time-travels
        stats = rs.stats()
        assert stats["reads_primary"] == 1
        assert stats["fallthroughs"] == 1
        assert stats["ejections"] == 2        # both replicas ejected
        rs.close()

    def test_stale_replica_serves_old_reads_without_token(self, world):
        """A session that never wrote has min_seq 0: lagging replicas
        are still valid (monotonic reads are not promised, read-your-
        writes is)."""
        world.config.faults.fail(
            "repl.tail", MoiraError(MR_ABORTED, "partitioned"),
            times=-1)
        rs = world.replica_set_client()
        machine = world.handles.nfs_machines[0]
        rows = rs.query("get_machine", machine)
        assert rows[0][0] == machine
        assert rs.stats()["reads_replica"] == 1
        rs.close()

    def test_ejected_replica_is_reprobed_after_backoff(self, world):
        admin = world.handles.logins[0]
        world.make_admin(admin)
        fake = {"now": 0.0}
        policy = RetryPolicy(backoff_base=10.0, backoff_factor=2.0,
                             backoff_cap=100.0, jitter_frac=0.0,
                             breaker_threshold=3,
                             breaker_cooldown=50.0)
        rs = world.replica_cluster.replica_set(admin,
                                               retry_policy=policy)
        rs._time = lambda: fake["now"]
        machine = world.handles.nfs_machines[0]

        # kill replica 0's serving path (connection-level failure)
        slot = rs._slots[0]
        healthy_query = slot.client.query
        slot.client.query = lambda *a, **k: (_ for _ in ()).throw(
            MoiraError(MR_ABORTED, "dead replica"))

        rows = rs.query("get_machine", machine)   # probe 0, fail, use 1
        assert rows[0][0] == machine
        assert rs.stats() ["ejections"] == 1
        assert slot.next_attempt_at == pytest.approx(10.0)

        rs.query("get_machine", machine)          # inside backoff: skip
        assert rs.stats()["ejections"] == 1       # not re-attempted
        assert rs.stats()["probes"] == 0

        fake["now"] = 11.0                        # backoff elapsed
        rs.query("get_machine", machine)          # probe fails again
        assert rs.stats()["probes"] == 1
        assert rs.stats()["ejections"] == 2
        assert slot.next_attempt_at == pytest.approx(11.0 + 20.0)

        fake["now"] = 32.0
        rs.query("get_machine", machine)          # third strike: breaker
        assert slot.consecutive_failures == 3
        assert slot.next_attempt_at == pytest.approx(32.0 + 50.0)

        # the replica comes back; the next probe heals the slot
        slot.client.query = healthy_query
        fake["now"] = 83.0
        rs.query("get_machine", machine)
        assert slot.consecutive_failures == 0
        assert slot.next_attempt_at == 0.0
        rs.close()

    def test_real_answers_propagate(self, world):
        rs = world.replica_set_client()
        with pytest.raises(MoiraError) as err:
            rs.query("get_machine", "NOSUCH.MIT.EDU")
        assert err.value.code == MR_NO_MATCH
        # the replica answered it — no fallthrough to the primary
        assert rs.stats()["reads_primary"] == 0
        assert rs.query_maybe("get_machine", "NOSUCH.MIT.EDU") == []
        rs.close()

    def test_pump_threads_keep_replicas_fresh(self, world):
        admin = world.handles.logins[0]
        world.make_admin(admin)
        world.replica_cluster.start(interval=0.002)
        client = world.client_for(admin, "pw")
        client.query("add_machine", "PUMP.MIT.EDU", "VAX")
        target = world.journal.current_seq()
        deadline = threading.Event()
        for replica in world.replica_cluster.replicas:
            assert replica.wait_for_seq(target, budget=2.0), \
                f"{replica.name} stuck at {replica.applied_seq}"
        assert not deadline.is_set()
        client.close()


class TestSeedPathUnchanged:
    def test_default_deployment_has_no_replica_tier(self):
        d = AthenaDeployment(DeploymentConfig(
            population=PopulationSpec(**SMALL)))
        assert d.replica_cluster is None
        with pytest.raises(ValueError):
            d.replica_set_client()
        # the journal keeps the seed write-path default
        assert d.journal.rotate_segments is False
        d.server.shutdown()

    def test_replicaset_with_no_replicas_is_a_plain_client(self):
        primary = make_primary()
        mutate(primary, mutations(3))
        add_machine(primary, "SOLO.MIT.EDU")
        rs = ReplicaSet(MoiraClient(dispatcher=primary.server).connect())
        rows = rs.query("get_machine", "SOLO.MIT.EDU")
        assert rows[0][0] == "SOLO.MIT.EDU"
        stats = rs.stats()
        assert stats["reads_primary"] == 1
        assert stats["fallthroughs"] == 0     # no replicas configured
        rs.close()
