"""Fenced-failover chaos suite: the full-topology crash matrix.

The tentpole invariants, each provoked deliberately and repeatedly:

* **Zero lost committed writes** — every write the client saw ack'd
  before the primary died is present on the promoted primary, whether
  it arrived there by feed or by WAL salvage.
* **Byte identity** — after the failover completes and the write script
  finishes on the new primary, an mrbackup dump equals the dump of a
  world that never crashed at all.
* **Fencing** — the old primary, fenced below the new cluster epoch,
  accepts *zero* writes afterwards (refused at admission, before any
  handler runs) and its journal seq never moves.
* **Split-brain guard** — a replica that followed the promotion refuses
  a zombie (stale-epoch) feed outright.
* **Feed auth** — with a KDC present, `_repl_snapshot`/`_repl_tail`
  answer ``MR_PERM`` to anyone but the ``repl`` service principal.

The seeded sweep crashes the primary at *every* group-commit boundary
of a fixed 12-write script, crossed with five topology modes (fresh
candidate, lagging candidate, torn final WAL record, partitioned feed
with the old primary still alive, and a heal-back cycle) — 50 scenarios,
each ending byte-identical to the never-crashed oracle.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import pytest

from repro.client.lib import MoiraClient, ReplicaSet
from repro.db.backup import mrbackup
from repro.db.journal import Journal
from repro.db.schema import build_database
from repro.errors import (
    MoiraError,
    KRB_BAD_PASSWORD,
    MR_ABORTED,
    MR_FENCED,
    MR_PERM,
)
from repro.kerberos.kdc import KDC
from repro.protocol.transport import connect_inproc
from repro.protocol.wire import MajorRequest, decode_reply, encode_request
from repro.queries.base import QueryContext, execute_query
from repro.replication.failover import FailoverCoordinator
from repro.replication.feed import REPL_SERVICE_PRINCIPAL
from repro.replication.replica import ReplicaServer
from repro.server import MoiraServer, seed_capacls
from repro.sim.clock import DEFAULT_EPOCH, Clock
from repro.sim.faults import FaultInjector, ServerCrash

BASE = DEFAULT_EPOCH + 2000

# the fixed write script: every scenario runs exactly this, so every
# scenario can be compared to one never-crashed oracle
N_WRITES = 12
SCRIPT = [(i, f"CHAOS{i}.MIT.EDU") for i in range(1, N_WRITES + 1)]


def write_when(wnum: int) -> int:
    return BASE + 1000 + wnum * 10


# -- world builders ------------------------------------------------------------


def chaos_world(wal_path=None, *, faults=None):
    """A primary world: schema db + capacls + admin, seeded pre-WAL."""
    db = build_database()
    clock = Clock()
    clock.set(BASE)
    seed_capacls(db)
    ctx = QueryContext(db=db, clock=clock, caller="root", client="seed",
                       privileged=True)
    for i in range(4):
        execute_query(ctx, "add_user",
                      [f"fo{i}", str(7600 + i), "/bin/csh", f"Last{i}",
                       "First", "", "1", f"mit{i}", "1990"])
    execute_query(ctx, "add_member_to_list",
                  ["moira-admins", "USER", "fo3"])
    kdc = KDC(clock)
    journal = Journal(path=wal_path, faults=faults)
    server = MoiraServer(db, clock, kdc, journal=journal)
    return SimpleNamespace(db=db, clock=clock, kdc=kdc, journal=journal,
                           server=server)


def repl_creds(kdc):
    return kdc.kinit_keytab(REPL_SERVICE_PRINCIPAL,
                            kdc.srvtab(REPL_SERVICE_PRINCIPAL))


def make_replica(world, name, **kw):
    kw.setdefault("feed_credentials", repl_creds(world.kdc))
    return ReplicaServer(
        world.clock,
        feed_factory=lambda: connect_inproc(world.server,
                                            peer=f"{name}-feed"),
        kdc=world.kdc, name=name, **kw)


def admin_conn(server):
    conn_id = server.open_connection("test")
    server._connections[conn_id].principal = "fo3"
    return conn_id


def send(server, conn_id, args):
    frame = encode_request(MajorRequest.QUERY, args)[4:]
    replies = server.handle_frame(conn_id, frame)
    return decode_reply(replies[-1][4:]).code


def machine_exists(db, name) -> bool:
    return db.table("machine").count({"name": name}) > 0


def dump(db, directory):
    mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """The never-crashed world: the whole script, no faults."""
    world = chaos_world()
    cid = admin_conn(world.server)
    for wnum, name in SCRIPT:
        world.clock.set(write_when(wnum))
        assert send(world.server, cid, ["add_machine", name, "VAX"]) == 0
    return dump(world.db, tmp_path_factory.mktemp("oracle"))


# -- epoch + fencing unit tests ------------------------------------------------


class TestEpochDurability:
    def test_epoch_header_survives_load(self, tmp_path):
        wal = tmp_path / "wal"
        journal = Journal(path=wal)
        journal.set_epoch(3)
        journal.record(BASE, "root", "add_user", ("a",))
        journal.close()
        loaded = Journal.load(wal)
        assert loaded.epoch == 3
        assert len(loaded.entries) == 1

    def test_epoch_one_leaves_wal_bytes_seedlike(self, tmp_path):
        wal = tmp_path / "wal"
        journal = Journal(path=wal)
        journal.record(BASE, "root", "add_user", ("a",))
        journal.close()
        # no header line at the default epoch: seed-era WAL files are
        # byte-identical, and old readers never see an unknown line
        lines = journal.segment_files()[0][1].read_text().splitlines()
        assert len(lines) == 1
        assert "_hdr" not in lines[0]
        assert Journal.load(wal).epoch == 1

    def test_set_epoch_is_monotonic(self):
        journal = Journal()
        journal.set_epoch(4)
        with pytest.raises(ValueError):
            journal.set_epoch(2)
        assert journal.epoch == 4
        journal.set_epoch(4)    # same epoch is a no-op, not an error

    def test_fence_refuses_sync_and_fsync_appends(self):
        journal = Journal()
        journal.record(BASE, "root", "q", ())
        assert journal.fence(5)
        assert journal.fenced and journal.fenced_by == 5
        with pytest.raises(MoiraError) as err:
            journal.sync()
        assert err.value.code == MR_FENCED
        with pytest.raises(MoiraError) as err:
            journal.record(BASE + 1, "root", "q", ())
        assert err.value.code == MR_FENCED
        assert journal.current_seq() == 1

    def test_fence_below_own_epoch_is_a_noop(self):
        journal = Journal()
        journal.set_epoch(6)
        assert not journal.fence(6)
        assert not journal.fenced
        journal.record(BASE, "root", "q", ())

    def test_owning_the_fencing_epoch_lifts_the_fence(self):
        journal = Journal()
        journal.fence(3)
        journal.set_epoch(3)
        assert not journal.fenced
        journal.record(BASE, "root", "q", ())


class TestServerFencing:
    def test_fenced_admission_refuses_before_any_handler(self):
        world = chaos_world()
        cid = admin_conn(world.server)
        assert send(world.server, cid,
                    ["add_machine", "FW0.MIT.EDU", "VAX"]) == 0
        world.journal.fence(2)
        seq = world.journal.current_seq()
        code = send(world.server, cid,
                    ["add_machine", "FW1.MIT.EDU", "VAX"])
        assert code == MR_FENCED
        assert not machine_exists(world.db, "FW1.MIT.EDU")
        assert world.journal.current_seq() == seq

    def test_fence_mid_window_fails_the_group_commit_lane(self):
        """Fencing lands between admission and the batch's sync():
        the whole window fails with MR_FENCED and nothing fsyncs."""
        world = chaos_world()
        cid = admin_conn(world.server)
        faults = FaultInjector()
        faults.call("journal.record",
                    lambda ctx: world.journal.fence(9), times=1)
        world.journal.faults = faults
        code = send(world.server, cid,
                    ["add_machine", "FW2.MIT.EDU", "VAX"])
        assert code == MR_FENCED
        assert world.journal.fenced_by == 9

    def test_fenced_role_visible_in_status_and_stats(self):
        world = chaos_world()
        cid = admin_conn(world.server)
        frame = encode_request(MajorRequest.QUERY, ["_repl_status"])[4:]
        replies = world.server.handle_frame(cid, frame)
        row = decode_reply(replies[0][4:]).str_fields()
        assert (row[0], row[3]) == ("primary", "1")
        world.journal.fence(4)
        replies = world.server.handle_frame(cid, frame)
        assert decode_reply(replies[0][4:]).str_fields()[0] == "fenced"
        stats_frame = encode_request(MajorRequest.QUERY,
                                     ["_query_stats"])[4:]
        rows = [decode_reply(r[4:]).str_fields()
                for r in world.server.handle_frame(cid, stats_frame)[:-1]]
        by_key = {r[0]: r[1] for r in rows if len(r) == 2}
        assert by_key["_repl.role"] == "fenced"
        assert by_key["_repl.epoch"] == "1"
        assert by_key["_repl.fenced_by"] == "4"


# -- feed authentication -------------------------------------------------------


class TestFeedAuth:
    def _pull_code(self, world, query, principal):
        cid = world.server.open_connection("probe")
        if principal:
            world.server._connections[cid].principal = principal
        frame = encode_request(MajorRequest.QUERY, query)[4:]
        replies = world.server.handle_frame(cid, frame)
        return decode_reply(replies[-1][4:]).code

    def test_unauthenticated_pulls_answer_mr_perm(self):
        world = chaos_world()
        assert self._pull_code(world, ["_repl_snapshot"], "") == MR_PERM
        assert self._pull_code(world, ["_repl_tail", "0"], "") == MR_PERM

    def test_wrong_principal_answers_mr_perm(self):
        world = chaos_world()
        # even an authenticated admin is not the repl service
        assert self._pull_code(world, ["_repl_snapshot"],
                               "fo3") == MR_PERM

    def test_repl_principal_is_admitted(self):
        world = chaos_world()
        assert self._pull_code(world, ["_repl_snapshot"], "repl") == 0
        assert self._pull_code(world, ["_repl_tail", "0"], "repl") == 0

    def test_status_probe_stays_open(self):
        world = chaos_world()
        assert self._pull_code(world, ["_repl_status"], "") == 0

    def test_replica_with_credentials_syncs(self):
        world = chaos_world()
        replica = make_replica(world, "authed")
        assert replica.step() == 0
        assert replica.snapshots_loaded == 1

    def test_replica_without_credentials_is_refused(self):
        world = chaos_world()
        replica = make_replica(world, "anon", feed_credentials=None)
        with pytest.raises(MoiraError) as err:
            replica.step()
        assert err.value.code == MR_PERM

    def test_kinit_keytab_rejects_a_wrong_key(self):
        world = chaos_world()
        with pytest.raises(MoiraError) as err:
            world.kdc.kinit_keytab(REPL_SERVICE_PRINCIPAL, b"forged")
        assert err.value.code == KRB_BAD_PASSWORD

    def test_serverless_kdc_leaves_feed_open(self):
        """A journal-only primary without a KDC keeps the open feed
        (the unit-test enclave shape from earlier PRs)."""
        db = build_database()
        clock = Clock()
        server = MoiraServer(db, clock, journal=Journal())
        cid = server.open_connection("anon")
        frame = encode_request(MajorRequest.QUERY, ["_repl_snapshot"])[4:]
        assert decode_reply(
            server.handle_frame(cid, frame)[-1][4:]).code == 0


# -- promotion mechanics -------------------------------------------------------


class TestPromotion:
    def _world_with_replicas(self, tmp_path, n_writes=5):
        world = chaos_world(tmp_path / "wal")
        cid = admin_conn(world.server)
        for wnum, name in SCRIPT[:n_writes]:
            world.clock.set(write_when(wnum))
            assert send(world.server, cid,
                        ["add_machine", name, "VAX"]) == 0
        r0 = make_replica(world, "r0")
        r1 = make_replica(world, "r1")
        r0.step()
        return world, r0, r1

    def test_promote_bumps_epoch_and_serves_writes(self, tmp_path):
        world, r0, r1 = self._world_with_replicas(tmp_path)
        coord = FailoverCoordinator(world.server, [r0, r1],
                                    primary_wal=tmp_path / "wal")
        rec = coord.promote(
            r0, journal=Journal(path=tmp_path / "wal-promoted"),
            feed_factory=lambda: connect_inproc(r0.server),
            credentials=repl_creds(world.kdc))
        assert rec.epoch == 2
        assert rec.fenced_old_primary
        assert r0.role == "primary"
        assert r0.server.role == "primary"
        assert r0.server.journal.epoch == 2
        # seq numbering continues: read-your-writes tokens survive
        assert r0.server.journal.current_seq() == r0.applied_seq
        cid = admin_conn(r0.server)
        world.clock.set(write_when(6))
        assert send(r0.server, cid,
                    ["add_machine", "POST0.MIT.EDU", "VAX"]) == 0
        assert r0.server.journal.entries[-1].seq == r0.applied_seq + 1
        assert rec.retargeted == ["r1"]
        assert r1.step() >= 0     # retargeted survivor follows

    def test_lagging_candidate_salvages_the_wal(self, tmp_path):
        world, r0, r1 = self._world_with_replicas(tmp_path)
        # r1 never stepped: everything must come from the shared WAL
        coord = FailoverCoordinator(world.server, [r0, r1],
                                    primary_wal=tmp_path / "wal")
        behind = r1.applied_seq
        rec = coord.promote(r1, catch_up_feed=False)
        assert rec.salvaged_entries == 5 - behind
        assert r1.applied_seq == 5
        for _, name in SCRIPT[:5]:
            assert machine_exists(r1.db, name)

    def test_zombie_feed_is_refused_by_epoch_guard(self, tmp_path):
        world, r0, r1 = self._world_with_replicas(tmp_path)
        coord = FailoverCoordinator(world.server, [r0, r1],
                                    primary_wal=tmp_path / "wal")
        coord.promote(r0, feed_factory=lambda: connect_inproc(r0.server),
                      credentials=repl_creds(world.kdc))
        r1.step()
        assert r1.epoch == 2
        # the old primary comes back as a zombie at epoch 1: refused
        r1.retarget(lambda: connect_inproc(world.server),
                    credentials=repl_creds(world.kdc))
        with pytest.raises(MoiraError) as err:
            r1.step()
        assert err.value.code == MR_FENCED

    def test_promote_is_idempotent(self, tmp_path):
        world, r0, r1 = self._world_with_replicas(tmp_path)
        epoch = r0.promote()
        assert r0.promote() == epoch

    def test_heal_rejoins_as_replica_of_the_new_primary(self, tmp_path):
        world, r0, r1 = self._world_with_replicas(tmp_path)
        coord = FailoverCoordinator(world.server, [r0, r1],
                                    primary_wal=tmp_path / "wal")
        coord.promote(r0)
        healed = coord.heal(lambda: connect_inproc(r0.server),
                            name="healed",
                            credentials=repl_creds(world.kdc),
                            kdc=world.kdc)
        assert healed.applied_seq == r0.applied_seq
        assert healed.epoch == 2
        assert healed in coord.replicas
        assert dump(healed.db, tmp_path / "h") == \
            dump(r0.db, tmp_path / "p")


class TestReplicaSetFailover:
    def _router_world(self, tmp_path):
        world = chaos_world(tmp_path / "wal")
        world.kdc.add_principal("fo3", "pw")
        r0 = make_replica(world, "r0")
        r0.step()

        def client(dispatcher):
            c = MoiraClient(dispatcher=dispatcher, kdc=world.kdc,
                            credentials=world.kdc.kinit("fo3", "pw"),
                            clock=world.clock, busy_retries=0)
            c.connect()
            c.auth("test")
            return c

        router = ReplicaSet(client(world.server), [client(r0.server)])
        return world, r0, router

    def test_fenced_write_fails_over_and_retries(self, tmp_path):
        world, r0, router = self._router_world(tmp_path)
        world.clock.set(write_when(1))
        router.query("add_machine", "RS1.MIT.EDU", "VAX")
        r0.step()
        # the operator promotes r0; the old primary is fenced
        coord = FailoverCoordinator(world.server, [r0],
                                    primary_wal=tmp_path / "wal")
        coord.promote(r0, catch_up_feed=True)
        world.clock.set(write_when(2))
        # MR_FENCED from the old primary: probed, re-pointed, retried
        router.query("add_machine", "RS2.MIT.EDU", "VAX")
        assert router.failovers == 1
        assert machine_exists(r0.db, "RS2.MIT.EDU")
        assert not machine_exists(world.db, "RS2.MIT.EDU")
        # read-your-writes token kept advancing across the switch
        assert router.min_seq == r0.server.journal.current_seq()

    def test_reads_still_work_after_failover(self, tmp_path):
        world, r0, router = self._router_world(tmp_path)
        coord = FailoverCoordinator(world.server, [r0],
                                    primary_wal=tmp_path / "wal")
        coord.promote(r0, catch_up_feed=True)
        world.clock.set(write_when(1))
        router.query("add_machine", "RS3.MIT.EDU", "VAX")
        rows = router.query("get_machine", "RS3.MIT.EDU")
        assert rows and rows[0][0] == "RS3.MIT.EDU"

    def test_no_primary_anywhere_reraises(self, tmp_path):
        world, r0, router = self._router_world(tmp_path)
        world.journal.fence(7)    # fenced, but nobody was promoted
        world.clock.set(write_when(1))
        with pytest.raises(MoiraError) as err:
            router.query("add_machine", "RS4.MIT.EDU", "VAX")
        assert err.value.code == MR_FENCED
        assert router.failovers == 0


# -- the seeded chaos sweep ----------------------------------------------------

# crash/partition boundaries: one per group-commit window of the script
BOUNDARIES = list(range(1, 11))
MODES = ("fresh", "lagging", "torn", "partition", "heal")


class TestChaosSweep:
    """5 modes x 10 boundaries = 50 seeded fault scenarios, every one
    ending byte-identical to the never-crashed oracle with zero lost
    committed writes and zero writes accepted by the fenced primary."""

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("mode", MODES)
    def test_scenario(self, mode, boundary, tmp_path, oracle):
        faults = FaultInjector(seed=boundary)
        wal = tmp_path / "wal-primary"
        world = chaos_world(wal, faults=faults)
        r0 = make_replica(world, "r0")            # fresh follower
        r1 = make_replica(world, "r1")            # lagging follower
        r0.step()
        r1.step()

        if mode == "torn":
            # crash mid-write: a torn prefix of record #boundary lands
            faults.tear_write("journal.write", at_call=boundary)
        elif mode != "partition":
            # die inside the group-commit window's durability point
            faults.crash_server("journal.batch_flush", at_call=boundary)

        candidate = r1 if mode in ("lagging", "partition") else r0
        coord = FailoverCoordinator(world.server, [r0, r1],
                                    primary_wal=wal, faults=faults)

        def do_promote(catch_up_feed):
            return coord.promote(
                candidate,
                journal=Journal(path=tmp_path / "wal-promoted"),
                feed_factory=lambda: connect_inproc(
                    candidate.server, peer="retarget"),
                credentials=repl_creds(world.kdc),
                catch_up_feed=catch_up_feed)

        target = world.server
        cid = admin_conn(target)
        acked: list[str] = []
        promoted = False
        record = None

        for wnum, name in SCRIPT:
            when = write_when(wnum)
            world.clock.set(when)
            if mode == "partition" and wnum == boundary and not promoted:
                # the feed partitions away; operators promote the
                # lagging replica while the old primary still breathes
                faults.fail("repl.tail",
                            MoiraError(MR_ABORTED, "partitioned"),
                            times=1)
                record = do_promote(catch_up_feed=True)
                promoted = True
                self._assert_fenced(world, name)
                target = candidate.server
                cid = admin_conn(target)
                world.clock.set(when)
            try:
                code = send(target, cid, ["add_machine", name, "VAX"])
            except ServerCrash:
                assert not promoted, "second crash in a scenario"
                record = do_promote(catch_up_feed=False)
                promoted = True
                # zero-loss: every ack'd write made it across
                for prior in acked:
                    assert machine_exists(candidate.db, prior), \
                        f"lost committed write {prior} ({mode}/{boundary})"
                self._assert_fenced(world, name)
                target = candidate.server
                cid = admin_conn(target)
                # the crashed write was never ack'd: verify, then retry
                world.clock.set(when)
                if machine_exists(candidate.db, name):
                    code = 0
                else:
                    code = send(target, cid,
                                ["add_machine", name, "VAX"])
            assert code == 0, f"write {name} failed with {code}"
            acked.append(name)
            if not promoted:
                r0.step()
                if wnum % 3 == 0:
                    r1.step()

        assert promoted, "the injected fault never fired"
        assert record is not None and record.epoch == 2
        for name in (n for _, n in SCRIPT):
            assert machine_exists(candidate.db, name)
        got = dump(candidate.db, tmp_path / "got")
        assert got == oracle, f"diverged from oracle ({mode}/{boundary})"

        # the surviving follower converges on the new primary too
        survivor = r0 if candidate is r1 else r1
        survivor.step()
        survivor.step()
        assert survivor.applied_seq == \
            candidate.server.journal.current_seq()
        assert dump(survivor.db, tmp_path / "srv") == oracle

        if mode == "heal":
            healed = coord.heal(
                lambda: connect_inproc(candidate.server, peer="heal"),
                name="healed", credentials=repl_creds(world.kdc),
                kdc=world.kdc)
            assert healed.epoch == record.epoch
            assert dump(healed.db, tmp_path / "healed") == oracle

    def _assert_fenced(self, world, name):
        """The fenced old primary accepts zero writes, forever."""
        assert world.journal.fenced
        seq = world.journal.current_seq()
        cid = admin_conn(world.server)
        code = send(world.server, cid,
                    ["add_machine", f"STALE-{name}", "VAX"])
        assert code == MR_FENCED
        assert world.journal.current_seq() == seq
        assert not machine_exists(world.db, f"STALE-{name}")
