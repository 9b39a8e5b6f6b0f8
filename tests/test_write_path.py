"""Write-path scale-out tests: sharded writer locks, group-committed
batch windows, and bindings-driven WAL replay (docs/WRITE_PATH.md).

The engine half proves the locking discipline directly — disjoint
shards commit concurrently, cross-shard writers never deadlock,
commit hooks fire in exact commit-seq order, aborts roll data back
but leave system-table bindings behind.  The server half drives the
:class:`~repro.server.write_batch.WriteBatcher` through real frames:
error isolation inside a window, and a torn write mid-batch that must
recover + resume to the never-crashed oracle byte for byte.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.backend import create_backend
from repro.db.backup import mrbackup
from repro.db.journal import Journal
from repro.db.recovery import apply_bindings, checkpoint, recover, replay_wal
from repro.db.schema import build_database
from repro.errors import MoiraError
from repro.kerberos import KDC
from repro.protocol.wire import MajorRequest, decode_reply, encode_request
from repro.queries.base import QueryContext, execute_query
from repro.replication.feed import entry_from_tuple, entry_to_tuple
from repro.server import MoiraServer, seed_capacls
from repro.sim.clock import DEFAULT_EPOCH, Clock
from repro.sim.faults import FaultInjector, ServerCrash
from repro.workload import PopulationSpec

BASE = DEFAULT_EPOCH + 500


# -- the sharded engine --------------------------------------------------------


class TestShardedEngine:
    def test_schema_declares_standard_shards(self):
        db = build_database()
        assert set(db.shards) == {"users", "machines", "quota"}
        assert db._shard_of["users"] == "users"
        assert db._shard_of["machine"] == "machines"
        assert db._shard_of["nfsquota"] == "quota"
        # system tables belong to no shard
        assert "values" not in db._shard_of
        assert "strings" not in db._shard_of

    def test_unknown_shard_is_loud(self):
        db = build_database()
        with pytest.raises(MoiraError):
            with db.shard_txn(["users/9"]):
                pass

    def test_disjoint_shards_commit_concurrently(self):
        """A machines-shard writer commits while a users-shard
        transaction is still open — the seed's global lock forbade
        exactly this."""
        db = build_database()
        entered = threading.Event()
        release = threading.Event()
        committed_during: list[bool] = []

        def users_writer():
            with db.shard_txn(["users"]):
                db.table("users").insert(
                    {"login": "wp1", "users_id": 9001, "uid": 9001},
                    now=BASE)
                entered.set()
                release.wait(timeout=30)

        t = threading.Thread(target=users_writer)
        t.start()
        assert entered.wait(timeout=30)
        with db.shard_txn(["machines"]):
            db.table("machine").insert(
                {"name": "WP1.MIT.EDU", "mach_id": 9001, "type": "VAX"},
                now=BASE)
        committed_during.append(not release.is_set())
        release.set()
        t.join(timeout=30)
        assert committed_during == [True]
        assert db.table("machine").select({"name": "WP1.MIT.EDU"})
        assert db.table("users").select({"login": "wp1"})

    def test_cross_shard_writers_never_deadlock(self):
        """Writers naming overlapping shard pairs in opposite orders
        always make progress (locks are taken in sorted-name order
        regardless of how the caller spells the set)."""
        db = build_database()
        errors: list[BaseException] = []

        def spin(shards, mach_base):
            try:
                for i in range(25):
                    with db.shard_txn(shards):
                        db.table("machine").insert(
                            {"name": f"X{mach_base + i}.MIT.EDU",
                             "mach_id": mach_base + i, "type": "VAX"},
                            now=BASE)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=spin, args=(["users", "machines"], 100)),
            threading.Thread(target=spin, args=(["machines", "quota"], 200)),
            threading.Thread(target=spin, args=(["quota", "users",
                                                 "machines"], 300)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "deadlocked"
        assert not errors
        assert db.table("machine").count() == 75

    def test_commit_hooks_fire_in_commit_seq_order(self):
        """The publication gate runs each commit hook only after every
        earlier seq has published — the WAL-order invariant."""
        db = build_database()
        order: list[int] = []
        mutex = threading.Lock()

        def hook(txn):
            with mutex:
                order.append(txn.seq)

        def writer(shard, base):
            for i in range(20):
                with db.shard_txn([shard], commit_hook=hook):
                    db.table("machine" if shard == "machines"
                             else "nfsquota").insert(
                        {"name": f"H{base + i}.MIT.EDU",
                         "mach_id": base + i, "type": "VAX"}
                        if shard == "machines" else
                        {"users_id": base + i, "filsys_id": base + i,
                         "phys_id": 1, "quota": 1},
                        now=BASE)

        threads = [threading.Thread(target=writer, args=("machines", 500)),
                   threading.Thread(target=writer, args=("quota", 700))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(order) == 40
        assert order == sorted(order), "hooks fired out of commit order"
        assert order == list(range(order[0], order[0] + 40))

    def test_abort_rolls_back_rows_but_not_bindings(self):
        """An aborted writer's row changes vanish; the ids it drew from
        the system tables stay consumed and reach the abort hook as
        bindings (for the WAL's ``_aborted`` marker)."""
        db = build_database()
        hint_before = db.get_value("gid")
        seen: list[dict] = []

        with pytest.raises(RuntimeError):
            with db.shard_txn(["users"],
                              abort_hook=lambda txn: seen.append(
                                  txn.bindings)):
                db.table("users").insert(
                    {"login": "doomed", "users_id": 9100, "uid": 9100},
                    now=BASE)
                assert db.next_id("gid", now=BASE) == hint_before
                raise RuntimeError("boom")

        assert not db.table("users").select({"login": "doomed"})
        assert db.get_value("gid") == hint_before + 1  # hint not rolled back
        assert seen and seen[0]["id"]["gid"] == [hint_before]

    def test_scripted_ids_reproduce_allocation(self):
        """Replay scripting: ``next_id`` consumes journaled values and
        only ever advances the hint."""
        db = build_database()
        natural = db.get_value("gid")
        with db.scripted_ids({"id": {"gid": [natural + 7]}}):
            assert db.next_id("gid", now=BASE) == natural + 7
        # hint advanced past the scripted value, not to natural + 1
        assert db.get_value("gid") == natural + 8
        # a lower scripted value must not move the hint backwards
        with db.scripted_ids({"id": {"gid": [natural]}}):
            assert db.next_id("gid", now=BASE) == natural
        assert db.get_value("gid") == natural + 8


# -- bindings + replay ---------------------------------------------------------


class TestBindingsReplay:
    def test_apply_bindings_is_idempotent(self):
        db = build_database()
        base = db.get_value("list_id")
        bindings = {"id": {"list_id": [base, base + 1]},
                    "intern": {"write-path": 41}}
        apply_bindings(db, bindings, now=BASE)
        apply_bindings(db, bindings, now=BASE)
        assert db.get_value("list_id") == base + 2
        rows = db.table("strings").select({"string_id": 41})
        assert len(rows) == 1 and rows[0]["string"] == "write-path"
        # hints never move backwards
        apply_bindings(db, {"id": {"list_id": [1]}}, now=BASE)
        assert db.get_value("list_id") == base + 2

    def test_replay_rejects_out_of_commit_order(self, tmp_path):
        wal = tmp_path / "wal"
        journal = Journal(path=wal)
        journal.record(BASE, "root", "add_user",
                       ("r1", "7301", "/bin/sh", "L", "F", "", "1",
                        "m1", "1990"), commit_seq=1)
        journal.record(BASE + 1, "root", "add_user",
                       ("r2", "7302", "/bin/sh", "L", "F", "", "1",
                        "m2", "1990"), commit_seq=3)
        journal.record(BASE + 2, "root", "add_user",
                       ("r3", "7303", "/bin/sh", "L", "F", "", "1",
                        "m3", "1990"), commit_seq=2)
        journal.close()
        with pytest.raises(ValueError, match="out of commit order"):
            replay_wal(build_database(), Journal.load(wal))

    def test_replay_applies_aborted_entry_bindings(self, tmp_path):
        """An ``_aborted`` marker replays as its bindings only — the
        hint bump and interned string survive, no query runs."""
        wal = tmp_path / "wal"
        journal = Journal(path=wal)
        journal.record(BASE, "root", "_aborted", (), commit_seq=1,
                       bindings={"id": {"gid": [10900]},
                                 "intern": {"ghost": 77}})
        journal.close()
        db = build_database()
        result = replay_wal(db, Journal.load(wal))
        assert result.aborted_applied == 1
        assert result.replayed == 0
        assert db.get_value("gid") == 10901
        assert db.table("strings").select({"string_id": 77})

    def test_feed_tuple_carries_commit_seq_and_bindings(self):
        journal = Journal()
        journal.record(BASE, "root", "add_machine",
                       ("F1.MIT.EDU", "VAX"), client="test",
                       commit_seq=9,
                       bindings={"id": {"mach_id": [5]}, "intern": {}})
        entry = journal.entries[0]
        fields = entry_to_tuple(entry)
        assert len(fields) == 8
        back = entry_from_tuple(fields)
        assert back.commit_seq == 9
        assert back.bindings == {"id": {"mach_id": [5]}, "intern": {}}
        assert back.query == "add_machine"
        # a pre-sharding 6-field tuple still parses
        legacy = entry_from_tuple(fields[:6])
        assert legacy.commit_seq == 0
        assert legacy.query == "add_machine"


# -- the server's group-commit window ------------------------------------------


def _mini_world(wal_path=None, *, write_batch=4):
    """A tiny server world: schema db + capacls + eight users + an
    admin on moira-admins, all seeded before any WAL exists."""
    db = build_database()
    clock = Clock()
    clock.set(BASE)
    seed_capacls(db)
    ctx = QueryContext(db=db, clock=clock, caller="root", client="seed",
                       privileged=True)
    for i in range(8):
        execute_query(ctx, "add_user",
                      [f"wp{i}", str(7400 + i), "/bin/csh", f"Last{i}",
                       "First", "", "1", f"mit{i}", "1990"])
    execute_query(ctx, "add_member_to_list",
                  ["moira-admins", "USER", "wp7"])
    journal = Journal(path=wal_path)
    server = MoiraServer(db, clock, KDC(clock), journal=journal,
                         workers=0, write_batch=write_batch)
    return db, clock, journal, server


def _admin_conn(server):
    conn_id = server.open_connection("test")
    server._connections[conn_id].principal = "wp7"
    return conn_id


def _query_frame(args):
    return encode_request(MajorRequest.QUERY, args)[4:]


def _send(server, conn_id, args):
    replies = server.handle_frame(conn_id, _query_frame(args))
    return decode_reply(replies[-1][4:]).code


class TestWriteBatcher:
    def test_error_isolation_within_window(self):
        """One failing write in a window aborts alone; its neighbours
        commit and the WAL stays in commit-seq order."""
        db, clock, journal, server = _mini_world()
        conn_id = _admin_conn(server)
        assert _send(server, conn_id,
                     ["add_machine", "EI0.MIT.EDU", "VAX"]) == 0
        codes = []
        barrier = threading.Barrier(4)

        def client(args):
            cid = _admin_conn(server)
            barrier.wait(timeout=30)
            codes.append((args[1], _send(server, cid, args)))

        plans = [["add_machine", "EI1.MIT.EDU", "VAX"],
                 ["add_machine", "EI0.MIT.EDU", "VAX"],   # duplicate
                 ["add_machine", "EI2.MIT.EDU", "VAX"],
                 ["update_user_shell", "wp1", "/bin/sh"]]
        threads = [threading.Thread(target=client, args=(p,))
                   for p in plans]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        by_target = dict(codes)
        assert by_target["EI1.MIT.EDU"] == 0
        assert by_target["EI2.MIT.EDU"] == 0
        assert by_target["EI0.MIT.EDU"] != 0      # the duplicate failed
        assert by_target["wp1"] == 0
        assert db.table("machine").count({"name": "EI1.MIT.EDU"}) == 1
        assert db.table("machine").count({"name": "EI0.MIT.EDU"}) == 1
        assert db.table("users").select({"login": "wp1"})[0]["shell"] \
            == "/bin/sh"
        seqs = [e.commit_seq for e in journal.entries if e.commit_seq]
        assert seqs == sorted(seqs)

    def test_wal_stats_pseudo_query_reports_window(self):
        db, clock, journal, server = _mini_world()
        conn_id = _admin_conn(server)
        assert _send(server, conn_id,
                     ["add_machine", "WS0.MIT.EDU", "VAX"]) == 0
        replies = server.handle_frame(
            conn_id, _query_frame(["_wal_stats"]))
        rows = [decode_reply(r[4:]).fields for r in replies[:-1]]
        keys = {row[0].decode() if isinstance(row[0], bytes) else row[0]
                for row in rows}
        assert "_wal.appends" in keys
        assert "_batch.window" in keys
        assert "_batch.batches" in keys

    def test_torn_write_mid_batch_recovers_to_oracle(self, tmp_path):
        """A torn journal write inside a commit window crashes the
        "process"; checkpoint + surviving WAL + an idempotent resume
        land byte-identical on the never-crashed oracle."""
        shells = ["/bin/sh", "/usr/athena/tcsh", "/bin/csh"]
        muts = [["update_user_shell", f"wp{i}", shells[i % 3]]
                for i in range(6)]

        # the never-crashed oracle
        odb, oclock, _, oserver = _mini_world()
        for m in muts:
            ctx = QueryContext(db=odb, clock=oclock, caller="wp7",
                               client="test", privileged=True)
            execute_query(ctx, m[0], m[1:])
        oracle_dir = tmp_path / "oracle"
        mrbackup(odb, oracle_dir)
        oracle = {p.name: p.read_bytes() for p in oracle_dir.iterdir()}

        db, clock, journal, server = _mini_world(tmp_path / "wal",
                                                 write_batch=2)
        checkpoint(db, journal, tmp_path / "snap")
        faults = FaultInjector()
        faults.tear_write("journal.write", at_call=3)
        journal.faults = faults
        dead = threading.Event()

        def client(plan):
            cid = _admin_conn(server)
            for args in plan:
                if dead.is_set():
                    return
                try:
                    _send(server, cid, args)
                except ServerCrash:
                    dead.set()
                    return

        threads = [threading.Thread(target=client, args=(muts[t::3],))
                   for t in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert dead.is_set(), "the injected tear never fired"

        rec = recover(tmp_path / "snap", wal_path=tmp_path / "wal")
        for m in muts:    # the operator re-runs the whole schedule
            ctx = QueryContext(db=rec.db, clock=clock, caller="wp7",
                               client="test", privileged=True)
            try:
                execute_query(ctx, m[0], m[1:])
            except MoiraError:
                pass
        got_dir = tmp_path / "got"
        mrbackup(rec.db, got_dir)
        got = {p.name: p.read_bytes() for p in got_dir.iterdir()}
        assert got == oracle

    def test_batcher_survives_crash_and_serves_again(self, tmp_path):
        """After a mid-batch crash the lane releases leadership and
        queued writes fail fast — a post-recovery submit succeeds."""
        db, clock, journal, server = _mini_world(tmp_path / "wal",
                                                 write_batch=2)
        faults = FaultInjector()
        faults.crash_server("journal.batch_flush", at_call=1)
        journal.faults = faults
        conn_id = _admin_conn(server)
        with pytest.raises(ServerCrash):
            _send(server, conn_id, ["add_machine", "CR0.MIT.EDU", "VAX"])
        journal.faults = None
        assert _send(server, conn_id,
                     ["add_machine", "CR1.MIT.EDU", "VAX"]) == 0


# -- the whole write path under a pooled storm (the E15 / E16 oracles) ---------

STORM_SPEC = dict(users=40, unregistered_users=12, nfs_servers=2,
                  maillists=4, clusters=1, machines_per_cluster=2,
                  printers=2, network_services=4)


def _storm_world(tmp_path, backend="memory", *, workers=None, wal=True):
    config = dict(population=PopulationSpec(**STORM_SPEC),
                  server_workers=workers)
    if wal:
        config["wal_path"] = tmp_path / "wal"
    config["backend"] = backend     # sqlite: in-memory, the WAL is on disk
    d = AthenaDeployment(DeploymentConfig(**config))
    admin = d.handles.logins[-1]
    d.make_admin(admin)     # before any checkpoint: in the snapshot
    return d, admin


def _dump(db, directory):
    mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestPooledStorm:
    def test_cross_shard_storm_replays_byte_identically(self, tmp_path):
        """Registrations (all three writer shards), a status rollover
        (users) and machine churn (machines) committed concurrently on
        the default worker pool: the WAL is in commit-seq order and
        checkpoint + replay rebuilds the primary byte for byte — id
        bindings reproduce allocations that interleaved out of commit
        order."""
        d, admin = _storm_world(tmp_path)
        unregistered = d.db.table("users").select({"status": 0})
        plans = [
            [["register_user", str(u["uid"]), f"storm{i}", "1"]
             for i, u in enumerate(unregistered)][t::2]
            for t in range(2)
        ] + [
            [["update_user_status", login, "3"]
             for login in d.handles.logins[:24]][t::2]
            for t in range(2)
        ] + [
            [["add_machine", f"STORM{i}.MIT.EDU", "VAX"]
             for i in range(24)][t::2]
            for t in range(2)
        ]
        checkpoint(d.db, d.journal, tmp_path / "snap")
        errors: list[BaseException] = []
        gate = threading.Barrier(len(plans))

        def client(plan) -> None:
            try:
                conn_id = d.server.open_connection("storm")
                d.server._connections[conn_id].principal = admin
                gate.wait(timeout=30)
                for query in plan:
                    replies: list[bytes] = []
                    done = threading.Event()
                    d.server.submit_frame(
                        conn_id, _query_frame(query),
                        lambda r, acc=replies: (acc.append(r), True)[1],
                        done.set)
                    assert done.wait(timeout=60), f"stalled on {query}"
                    code = decode_reply(replies[-1][4:]).code
                    assert code == 0, (query, code)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(plan,))
                   for plan in plans]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        alive = [t for t in threads if t.is_alive()]
        d.server.shutdown()
        d.journal.close()
        assert not alive and not errors, errors[:3]

        seqs = [e.commit_seq for e in d.journal.entries if e.commit_seq]
        assert len(seqs) >= sum(len(plan) for plan in plans)
        assert all(a < b for a, b in zip(seqs, seqs[1:]))
        rec = recover(tmp_path / "snap", wal_path=tmp_path / "wal")
        assert _dump(rec.db, tmp_path / "replayed") == \
            _dump(d.db, tmp_path / "primary")

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_batch_boundary_crash_sweep(self, backend, tmp_path):
        """Die at each of the first commit windows' durability points —
        ``journal.batch_flush`` and a torn write, alternating — under
        four inline clients; checkpoint + surviving WAL + an idempotent
        re-run lands on the never-crashed oracle, on both backends."""
        shells = ["/bin/sh", "/usr/athena/tcsh", "/bin/csh"]

        def mutations(d):
            return [["update_user_shell", login, shells[i % 3]]
                    for i, login in enumerate(d.handles.logins[:16])]

        def apply(db, clock, admin, query):
            ctx = QueryContext(db=db, clock=clock, caller=admin,
                               client="storm", privileged=True)
            execute_query(ctx, query[0], query[1:])

        workdir = tmp_path / "oracle"
        workdir.mkdir()
        d, admin = _storm_world(workdir, backend, workers=0, wal=False)
        for query in mutations(d):
            apply(d.db, d.clock, admin, query)
        oracle = _dump(d.db, workdir / "dump")

        for boundary in range(1, 5):
            workdir = tmp_path / f"b{boundary}"
            workdir.mkdir()
            d, admin = _storm_world(workdir, backend, workers=0)
            muts = mutations(d)
            checkpoint(d.db, d.journal, workdir / "snap")
            faults = FaultInjector()
            if boundary % 2:
                faults.crash_server("journal.batch_flush",
                                    at_call=boundary)
            else:
                faults.tear_write("journal.write", at_call=boundary)
            d.journal.faults = faults
            dead = threading.Event()

            def client(plan) -> None:
                conn_id = d.server.open_connection("storm")
                d.server._connections[conn_id].principal = admin
                for query in plan:
                    if dead.is_set():
                        return
                    try:
                        d.server.handle_frame(conn_id,
                                              _query_frame(query))
                    except ServerCrash:
                        dead.set()
                        return

            threads = [threading.Thread(target=client, args=(muts[t::4],))
                       for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert dead.is_set(), f"boundary {boundary} never fired"
            db = recover(workdir / "snap", wal_path=workdir / "wal",
                         db=create_backend(backend)).db
            for query in muts:      # the operator re-runs the schedule
                try:
                    apply(db, d.clock, admin, query)
                except MoiraError:
                    pass            # the WAL already made it durable
            assert _dump(db, workdir / "dump") == oracle, boundary
