"""Write-path tests: the one writer lock, group commit at the sync
before a reply is released, and WAL replay (docs/WRITE_PATH.md).

The engine half proves the transaction discipline directly — commit
hooks fire in exact commit-seq order, aborts roll back everything,
the ids and strings they drew included.  The server half drives concurrent
writers through real frames: error isolation between writes sharing a
sync, and a torn write mid-batch that must recover + resume to the
never-crashed oracle byte for byte.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.backend import create_backend
from repro.db.backup import mrbackup
from repro.db.journal import Journal
from repro.db.recovery import checkpoint, recover, replay_wal
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


# -- the engine's writer transactions ----------------------------------------


class TestShardedEngine:
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
                with db.write_txn(commit_hook=hook):
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

    def test_abort_rolls_back_rows_and_ids(self):
        """An aborted writer's row changes vanish, and so do the id it
        drew and the string it interned: the next writer gets them."""
        db = build_database()
        hint_before = db.get_value("gid")
        strings_before = db.get_value("strings_id")

        with pytest.raises(RuntimeError):
            with db.write_txn():
                db.table("users").insert(
                    {"login": "doomed", "users_id": 9100, "uid": 9100},
                    now=BASE)
                assert db.next_id("gid", now=BASE) == hint_before
                assert db.intern_string("doomed@x", now=BASE) == \
                    strings_before
                raise RuntimeError("boom")

        assert not db.table("users").select({"login": "doomed"})
        assert not db.table("strings").select({"string": "doomed@x"})
        assert db.get_value("gid") == hint_before
        with db.write_txn():
            assert db.next_id("gid", now=BASE) == hint_before
            assert db.intern_string("kept@x", now=BASE) == strings_before


# -- replay ------------------------------------------------------------------


class TestReplay:
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

    def test_feed_tuple_carries_commit_seq(self):
        journal = Journal()
        journal.record(BASE, "root", "add_machine",
                       ("F1.MIT.EDU", "VAX"), client="test",
                       commit_seq=9)
        entry = journal.entries[0]
        fields = entry_to_tuple(entry)
        assert len(fields) == 8
        back = entry_from_tuple(fields)
        assert back.commit_seq == 9
        assert back.query == "add_machine"
        assert back.changed is None
        # a pre-sharding 6-field tuple is a mangled entry, and so is
        # one without the stamp field or with a field past it
        for mangled in (fields[:6], fields[:7], (*fields, "")):
            with pytest.raises(ValueError):
                entry_from_tuple(mangled)


# -- the server's group commit --------------------------------------------------


def _mini_world(wal_path=None):
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
    server = MoiraServer(db, clock, KDC(clock), journal=journal)
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

        db, clock, journal, server = _mini_world(tmp_path / "wal")
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
        db, clock, journal, server = _mini_world(tmp_path / "wal")
        faults = FaultInjector()
        faults.crash_server("journal.batch_flush", at_call=1)
        journal.faults = faults
        conn_id = _admin_conn(server)
        with pytest.raises(ServerCrash):
            _send(server, conn_id, ["add_machine", "CR0.MIT.EDU", "VAX"])
        journal.faults = None
        assert _send(server, conn_id,
                     ["add_machine", "CR1.MIT.EDU", "VAX"]) == 0


# -- the whole write path under a storm from a pool of client threads ---------
# (the E15 / E16 oracles)

STORM_SPEC = dict(users=40, unregistered_users=12, nfs_servers=2,
                  maillists=4, clusters=1, machines_per_cluster=2,
                  printers=2, network_services=4)


def _storm_world(tmp_path, backend="memory", *, wal=True):
    config = dict(population=PopulationSpec(**STORM_SPEC))
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
        """Registrations (users, lists, filesystems, quotas and POP
        load), a status rollover (users) and machine churn (machines)
        committed concurrently by six client threads through the one
        writer: every seq is unique and the WAL is in commit-seq order,
        and checkpoint + replay rebuilds the primary byte for byte —
        replay re-executes each entry, so it allocates the ids and
        interned strings the writer allocated in commit order."""
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
                    code = _send(d.server, conn_id, query)
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
        d, admin = _storm_world(workdir, backend, wal=False)
        for query in mutations(d):
            apply(d.db, d.clock, admin, query)
        oracle = _dump(d.db, workdir / "dump")

        for boundary in range(1, 5):
            workdir = tmp_path / f"b{boundary}"
            workdir.mkdir()
            d, admin = _storm_world(workdir, backend)
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
