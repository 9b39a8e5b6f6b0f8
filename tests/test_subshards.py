"""Uid-range user sub-shards: partition math, lock expansion, the
row-bucket guard, disjoint-bucket concurrency, and query routing.

``user_subshards=N`` replaces the ``users`` writer lock with N bucket
locks keyed by contiguous 64-uid ranges.  These tests pin the engine
contract the E16 storm relies on: only touched buckets are locked,
foreign-bucket writes are loud errors (never silent corruption), the
umbrella still means total ``users`` exclusion, and the write path
routes single-user queries to exactly one bucket.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.backup import mrbackup
from repro.db.engine import ShardPartition
from repro.db.recovery import checkpoint, recover
from repro.db.schema import USER_SUBSHARD_SPAN, build_database
from repro.errors import MoiraError, MR_INTERNAL
from repro.queries.base import get_query
from repro.server.write_batch import shards_for
from repro.workload import PopulationSpec


def make_db(buckets=2):
    db = build_database(user_subshards=buckets)
    users = db.table("users")
    # one user per bucket: uid n*span lands in bucket n (mod count)
    for n in range(buckets):
        users.insert({"login": f"bkt{n}", "users_id": 9000 + n,
                      "uid": n * USER_SUBSHARD_SPAN, "status": 1,
                      "shell": "/bin/sh"}, now=0)
    return db


class TestPartitionMath:
    def test_bucket_and_lock_names(self):
        part = ShardPartition("users", 4, table="users", column="uid",
                              span=64)
        assert part.bucket(0) == 0
        assert part.bucket(63) == 0
        assert part.bucket(64) == 1
        assert part.bucket(64 * 5) == 1      # wraps mod count
        assert part.lock_names() == ("users/0", "users/1", "users/2",
                                     "users/3")

    def test_count_floor(self):
        with pytest.raises(ValueError):
            ShardPartition("users", 1, table="users", column="uid")


class TestLockExpansion:
    def test_bucket_locks_replace_the_logical_lock(self):
        db = make_db(4)
        names = set(db._shard_locks)
        assert {"users/0", "users/1", "users/2", "users/3"} <= names
        assert "users" not in names

    def test_umbrella_expands_to_every_bucket(self):
        db = make_db(4)
        assert db.expand_shards(["users"]) == (
            "users/0", "users/1", "users/2", "users/3")
        assert db.expand_shards(["users/2"]) == ("users/2",)
        assert db.expand_shards(["machines"]) == ("machines",)

    def test_unknown_shard_is_loud(self):
        db = make_db(2)
        with pytest.raises(MoiraError):
            db.expand_shards(["users/9"])


class TestRowGuard:
    def test_own_bucket_write_is_allowed(self):
        db = make_db(2)
        users = db.table("users")
        with db.shard_txn(["users/0"]):
            row = users.select({"login": "bkt0"})[0]
            users.update_rows([row], {"shell": "/bin/csh"}, now=1)
        assert users.select({"login": "bkt0"})[0]["shell"] == "/bin/csh"

    def test_foreign_bucket_write_is_mr_internal(self):
        db = make_db(2)
        users = db.table("users")
        with pytest.raises(MoiraError) as err:
            with db.shard_txn(["users/0"]):
                row = users.select({"login": "bkt1"})[0]
                users.update_rows([row], {"shell": "/bin/csh"}, now=1)
        assert err.value.code == MR_INTERNAL
        # and the abort undid nothing it should not have
        assert users.select({"login": "bkt1"})[0]["shell"] == "/bin/sh"

    def test_uid_change_requires_the_umbrella(self):
        db = make_db(2)
        users = db.table("users")
        with pytest.raises(MoiraError) as err:
            with db.shard_txn(["users/0"]):
                row = users.select({"login": "bkt0"})[0]
                users.update_rows([row], {"uid": 7}, now=1)
        assert err.value.code == MR_INTERNAL
        with db.shard_txn(["users"]):    # umbrella: re-bucketing OK
            row = users.select({"login": "bkt0"})[0]
            users.update_rows([row], {"uid": 7}, now=1)
        assert users.select({"login": "bkt0"})[0]["uid"] == 7

    def test_umbrella_touches_every_bucket(self):
        db = make_db(2)
        users = db.table("users")
        with db.shard_txn(["users"]):
            for login in ("bkt0", "bkt1"):
                row = users.select({"login": login})[0]
                users.update_rows([row], {"shell": "/bin/csh"}, now=1)
        assert all(r["shell"] == "/bin/csh" for r in users.select())


class TestDisjointBucketConcurrency:
    def test_disjoint_buckets_overlap(self):
        """A users/1 writer runs its body while users/0 is held — the
        whole point of sub-sharding.  (Commits still *publish* in seq
        order, so the earlier transaction is released from inside the
        later one's body, before its commit reaches the gate.)"""
        db = make_db(2)
        users = db.table("users")
        holding = threading.Event()
        release = threading.Event()
        failures: list[BaseException] = []

        def bucket0() -> None:
            try:
                with db.shard_txn(["users/0"]):
                    row = users.select({"login": "bkt0"})[0]
                    users.update_rows([row], {"shell": "/bin/a"}, now=1)
                    holding.set()
                    assert release.wait(timeout=30)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        t = threading.Thread(target=bucket0)
        t.start()
        assert holding.wait(timeout=30)
        # acquiring users/1 and running the body must not block on the
        # users/0 holder — both bodies are in flight at release.set()
        with db.shard_txn(["users/1"]):
            row = users.select({"login": "bkt1"})[0]
            users.update_rows([row], {"shell": "/bin/b"}, now=1)
            release.set()
        t.join(timeout=30)
        assert not failures, failures
        assert users.select({"login": "bkt0"})[0]["shell"] == "/bin/a"
        assert users.select({"login": "bkt1"})[0]["shell"] == "/bin/b"

    def test_commit_publication_stays_seq_ordered(self):
        """Concurrent bucket commits publish (and would journal) in
        commit-seq order — PR 7's gate survives partitioning."""
        db = make_db(4)
        users = db.table("users")
        published: list[int] = []
        gate = threading.Barrier(4)
        failures: list[BaseException] = []

        def writer(n: int) -> None:
            try:
                gate.wait(timeout=30)
                for _ in range(25):
                    with db.shard_txn(
                            [f"users/{n}"],
                            commit_hook=lambda txn:
                            published.append(txn.seq)):
                        row = users.select({"login": f"bkt{n}"})[0]
                        users.update_rows([row], {"shell": f"/b{n}"},
                                          now=1)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        threads = [threading.Thread(target=writer, args=(n,))
                   for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not failures, failures
        assert len(published) == 100
        assert published == sorted(published)


class TestRouting:
    def _db_with_population(self):
        db = build_database(user_subshards=2)
        load = __import__("repro.workload", fromlist=["load_population"])
        load.load_population(db, PopulationSpec(
            users=80, unregistered_users=5, nfs_servers=2, maillists=5,
            clusters=2, machines_per_cluster=2, printers=2,
            network_services=5))
        return db

    def test_single_user_queries_route_to_one_bucket(self):
        db = self._db_with_population()
        users = db.table("users")
        for query_name in ("update_user_shell", "update_user_status",
                           "update_finger_by_login"):
            query = get_query(query_name)
            for row in users.select()[:8]:
                found = shards_for(db, query, [row["login"], "x"])
                bucket = (row["uid"] // USER_SUBSHARD_SPAN) % 2
                assert found == frozenset({f"users/{bucket}"}), (
                    query_name, row["login"])

    def test_unresolvable_key_takes_the_umbrella(self):
        db = self._db_with_population()
        query = get_query("update_user_shell")
        found = shards_for(db, query, ["no-such-login", "/bin/sh"])
        assert found == frozenset({"users"})
        assert db.expand_shards(found) == ("users/0", "users/1")


class TestDeploymentReplay:
    def test_subshard_writes_replay_byte_identically(self, tmp_path):
        """checkpoint + WAL replay of sub-sharded writes rebuilds the
        primary exactly — recovery code never sees bucket names."""
        d = AthenaDeployment(DeploymentConfig(
            population=PopulationSpec(users=80, unregistered_users=5,
                                      nfs_servers=2, maillists=5,
                                      clusters=2, machines_per_cluster=2,
                                      printers=2, network_services=5),
            server_workers=0,
            wal_path=tmp_path / "wal",
            user_subshards=2,
        ))
        admin = d.handles.logins[-1]
        d.make_admin(admin)
        checkpoint(d.db, d.journal, tmp_path / "snap")
        client = d.direct_client(admin)
        for i, login in enumerate(d.handles.logins[:24]):
            client.query("update_user_shell", login,
                         ["/bin/sh", "/bin/csh"][i % 2])
        d.server.shutdown()

        def dump(db, tag):
            directory = tmp_path / tag
            mrbackup(db, directory)
            return {p.name: p.read_bytes()
                    for p in directory.iterdir()}

        rec = recover(tmp_path / "snap", wal_path=tmp_path / "wal")
        assert dump(rec.db, "replayed") == dump(d.db, "primary")
