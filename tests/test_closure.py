"""Oracle tests for the membership-closure index.

The oracle is the seed's recursive walk over ``members`` (kept on
``QueryContext`` as ``_user_on_list_walk`` / ``_lists_containing_walk``)
— the closure must agree with it after arbitrary randomised churn,
including cycles, row "renames" (update_rows moving a member between
lists), changelog overflow, and concurrent mutation through the PR 2
worker pool.  When the closure is disabled or raises, answers must
still come from the walk — never be wrong, never be missing."""

from __future__ import annotations

import random
import threading

import pytest

from repro.client import MoiraClient
from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.closure import MembershipClosure
from repro.db.engine import Column, Table
from repro.errors import MoiraError
from repro.protocol.transport import TcpServerTransport
from repro.workload import PopulationSpec

N_USERS = 16
N_LISTS = 12


def seed_entities(db, n_users: int = N_USERS,
                  n_lists: int = N_LISTS) -> list[int]:
    """Bare users + list rows straight into the engine; returns the
    list_ids."""
    users = db.table("users")
    for i in range(n_users):
        users.insert({"login": f"czuser{i}", "users_id": 500 + i,
                      "uid": 500 + i})
    lists = db.table("list")
    out = []
    for i in range(n_lists):
        lid = 700 + i
        lists.insert({"name": f"czlist{i}", "list_id": lid, "active": 1,
                      "acl_type": "LIST", "acl_id": lid})
        out.append(lid)
    return out


def assert_closure_matches_walk(ctx, list_ids) -> None:
    db = ctx.db
    closure = db.membership_closure()
    for i in range(N_USERS):
        uid = 500 + i
        assert (closure.lists_containing("USER", uid)
                == ctx._lists_containing_walk("USER", uid)), f"user {uid}"
    for lid in list_ids:
        assert (closure.lists_containing("LIST", lid)
                == ctx._lists_containing_walk("LIST", lid)), f"list {lid}"
        for i in range(0, N_USERS, 3):
            login = f"czuser{i}"
            assert (ctx.user_on_list_id(lid, login)
                    == ctx._user_on_list_walk(lid, 500 + i))


class TestClosureOracle:
    def test_randomised_churn_matches_walk(self, ctx):
        rng = random.Random(42)
        db = ctx.db
        list_ids = seed_entities(db)
        members = db.table("members")
        for step in range(250):
            roll = rng.random()
            existing = members.rows
            if roll < 0.45 or not existing:
                mtype = rng.choice(["USER", "USER", "LIST", "STRING"])
                mid = (500 + rng.randrange(N_USERS) if mtype == "USER"
                       else rng.choice(list_ids) if mtype == "LIST"
                       else rng.randrange(5))
                try:
                    members.insert({"list_id": rng.choice(list_ids),
                                    "member_type": mtype,
                                    "member_id": mid})
                except MoiraError:
                    pass  # duplicate membership; uniqueness holds
            elif roll < 0.7:
                members.delete_rows([rng.choice(existing)])
            else:
                # a "rename": move a membership row to another list
                try:
                    members.update_rows([rng.choice(existing)],
                                        {"list_id": rng.choice(list_ids)})
                except MoiraError:
                    pass
            if step % 25 == 0:
                assert_closure_matches_walk(ctx, list_ids)
        assert_closure_matches_walk(ctx, list_ids)
        assert db.membership_closure().syncs > 0

    def test_cycles_terminate_and_agree(self, ctx):
        db = ctx.db
        list_ids = seed_entities(db, n_lists=6)
        members = db.table("members")
        a, b, c, d = list_ids[:4]
        # a -> b -> c -> a cycle, d hanging off c, user on a
        for parent, child in ((a, b), (b, c), (c, a), (c, d)):
            members.insert({"list_id": parent, "member_type": "LIST",
                            "member_id": child})
        members.insert({"list_id": a, "member_type": "USER",
                        "member_id": 500})
        assert_closure_matches_walk(ctx, list_ids)
        closure = db.membership_closure()
        # every cycle participant transitively contains the user
        for lid in (a, b, c):
            assert closure.contains(lid, "USER", 500)
        assert not closure.contains(d, "USER", 500)

    def test_query_layer_churn_matches_walk(self, ctx, run):
        """The same oracle, driven through the real query handles."""
        rng = random.Random(7)
        for i in range(6):
            run("add_user", f"qluser{i}", 900 + i, "/bin/csh", f"Q{i}",
                "User", "", 1, f"mitid-q{i}", "1990")
        for i in range(5):
            run("add_list", f"qllist{i}", 1, 1, 0, 0, 0, 0,
                "LIST", f"qllist{i}", "closure test list")
        memberships: set[tuple[str, str, str]] = set()
        for _ in range(120):
            lname = f"qllist{rng.randrange(5)}"
            if rng.random() < 0.5:
                mtype, member = "USER", f"qluser{rng.randrange(6)}"
            else:
                mtype, member = "LIST", f"qllist{rng.randrange(5)}"
            key = (lname, mtype, member)
            try:
                if key in memberships and rng.random() < 0.6:
                    run("delete_member_from_list", *key)
                    memberships.discard(key)
                else:
                    run("add_member_to_list", *key)
                    memberships.add(key)
            except MoiraError:
                pass  # self-membership or duplicate; fine
        db = ctx.db
        closure = db.membership_closure()
        for i in range(6):
            rows = db.table("users").select({"login": f"qluser{i}"})
            uid = rows[0]["users_id"]
            assert (closure.lists_containing("USER", uid)
                    == ctx._lists_containing_walk("USER", uid))


def small_members_table(changelog: int = 4) -> Table:
    return Table(
        "members",
        [Column("list_id", int), Column("member_type", str, max_len=8),
         Column("member_id", int)],
        unique=[("list_id", "member_type", "member_id")],
        indexes=["list_id", "member_id"],
        composite_indexes=[("member_type", "member_id")],
        changelog=changelog,
    )


class TestClosureResync:
    def test_changelog_overflow_forces_rebuild(self):
        members = small_members_table(changelog=4)
        closure = MembershipClosure(members)
        members.insert({"list_id": 1, "member_type": "LIST",
                        "member_id": 2})
        assert closure.contains(1, "LIST", 2)
        rebuilds = closure.rebuilds
        # far more mutations than the log holds between lookups
        for i in range(20):
            members.insert({"list_id": 2, "member_type": "USER",
                            "member_id": 100 + i})
        members.insert({"list_id": 2, "member_type": "LIST",
                        "member_id": 3})
        assert closure.contains(1, "LIST", 3)  # via 1 -> 2 -> 3
        assert closure.contains(1, "USER", 110)
        assert closure.rebuilds > rebuilds

    def test_incremental_replay_without_rebuild(self):
        members = small_members_table(changelog=64)
        closure = MembershipClosure(members)
        closure.poke()  # initial build
        rebuilds = closure.rebuilds
        members.insert({"list_id": 5, "member_type": "LIST",
                        "member_id": 6})
        members.insert({"list_id": 6, "member_type": "USER",
                        "member_id": 9})
        assert closure.contains(5, "USER", 9)
        row = members.select({"list_id": 5})[0]
        members.delete_rows([row])
        assert not closure.contains(5, "USER", 9)
        assert closure.contains(6, "USER", 9)
        assert closure.rebuilds == rebuilds  # replayed, never rebuilt

    def test_poke_is_cheap_and_current(self):
        members = small_members_table(changelog=64)
        closure = MembershipClosure(members)
        members.insert({"list_id": 1, "member_type": "LIST",
                        "member_id": 2})
        closure.poke()
        assert closure._synced_version == members.version
        syncs = closure.syncs
        closure.poke()  # no-op: version unchanged
        assert closure.syncs == syncs

    def test_memo_overflow_recomputes_correctly(self):
        members = small_members_table(changelog=256)
        closure = MembershipClosure(members, max_cached=4)
        for child in range(2, 12):
            members.insert({"list_id": child - 1, "member_type": "LIST",
                            "member_id": child})
        for child in range(2, 12):
            assert closure.lists_containing("LIST", child) == \
                set(range(1, child))
        assert closure.memo_overflows > 0


class TestClosureFallback:
    def test_disabled_database_uses_walk(self, ctx):
        db = ctx.db
        seed_entities(db, n_users=2, n_lists=2)
        db.table("members").insert({"list_id": 700, "member_type": "USER",
                                    "member_id": 500})
        db.closure_enabled = False
        assert db.membership_closure() is None
        assert ctx.user_on_list_id(700, "czuser0")
        assert ctx.lists_containing("USER", 500) == {700}

    def test_broken_closure_never_breaks_answers(self, ctx, monkeypatch):
        db = ctx.db
        seed_entities(db, n_users=2, n_lists=2)
        db.table("members").insert({"list_id": 700, "member_type": "USER",
                                    "member_id": 500})
        closure = db.membership_closure()

        def boom(*a, **k):
            raise RuntimeError("closure corrupted")

        monkeypatch.setattr(closure, "contains", boom)
        monkeypatch.setattr(closure, "lists_containing", boom)
        assert ctx.user_on_list_id(700, "czuser0")
        assert ctx.lists_containing("USER", 500) == {700}


class TestClosureUnderWorkerPool:
    def test_concurrent_churn_stays_consistent(self):
        """Writers mutate memberships over TCP (through the worker
        pool) while readers run recursive retrievals; afterwards the
        closure agrees with the walk for every entity."""
        d = AthenaDeployment(DeploymentConfig(population=PopulationSpec(
            users=20, unregistered_users=0, nfs_servers=1, maillists=2,
            clusters=1, machines_per_cluster=1, printers=1,
            network_services=2)))
        direct = d.direct_client()
        logins = d.handles.logins[:8]
        for i in range(4):
            direct.query("add_list", f"pool{i}", 1, 1, 0, 0, 0, 0,
                         "LIST", f"pool{i}", "worker-pool churn")
        for i in range(3):
            direct.query("add_member_to_list", f"pool{i}", "LIST",
                         f"pool{i + 1}")
        for login in logins:
            d.make_admin(login)
        tcp = TcpServerTransport(d.server).start()
        errors: list[Exception] = []

        def churn(index: int):
            try:
                rng = random.Random(1000 + index)
                login = logins[index]
                creds = d.kdc.kinit(login, f"pw{login}")
                client = MoiraClient(tcp_address=tcp.address,
                                     kdc=d.kdc, credentials=creds,
                                     clock=d.clock)
                client.connect().auth("pool-churn")
                for step in range(25):
                    lname = f"pool{rng.randrange(4)}"
                    victim = logins[rng.randrange(len(logins))]
                    try:
                        if rng.random() < 0.6:
                            client.query("add_member_to_list", lname,
                                         "USER", victim)
                        else:
                            client.query("delete_member_from_list",
                                         lname, "USER", victim)
                    except MoiraError:
                        pass  # duplicate add / absent delete
                    if step % 5 == 0:
                        try:
                            client.query("get_lists_of_member",
                                         "RUSER", login)
                        except MoiraError:
                            pass  # no memberships right now
                client.close()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        for login in logins:
            if not d.kdc.principal_exists(login):
                d.kdc.add_principal(login, f"pw{login}")
        threads = [threading.Thread(target=churn, args=(i,))
                   for i in range(len(logins))]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            tcp.stop()
        assert not errors
        ctx = direct._ctx
        users = d.db.table("users")
        for login in logins:
            uid = users.select({"login": login})[0]["users_id"]
            assert (d.db.membership_closure().lists_containing("USER", uid)
                    == ctx._lists_containing_walk("USER", uid)), login
        for i in range(4):
            lid = d.db.table("list").select(
                {"name": f"pool{i}"})[0]["list_id"]
            assert (d.db.membership_closure().lists_containing("LIST", lid)
                    == ctx._lists_containing_walk("LIST", lid))
