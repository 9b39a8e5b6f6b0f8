"""Tests for the Moira server: auth, access control, caching, specials."""

from __future__ import annotations

import pytest

from repro.client import DirectClient, MoiraClient
from repro.db.backup import mrbackup
from repro.errors import (
    MR_ARGS,
    MR_NO_HANDLE,
    MR_PERM,
    MoiraError,
)
from repro.protocol.wire import MajorRequest, encode_request
from repro.queries.base import all_queries, register, unregister
from tests.conftest import make_user

TAKES_ARGS = sorted(name for name, query in all_queries().items()
                    if query.args)


class TestNoop:
    def test_noop(self, admin_client):
        assert admin_client.mr_noop() == 0

    def test_noop_unauthenticated(self, server):
        c = MoiraClient(dispatcher=server)
        c.connect()
        assert c.mr_noop() == 0
        c.close()


class TestAuthentication:
    def test_unauthenticated_query_denied_for_private_queries(self,
                                                              server,
                                                              run):
        make_user(run, "target")
        c = MoiraClient(dispatcher=server)
        c.connect()
        code = c.mr_query("update_user_shell", ["target", "/bin/sh"])
        assert code == MR_PERM
        c.close()

    def test_public_queries_work_unauthenticated(self, server, run):
        """mr_connect doesn't authenticate because "simple read-only
        queries ... may not need authentication"."""
        run("add_machine", "PUB.MIT.EDU", "VAX")
        c = MoiraClient(dispatcher=server)
        c.connect()
        assert c.query("get_machine", "PUB*")[0][0] == "PUB.MIT.EDU"
        c.close()

    def test_auth_binds_principal_to_connection(self, admin_client, run,
                                                db):
        admin_client.query("add_machine", "AUDIT.MIT.EDU", "VAX")
        row = db.table("machine").select({"name": "AUDIT.MIT.EDU"})[0]
        assert row["modby"] == "admin"
        assert row["modwith"] == "pytest"

    def test_failed_auth_keeps_connection_unauthenticated(self, server,
                                                          kdc, clock,
                                                          run):
        make_user(run, "sneaky")
        kdc.add_principal("sneaky", "pw")
        creds = kdc.kinit("sneaky", "pw")
        c = MoiraClient(dispatcher=server, kdc=kdc, credentials=creds,
                        clock=clock)
        c.connect()
        # expire the ticket before using it
        ticket = kdc.get_service_ticket(creds, "moira", lifetime=10)
        clock.advance(100)
        code = c.mr_auth("expired")
        assert code != 0
        assert server.stats.auth_failures == 1
        c.close()


class TestAccessControl:
    def test_capability_list_grants(self, admin_client):
        assert admin_client.mr_query("add_machine", ["X.MIT.EDU",
                                                     "VAX"]) == 0

    def test_non_admin_denied(self, user_client):
        code = user_client.mr_query("add_machine", ["Y.MIT.EDU", "VAX"])
        assert code == MR_PERM

    def test_self_service_relaxation(self, user_client):
        assert user_client.mr_query("update_user_shell",
                                    ["joeuser", "/bin/sh"]) == 0

    def test_self_service_does_not_extend_to_others(self, user_client,
                                                    run):
        make_user(run, "other")
        code = user_client.mr_query("update_user_shell",
                                    ["other", "/bin/sh"])
        assert code == MR_PERM

    def test_public_list_self_add(self, user_client, run):
        run("add_list", "open-list", 1, 1, 0, 1, 0, 0, "NONE", "NONE",
            "d")
        assert user_client.mr_query(
            "add_member_to_list", ["open-list", "USER", "joeuser"]) == 0
        # but cannot add someone else
        make_user(run, "bystander")
        assert user_client.mr_query(
            "add_member_to_list",
            ["open-list", "USER", "bystander"]) == MR_PERM

    def test_private_list_self_add_denied(self, user_client, run):
        run("add_list", "closed-list", 1, 0, 0, 1, 0, 0, "NONE", "NONE",
            "d")
        assert user_client.mr_query(
            "add_member_to_list",
            ["closed-list", "USER", "joeuser"]) == MR_PERM

    def test_list_ace_governs_management(self, user_client, run):
        run("add_list", "mine", 1, 0, 0, 1, 0, 0, "USER", "joeuser", "d")
        make_user(run, "friend")
        assert user_client.mr_query(
            "add_member_to_list", ["mine", "USER", "friend"]) == 0

    def test_access_request_matches_query_behaviour(self, user_client,
                                                    run):
        """The Access major request predicts Query's permission result."""
        make_user(run, "other2")
        assert user_client.access("update_user_shell", "joeuser", "/s")
        assert not user_client.access("update_user_shell", "other2",
                                      "/s")

    def test_hidden_list_info_restricted(self, user_client, admin_client,
                                         run):
        run("add_list", "secret-l", 1, 0, 1, 1, 0, 0, "NONE", "NONE",
            "d")
        code = user_client.mr_query("get_list_info", ["secret-l"])
        assert code == MR_PERM
        assert admin_client.query("get_list_info", "secret-l")


class TestArgcBeforeAccess:
    @pytest.mark.parametrize("name", TAKES_ARGS)
    def test_zero_args_is_mr_args_for_a_non_admin(self, name, user_client,
                                                  db, clock):
        """argc is validated before any access relaxation indexes the
        argument list: the server answers exactly as the library does,
        never MR_PERM or MR_INTERNAL."""
        direct = DirectClient(db, clock, caller="joeuser")
        assert direct.mr_query(name, []) == MR_ARGS
        assert user_client.mr_query(name, []) == MR_ARGS
        assert not user_client.access(name)


class TestAccessCache:
    def test_cache_hits_on_repeated_check(self, server, user_client):
        server.access_cache.hits = server.access_cache.misses = 0
        user_client.access("update_user_shell", "joeuser", "/bin/sh")
        before_hits = server.access_cache.hits
        user_client.access("update_user_shell", "joeuser", "/bin/sh")
        assert server.access_cache.hits == before_hits + 1

    def test_mutation_invalidates(self, server, admin_client, run):
        """A write that moves an ACL column (membership) clears it."""
        make_user(run, "newadmin")
        admin_client.access("add_member_to_list", "moira-admins", "USER",
                            "newadmin")
        gen = server.access_cache.generation
        admin_client.query("add_member_to_list", "moira-admins", "USER",
                           "newadmin")
        assert server.access_cache.generation > gen

    def test_denial_also_cached(self, server, user_client, run):
        make_user(run, "somebody")
        user_client.mr_query("update_user_shell", ["somebody", "/s"])
        hits = server.access_cache.hits
        user_client.mr_query("update_user_shell", ["somebody", "/s"])
        assert server.access_cache.hits == hits + 1

    def test_disabled_cache_never_hits(self, db, clock, kdc, run):
        from repro.server import MoiraServer, seed_capacls
        from repro.server.access import AccessCache

        server = MoiraServer(db, clock, kdc,
                             access_cache=AccessCache(enabled=False))
        seed_capacls(db)
        make_user(run, "nc")
        kdc.add_principal("nc", "pw")
        c = MoiraClient(dispatcher=server, kdc=kdc,
                        credentials=kdc.kinit("nc", "pw"), clock=clock)
        c.connect().auth("t")
        c.access("update_user_shell", "nc", "/bin/sh")
        c.access("update_user_shell", "nc", "/bin/sh")
        assert server.access_cache.hits == 0
        c.close()


class TestServerRobustness:
    def test_unknown_major_request(self, server):
        conn = server.open_connection("test")
        frame = encode_request(MajorRequest.NOOP, [])
        # corrupt the major number to an undefined value
        body = bytearray(frame[4:])
        body[2] = 77
        replies = server.handle_frame(conn, bytes(body))
        assert replies  # server answers with an error, doesn't crash

    def test_malformed_frame_returns_error(self, server):
        conn = server.open_connection("test")
        replies = server.handle_frame(conn, b"\x00\x02garbage")
        assert len(replies) == 1

    def test_wrong_arg_count(self, admin_client):
        assert admin_client.mr_query("get_machine", []) == MR_ARGS

    def test_unknown_query(self, admin_client):
        assert admin_client.mr_query("bogus", []) == MR_NO_HANDLE

    def test_handler_exception_does_not_kill_server(self, server,
                                                    admin_client,
                                                    monkeypatch):
        from repro.queries import base as qbase

        query = qbase.get_query("get_machine")
        original = query.handler
        monkeypatch.setattr(query, "handler",
                            lambda ctx, args: 1 / 0)
        code = admin_client.mr_query("get_machine", ["*"])
        assert code != 0
        monkeypatch.setattr(query, "handler", original)
        assert admin_client.mr_noop() == 0


class TestListUsers:
    def test_reports_live_connections(self, server, admin_client,
                                      user_client):
        rows = admin_client.query("_list_users")
        principals = {r[0] for r in rows}
        assert "admin" in principals
        assert "joeuser" in principals

    def test_connection_removed_on_close(self, server, admin_client,
                                         user_client):
        user_client.close()
        rows = admin_client.query("_list_users")
        assert "joeuser" not in {r[0] for r in rows}


class TestJournal:
    def test_side_effects_journaled(self, server, admin_client):
        admin_client.query("add_machine", "J.MIT.EDU", "VAX")
        entries = [e for e in server.journal.entries
                   if e.query == "add_machine"]
        assert entries
        assert entries[-1].who == "admin"
        assert entries[-1].args == ("J.MIT.EDU", "VAX")

    def test_retrievals_not_journaled(self, server, admin_client, run):
        run("add_machine", "R.MIT.EDU", "VAX")
        before = len(server.journal)
        admin_client.query("get_machine", "R*")
        assert len(server.journal) == before

    def test_failed_queries_not_journaled(self, server, admin_client):
        before = len(server.journal)
        admin_client.mr_query("add_machine", ["BAD.MIT.EDU", "CRAY"])
        assert len(server.journal) == before


class TestFailedWriteIsAtomic:
    """A handler that fails midway leaves nothing behind — no rows, no
    consumed id, no journal entry — through the library exactly as
    through the server."""

    @pytest.fixture
    def half_write(self):
        @register("half_write", "hfwr", ("name", "allocate"), (),
                  side_effects=True)
        def half_write(ctx, args):
            mach_id = (ctx.db.next_id("mach_id", now=ctx.now)
                       if args[1] == "1" else 987654)
            ctx.db.table("machine").insert(
                {"name": args[0], "mach_id": mach_id, "type": "VAX"},
                now=ctx.now)
            raise MoiraError(MR_NO_HANDLE, "failed after the insert")
        yield "half_write"
        unregister("half_write")

    @staticmethod
    def _dump(db, directory):
        mrbackup(db, directory)
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    def _assert_atomic(self, db, journal, run_query, allocate, tmp_path):
        before = self._dump(db, tmp_path / "before")
        logged = len(journal)
        assert run_query("half_write",
                         ["HALF.MIT.EDU", allocate]) == MR_NO_HANDLE
        after = self._dump(db, tmp_path / "after")
        # the drawn mach_id rolls back with the insert
        assert journal.entries[logged:] == []
        assert after == before

    @pytest.mark.parametrize("allocate", ["0", "1"])
    def test_via_direct_client(self, half_write, allocate, db, clock,
                               ctx, tmp_path):
        direct = DirectClient(db, clock, journal=ctx.journal)
        self._assert_atomic(db, ctx.journal, direct.mr_query, allocate,
                            tmp_path)

    @pytest.mark.parametrize("allocate", ["0", "1"])
    def test_via_server(self, half_write, allocate, server,
                        admin_client, db, tmp_path):
        self._assert_atomic(db, server.journal, admin_client.mr_query,
                            allocate, tmp_path)
