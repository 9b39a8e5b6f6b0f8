"""Tests for list/member queries (§7.0.3)."""

from __future__ import annotations

import pytest

from repro.errors import (
    MoiraError,
    MR_EXISTS,
    MR_IN_USE,
    MR_LIST,
    MR_NO_MATCH,
    MR_TYPE,
)
from tests.conftest import make_user


def expect_error(code, fn, *args):
    with pytest.raises(MoiraError) as exc:
        fn(*args)
    assert exc.value.code == code, exc.value


def add_list(run, name, *, active=1, public=0, hidden=0, maillist=1,
             group=0, gid=0, ace_type="NONE", ace_name="NONE", desc="d"):
    run("add_list", name, active, public, hidden, maillist, group, gid,
        ace_type, ace_name, desc)


class TestAddList:
    def test_add_and_info(self, run):
        make_user(run, "owner")
        add_list(run, "video-users", public=1, ace_type="USER",
                 ace_name="owner")
        row = run("get_list_info", "video-users")[0]
        assert row[0] == "video-users"
        assert row[2] == 1          # public
        assert row[7] == "USER"
        assert row[8] == "owner"

    def test_unique_gid_assignment(self, run):
        add_list(run, "g1", group=1, gid=-1)
        add_list(run, "g2", group=1, gid=-1)
        gid1 = run("get_list_info", "g1")[0][6]
        gid2 = run("get_list_info", "g2")[0][6]
        assert gid2 == gid1 + 1

    def test_explicit_gid(self, run):
        add_list(run, "g", group=1, gid=4242)
        assert run("get_list_info", "g")[0][6] == 4242

    def test_duplicate_rejected(self, run):
        add_list(run, "dup")
        expect_error(MR_EXISTS, run, "add_list", "dup", 1, 0, 0, 1, 0, 0,
                     "NONE", "NONE", "d")

    def test_self_referential_ace(self, run):
        """The access list may be the list that is being created."""
        add_list(run, "selfref", ace_type="LIST", ace_name="selfref")
        row = run("get_list_info", "selfref")[0]
        assert row[7] == "LIST"
        assert row[8] == "selfref"


class TestUpdateDeleteList:
    def test_rename_keeps_members(self, run):
        make_user(run, "m")
        add_list(run, "before")
        run("add_member_to_list", "before", "USER", "m")
        run("update_list", "before", "after", 1, 0, 0, 1, 0, 0, "NONE",
            "NONE", "d")
        assert run("get_members_of_list", "after") == [("USER", "m")]

    def test_delete_empty_list(self, run):
        add_list(run, "empty")
        run("delete_list", "empty")
        expect_error(MR_NO_MATCH, run, "get_list_info", "empty")

    def test_delete_nonempty_refused(self, run):
        make_user(run, "m")
        add_list(run, "full")
        run("add_member_to_list", "full", "USER", "m")
        expect_error(MR_IN_USE, run, "delete_list", "full")

    def test_delete_sublist_refused(self, run):
        add_list(run, "inner")
        add_list(run, "outer")
        run("add_member_to_list", "outer", "LIST", "inner")
        expect_error(MR_IN_USE, run, "delete_list", "inner")

    def test_delete_acl_list_refused(self, run):
        add_list(run, "acl-list")
        add_list(run, "guarded", ace_type="LIST", ace_name="acl-list")
        expect_error(MR_IN_USE, run, "delete_list", "acl-list")

    def test_delete_self_referential_allowed(self, run):
        add_list(run, "selfy", ace_type="LIST", ace_name="selfy")
        run("delete_list", "selfy")


class TestMembers:
    def test_add_user_member(self, run):
        make_user(run, "u")
        add_list(run, "l")
        run("add_member_to_list", "l", "USER", "u")
        assert run("get_members_of_list", "l") == [("USER", "u")]

    def test_add_string_member(self, run):
        add_list(run, "l")
        run("add_member_to_list", "l", "STRING", "ext@media-lab.mit.edu")
        assert run("get_members_of_list", "l") == [
            ("STRING", "ext@media-lab.mit.edu")]

    def test_add_list_member(self, run):
        add_list(run, "inner")
        add_list(run, "outer")
        run("add_member_to_list", "outer", "LIST", "inner")
        assert run("get_members_of_list", "outer") == [("LIST", "inner")]

    def test_duplicate_member_rejected(self, run):
        make_user(run, "u")
        add_list(run, "l")
        run("add_member_to_list", "l", "USER", "u")
        expect_error(MR_EXISTS, run, "add_member_to_list", "l", "USER",
                     "u")

    def test_bad_member_type(self, run):
        add_list(run, "l")
        expect_error(MR_TYPE, run, "add_member_to_list", "l", "ROBOT",
                     "r2d2")

    def test_unknown_member(self, run):
        add_list(run, "l")
        expect_error(MR_NO_MATCH, run, "add_member_to_list", "l", "USER",
                     "ghost")

    def test_delete_member(self, run):
        make_user(run, "u")
        add_list(run, "l")
        run("add_member_to_list", "l", "USER", "u")
        run("delete_member_from_list", "l", "USER", "u")
        # an empty retrieval is MR_NO_MATCH, per §7's general errors
        expect_error(MR_NO_MATCH, run, "get_members_of_list", "l")
        assert run("count_members_of_list", "l") == [(0,)]

    def test_delete_absent_member(self, run):
        make_user(run, "u")
        add_list(run, "l")
        expect_error(MR_NO_MATCH, run, "delete_member_from_list", "l",
                     "USER", "u")

    def test_count_members(self, run):
        add_list(run, "counted")
        for i in range(5):
            make_user(run, f"cm{i}")
            run("add_member_to_list", "counted", "USER", f"cm{i}")
        assert run("count_members_of_list", "counted") == [(5,)]

    def test_get_members_of_unknown_list(self, run):
        expect_error(MR_LIST, run, "get_members_of_list", "ghost")


class TestListsOfMember:
    def test_direct_membership(self, run):
        make_user(run, "u")
        add_list(run, "a")
        add_list(run, "b")
        run("add_member_to_list", "a", "USER", "u")
        rows = run("get_lists_of_member", "USER", "u")
        assert [r[0] for r in rows] == ["a"]

    def test_recursive_membership(self, run):
        make_user(run, "u")
        add_list(run, "inner")
        add_list(run, "middle")
        add_list(run, "outer")
        run("add_member_to_list", "inner", "USER", "u")
        run("add_member_to_list", "middle", "LIST", "inner")
        run("add_member_to_list", "outer", "LIST", "middle")
        direct = {r[0] for r in run("get_lists_of_member", "USER", "u")}
        recursive = {r[0] for r in run("get_lists_of_member", "RUSER",
                                       "u")}
        assert direct == {"inner"}
        assert recursive == {"inner", "middle", "outer"}

    def test_cyclic_sublists_terminate(self, run):
        make_user(run, "u")
        add_list(run, "x")
        add_list(run, "y")
        run("add_member_to_list", "x", "LIST", "y")
        run("add_member_to_list", "y", "LIST", "x")
        run("add_member_to_list", "x", "USER", "u")
        recursive = {r[0] for r in run("get_lists_of_member", "RUSER",
                                       "u")}
        assert recursive == {"x", "y"}

    def test_string_member(self, run):
        """A retrieval resolves a STRING through the read view, which
        looks the string up and never allocates one."""
        add_list(run, "a")
        add_list(run, "b")
        add_list(run, "outer")
        run("add_member_to_list", "a", "STRING", "ext@media-lab.mit.edu")
        run("add_member_to_list", "outer", "LIST", "a")
        rows = run("get_lists_of_member", "STRING", "ext@media-lab.mit.edu")
        assert [r[0] for r in rows] == ["a"]
        recursive = {r[0] for r in run("get_lists_of_member", "RSTRING",
                                       "ext@media-lab.mit.edu")}
        assert recursive == {"a", "outer"}
        expect_error(MR_NO_MATCH, run, "get_lists_of_member", "STRING",
                     "nobody@nowhere")

    def test_bad_type(self, run):
        expect_error(MR_TYPE, run, "get_lists_of_member", "ROBOT", "u")


class TestQualifiedGetLists:
    def test_tristate_filters(self, run):
        add_list(run, "pub-mail", public=1, maillist=1)
        add_list(run, "priv-mail", public=0, maillist=1)
        add_list(run, "pub-group", public=1, maillist=0, group=1)
        rows = run("qualified_get_lists", "TRUE", "TRUE", "FALSE", "TRUE",
                   "DONTCARE")
        assert [r[0] for r in rows] == ["pub-mail"]
        rows = run("qualified_get_lists", "TRUE", "DONTCARE", "FALSE",
                   "DONTCARE", "TRUE")
        assert [r[0] for r in rows] == ["pub-group"]

    def test_invalid_tristate(self, run):
        expect_error(MR_TYPE, run, "qualified_get_lists", "MAYBE",
                     "TRUE", "FALSE", "TRUE", "TRUE")


class TestExpandListNames:
    def test_wildcard_expansion(self, run):
        add_list(run, "course-6.001")
        add_list(run, "course-6.002")
        add_list(run, "staff")
        rows = run("expand_list_names", "course-6.*")
        assert {r[0] for r in rows} == {"course-6.001", "course-6.002"}

    def test_hidden_lists_not_expanded(self, run):
        add_list(run, "visible-x")
        add_list(run, "hidden-x", hidden=1)
        rows = run("expand_list_names", "*-x")
        assert {r[0] for r in rows} == {"visible-x"}


class TestGetAceUse:
    def test_user_ace_on_list(self, run):
        make_user(run, "boss")
        add_list(run, "managed", ace_type="USER", ace_name="boss")
        rows = run("get_ace_use", "USER", "boss")
        assert ("LIST", "managed") in rows

    def test_ruser_finds_via_acl_list(self, run):
        make_user(run, "worker")
        add_list(run, "admins")
        run("add_member_to_list", "admins", "USER", "worker")
        add_list(run, "managed", ace_type="LIST", ace_name="admins")
        # direct USER search finds nothing -> MR_NO_MATCH
        expect_error(MR_NO_MATCH, run, "get_ace_use", "USER", "worker")
        recursive = run("get_ace_use", "RUSER", "worker")
        assert ("LIST", "managed") in recursive

    def test_query_capability_reported(self, ctx, run, db):
        from repro.server.access import seed_capacls
        make_user(run, "cap")
        seed_capacls(db)
        run("add_member_to_list", "moira-admins", "USER", "cap")
        rows = run("get_ace_use", "RUSER", "cap")
        assert ("QUERY", "add_user") in rows

    def test_bad_type(self, run):
        expect_error(MR_TYPE, run, "get_ace_use", "STRING", "x")
