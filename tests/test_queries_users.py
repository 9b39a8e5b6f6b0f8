"""Tests for the user/finger/pobox predefined queries (§7.0.1)."""

from __future__ import annotations

import pytest

from repro.db.schema import UNIQUE_LOGIN, UNIQUE_UID
from repro.errors import (
    MoiraError,
    MR_BAD_CLASS,
    MR_IN_USE,
    MR_MACHINE,
    MR_NO_MATCH,
    MR_NO_POBOX,
    MR_NOT_UNIQUE,
    MR_TYPE,
    MR_USER,
)
from tests.conftest import make_user


def expect_error(code, fn, *args):
    with pytest.raises(MoiraError) as exc:
        fn(*args)
    assert exc.value.code == code, exc.value


class TestAddUser:
    def test_add_and_get(self, run):
        run("add_user", "babette", 6530, "/bin/csh", "Fowler", "Harmon",
            "C", 1, "crypt", "1990")
        row = run("get_user_by_login", "babette")[0]
        assert row[0] == "babette"
        assert row[1] == "6530"
        assert row[6] == "1"

    def test_unique_uid_sentinel_allocates(self, run):
        run("add_user", "u1", UNIQUE_UID, "/bin/csh", "A", "B", "", 1,
            "", "1990")
        run("add_user", "u2", UNIQUE_UID, "/bin/csh", "A", "B", "", 1,
            "", "1990")
        uid1 = run("get_user_by_login", "u1")[0][1]
        uid2 = run("get_user_by_login", "u2")[0][1]
        assert int(uid2) == int(uid1) + 1

    def test_unique_login_sentinel(self, run):
        run("add_user", UNIQUE_LOGIN, 7000, "/bin/csh", "A", "B", "", 0,
            "", "1990")
        row = run("get_user_by_login", "#7000")[0]
        assert row[0] == "#7000"

    def test_duplicate_login_rejected(self, run):
        make_user(run, "dup")
        expect_error(MR_NOT_UNIQUE, run, "add_user", "dup", UNIQUE_UID,
                     "/bin/csh", "A", "B", "", 1, "", "1990")

    def test_bad_class_rejected(self, run):
        expect_error(MR_BAD_CLASS, run, "add_user", "x", UNIQUE_UID,
                     "/bin/csh", "A", "B", "", 1, "", "NOCLASS")

    def test_add_initializes_pobox_none(self, run):
        make_user(run, "fresh")
        assert run("get_pobox", "fresh")[0][1] == "NONE"

    def test_add_initializes_finger_fullname(self, run):
        run("add_user", "finger", UNIQUE_UID, "/bin/csh", "Last", "First",
            "M", 1, "", "1990")
        finger = run("get_finger_by_login", "finger")[0]
        assert finger[1] == "First M Last"


class TestGetUsers:
    def test_wildcard_login(self, run):
        make_user(run, "wilma")
        make_user(run, "wilbur")
        make_user(run, "fred")
        rows = run("get_user_by_login", "wil*")
        assert {r[0] for r in rows} == {"wilma", "wilbur"}

    def test_get_by_uid(self, run):
        make_user(run, "byuid", uid=4242)
        assert run("get_user_by_uid", "4242")[0][0] == "byuid"

    def test_get_by_name_wildcards(self, run):
        run("add_user", "n1", UNIQUE_UID, "/bin/csh", "Smith", "Alice",
            "", 1, "", "1990")
        run("add_user", "n2", UNIQUE_UID, "/bin/csh", "Smith", "Bob", "",
            1, "", "1990")
        rows = run("get_user_by_name", "*", "Smith")
        assert len(rows) == 2

    def test_get_by_class(self, run):
        make_user(run, "grad", year="G")
        make_user(run, "senior", year="1989")
        rows = run("get_user_by_class", "G")
        assert [r[0] for r in rows] == ["grad"]

    def test_no_match_raises(self, run):
        expect_error(MR_NO_MATCH, run, "get_user_by_login", "ghost")

    def test_all_vs_active_logins(self, run):
        make_user(run, "active1", status=1)
        make_user(run, "inactive", status=0)
        all_rows = run("get_all_logins")
        active_rows = run("get_all_active_logins")
        assert {r[0] for r in all_rows} == {"active1", "inactive"}
        assert {r[0] for r in active_rows} == {"active1"}


class TestUpdateUser:
    def test_rename_preserves_identity(self, run):
        make_user(run, "oldname")
        uid = run("get_user_by_login", "oldname")[0][1]
        run("update_user", "oldname", "newname", uid, "/bin/sh", "N",
            "N", "", 1, "", "1990")
        assert run("get_user_by_login", "newname")[0][1] == uid
        expect_error(MR_NO_MATCH, run, "get_user_by_login", "oldname")

    def test_rename_to_taken_name(self, run):
        make_user(run, "a")
        make_user(run, "b")
        uid = run("get_user_by_login", "a")[0][1]
        expect_error(MR_NOT_UNIQUE, run, "update_user", "a", "b", uid,
                     "/bin/csh", "A", "A", "", 1, "", "1990")

    def test_update_shell(self, run):
        make_user(run, "sheller")
        run("update_user_shell", "sheller", "/bin/sh")
        assert run("get_user_by_login", "sheller")[0][2] == "/bin/sh"

    def test_update_status(self, run):
        make_user(run, "st", status=1)
        run("update_user_status", "st", 3)
        assert run("get_user_by_login", "st")[0][6] == "3"

    def test_update_nonexistent_user(self, run):
        expect_error(MR_USER, run, "update_user_shell", "ghost",
                     "/bin/sh")

    def test_wildcard_matching_multiple_users_not_unique(self, run):
        make_user(run, "pat1")
        make_user(run, "pat2")
        expect_error(MR_NOT_UNIQUE, run, "update_user_shell", "pat*",
                     "/bin/sh")


class TestDeleteUser:
    def test_delete_requires_status_zero(self, run):
        make_user(run, "victim", status=1)
        expect_error(MR_IN_USE, run, "delete_user", "victim")
        run("update_user_status", "victim", 0)
        run("delete_user", "victim")
        expect_error(MR_NO_MATCH, run, "get_user_by_login", "victim")

    def test_delete_list_member_refused(self, run):
        make_user(run, "member", status=0)
        run("add_list", "keeper", 1, 0, 0, 1, 0, 0, "NONE", "NONE", "d")
        run("add_member_to_list", "keeper", "USER", "member")
        expect_error(MR_IN_USE, run, "delete_user", "member")

    def test_delete_by_uid(self, run):
        make_user(run, "byuid2", status=0, uid=5151)
        run("delete_user_by_uid", 5151)
        expect_error(MR_NO_MATCH, run, "get_user_by_login", "byuid2")

    def test_delete_ace_holder_refused(self, run):
        make_user(run, "acer", status=0)
        run("add_list", "guarded", 1, 0, 0, 1, 0, 0, "USER", "acer", "d")
        expect_error(MR_IN_USE, run, "delete_user", "acer")


class TestFinger:
    def test_update_and_get(self, run):
        make_user(run, "fingered")
        run("update_finger_by_login", "fingered", "Full Name", "nick",
            "1 Home St", "555-1234", "E40-342", "555-9876", "EECS",
            "undergraduate")
        row = run("get_finger_by_login", "fingered")[0]
        assert row[1] == "Full Name"
        assert row[2] == "nick"
        assert row[7] == "EECS"

    def test_finger_modtime_separate_from_user_modtime(self, ctx, run,
                                                       clock):
        make_user(run, "fmod")
        before = run("get_user_by_login", "fmod")[0][9]
        clock.advance(100)
        run("update_finger_by_login", "fmod", "F", "", "", "", "", "", "",
            "")
        row = run("get_finger_by_login", "fmod")[0]
        assert int(row[9]) == int(before) + 100   # fmodtime updated
        assert run("get_user_by_login", "fmod")[0][9] == before


class TestPobox:
    def _machine(self, run, name="E40-PO.MIT.EDU"):
        run("add_machine", name, "VAX")
        return name

    def test_set_pop_pobox(self, run):
        make_user(run, "popper")
        machine = self._machine(run)
        run("set_pobox", "popper", "POP", machine)
        row = run("get_pobox", "popper")[0]
        assert row[1] == "POP"
        assert row[2] == machine

    def test_pop_box_requires_real_machine(self, run):
        """The paper's e40-p0 typo scenario."""
        make_user(run, "typo")
        self._machine(run, "E40-PO.MIT.EDU")
        expect_error(MR_MACHINE, run, "set_pobox", "typo", "POP",
                     "E40-P0.MIT.EDU")

    def test_smtp_pobox(self, run):
        make_user(run, "smtper")
        run("set_pobox", "smtper", "SMTP", "smtper@other.edu")
        row = run("get_pobox", "smtper")[0]
        assert row[1] == "SMTP"
        assert row[2] == "smtper@other.edu"

    def test_bad_type(self, run):
        make_user(run, "badtype")
        expect_error(MR_TYPE, run, "set_pobox", "badtype", "UUCP", "x")

    def test_delete_pobox_sets_none(self, run):
        make_user(run, "deleter")
        machine = self._machine(run)
        run("set_pobox", "deleter", "POP", machine)
        run("delete_pobox", "deleter")
        assert run("get_pobox", "deleter")[0][1] == "NONE"

    def test_set_pobox_pop_restores_previous(self, run):
        make_user(run, "restorer")
        machine = self._machine(run)
        run("set_pobox", "restorer", "POP", machine)
        run("delete_pobox", "restorer")
        run("set_pobox_pop", "restorer")
        row = run("get_pobox", "restorer")[0]
        assert row[1] == "POP"
        assert row[2] == machine

    def test_set_pobox_pop_without_history_fails(self, run):
        make_user(run, "nohist")
        expect_error(MR_MACHINE, run, "set_pobox_pop", "nohist")

    def test_get_poboxes_filtered_by_type(self, run):
        make_user(run, "p1")
        make_user(run, "p2")
        machine = self._machine(run)
        run("set_pobox", "p1", "POP", machine)
        run("set_pobox", "p2", "SMTP", "p2@elsewhere.org")
        pops = run("get_poboxes_pop")
        smtps = run("get_poboxes_smtp")
        assert [r[0] for r in pops] == ["p1"]
        assert [r[0] for r in smtps] == ["p2"]
        assert {r[0] for r in run("get_all_poboxes")} == {"p1", "p2"}


class TestRegisterUser:
    def _setup_infrastructure(self, run):
        run("add_machine", "PO.MIT.EDU", "VAX")
        run("add_server_info", "POP", 0, "", "", "REPLICAT", 1, "NONE",
            "NONE")
        run("add_server_host_info", "POP", "PO.MIT.EDU", 1, 0, 100, "")
        run("add_machine", "FS.MIT.EDU", "VAX")
        run("add_nfsphys", "FS.MIT.EDU", "/u1", "ra81", 1, 0, 10000)

    def test_full_registration(self, run, db):
        self._setup_infrastructure(run)
        run("add_user", UNIQUE_LOGIN, 7100, "/bin/csh", "Student", "New",
            "", 0, "hash", "1992")
        run("register_user", 7100, "newkid", 1)
        row = run("get_user_by_login", "newkid")[0]
        assert row[6] == "2"  # half-registered
        # pobox assigned
        assert run("get_pobox", "newkid")[0][1] == "POP"
        # personal group created with the user as member
        members = run("get_members_of_list", "newkid")
        assert members == [("USER", "newkid")]
        # home filesystem + quota
        fs = run("get_filesys_by_label", "newkid")[0]
        assert fs[10] == "HOMEDIR"
        quota = run("get_nfs_quota", "newkid", "newkid")[0]
        assert int(quota[2]) == db.get_value("def_quota")

    def test_register_taken_login(self, run):
        self._setup_infrastructure(run)
        make_user(run, "taken")
        run("add_user", UNIQUE_LOGIN, 7200, "/bin/csh", "S", "T", "", 0,
            "", "1992")
        expect_error(MR_IN_USE, run, "register_user", 7200, "taken", 1)

    def test_register_active_account_refused(self, run):
        self._setup_infrastructure(run)
        make_user(run, "already", status=1, uid=7300)
        expect_error(MR_IN_USE, run, "register_user", 7300, "again", 1)

    def test_register_without_pop_space(self, run):
        run("add_machine", "FS.MIT.EDU", "VAX")
        run("add_nfsphys", "FS.MIT.EDU", "/u1", "ra81", 1, 0, 10000)
        run("add_user", UNIQUE_LOGIN, 7400, "/bin/csh", "S", "T", "", 0,
            "", "1992")
        expect_error(MR_NO_POBOX, run, "register_user", 7400, "nopop", 1)

    def test_registration_updates_pop_load(self, run, db):
        self._setup_infrastructure(run)
        run("add_user", UNIQUE_LOGIN, 7500, "/bin/csh", "S", "T", "", 0,
            "", "1992")
        run("register_user", 7500, "loaded", 1)
        row = run("get_server_host_info", "POP", "PO.MIT.EDU")[0]
        assert row[10] == "1"  # value1 incremented
