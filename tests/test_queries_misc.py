"""Tests for zephyr, hostaccess, services, printcap, alias, values,
tblstats, and built-in queries (§7.0.6-7.0.8)."""

from __future__ import annotations

import pytest

from repro.errors import (
    MoiraError,
    MR_ACE,
    MR_EXISTS,
    MR_NO_HANDLE,
    MR_NO_MATCH,
    MR_TYPE,
)
from tests.conftest import make_user


def expect_error(code, fn, *args):
    with pytest.raises(MoiraError) as exc:
        fn(*args)
    assert exc.value.code == code, exc.value


class TestZephyr:
    def test_add_get(self, run):
        make_user(run, "zuser")
        run("add_zephyr_class", "message", "USER", "zuser", "NONE",
            "NONE", "NONE", "NONE", "NONE", "NONE")
        row = run("get_zephyr_class", "message")[0]
        assert row[1] == "USER"
        assert row[2] == "zuser"
        assert row[3] == "NONE"

    def test_update_rename(self, run):
        run("add_zephyr_class", "old", "NONE", "NONE", "NONE", "NONE",
            "NONE", "NONE", "NONE", "NONE")
        run("update_zephyr_class", "old", "new", "NONE", "NONE", "NONE",
            "NONE", "NONE", "NONE", "NONE", "NONE")
        assert run("get_zephyr_class", "new")
        expect_error(MR_NO_MATCH, run, "get_zephyr_class", "old")

    def test_duplicate_class(self, run):
        run("add_zephyr_class", "dup", "NONE", "NONE", "NONE", "NONE",
            "NONE", "NONE", "NONE", "NONE")
        expect_error(MR_EXISTS, run, "add_zephyr_class", "dup", "NONE",
                     "NONE", "NONE", "NONE", "NONE", "NONE", "NONE",
                     "NONE")

    def test_bad_ace(self, run):
        expect_error(MR_ACE, run, "add_zephyr_class", "x", "USER",
                     "ghost", "NONE", "NONE", "NONE", "NONE", "NONE",
                     "NONE")

    def test_delete(self, run):
        run("add_zephyr_class", "bye", "NONE", "NONE", "NONE", "NONE",
            "NONE", "NONE", "NONE", "NONE")
        run("delete_zephyr_class", "bye")
        expect_error(MR_NO_MATCH, run, "get_zephyr_class", "bye")


class TestHostAccess:
    def test_roundtrip(self, run):
        run("add_machine", "SRV.MIT.EDU", "VAX")
        make_user(run, "op")
        run("add_server_host_access", "SRV.MIT.EDU", "USER", "op")
        row = run("get_server_host_access", "SRV*")[0]
        assert (row[1], row[2]) == ("USER", "op")
        run("update_server_host_access", "SRV.MIT.EDU", "NONE", "NONE")
        assert run("get_server_host_access", "SRV*")[0][1] == "NONE"
        run("delete_server_host_access", "SRV.MIT.EDU")
        expect_error(MR_NO_MATCH, run, "get_server_host_access", "SRV*")


class TestServices:
    def test_add_get_delete(self, run):
        run("add_service", "smtp", "TCP", 25, "mail transfer")
        row = run("get_service", "smtp")[0]
        assert row[2] == "25"
        run("delete_service", "smtp")
        expect_error(MR_NO_MATCH, run, "get_service", "smtp")

    def test_protocol_validated(self, run):
        expect_error(MR_TYPE, run, "add_service", "x", "IPX", 1, "d")

    def test_duplicate(self, run):
        run("add_service", "dup", "TCP", 1, "")
        expect_error(MR_EXISTS, run, "add_service", "dup", "UDP", 2, "")


class TestPrintcap:
    def test_roundtrip(self, run):
        run("add_machine", "BLANKET.MIT.EDU", "VAX")
        run("add_printcap", "linus", "BLANKET.MIT.EDU",
            "/usr/spool/printer/linus", "linus", "E40 4th floor")
        row = run("get_printcap", "linus")[0]
        assert row[1] == "BLANKET.MIT.EDU"
        assert row[2] == "/usr/spool/printer/linus"
        run("delete_printcap", "linus")
        expect_error(MR_NO_MATCH, run, "get_printcap", "linus")


class TestAlias:
    def test_add_requires_known_type(self, run):
        expect_error(MR_TYPE, run, "add_alias", "n", "NICKNAME", "t")

    def test_filesys_alias(self, run):
        run("add_alias", "x11", "FILESYS", "xwindows")
        rows = run("get_alias", "x11", "FILESYS", "*")
        assert rows == [("x11", "FILESYS", "xwindows")]

    def test_duplicate_translation_ok_different_triples(self, run):
        run("add_alias", "svc1", "SERVICE", "real1")
        run("add_alias", "svc1", "SERVICE", "real2")
        assert len(run("get_alias", "svc1", "SERVICE", "*")) == 2

    def test_exact_duplicate_rejected(self, run):
        run("add_alias", "a", "SERVICE", "b")
        expect_error(MR_EXISTS, run, "add_alias", "a", "SERVICE", "b")

    def test_type_system_is_queryable(self, run):
        """The TYPE rows that validate other queries are themselves
        visible through get_alias."""
        rows = run("get_alias", "pobox", "TYPE", "*")
        assert {r[2] for r in rows} == {"POP", "SMTP", "NONE"}

    def test_delete_alias(self, run):
        run("add_alias", "gone", "SERVICE", "x")
        run("delete_alias", "gone", "SERVICE", "x")
        expect_error(MR_NO_MATCH, run, "get_alias", "gone", "SERVICE",
                     "*")


class TestValues:
    def test_crud(self, run):
        run("add_value", "test_var", 42)
        assert run("get_value", "test_var") == [("42",)]
        run("update_value", "test_var", 43)
        assert run("get_value", "test_var") == [("43",)]
        run("delete_value", "test_var")
        expect_error(MR_NO_MATCH, run, "get_value", "test_var")

    def test_seeded_values_exist(self, run):
        assert run("get_value", "dcm_enable") == [("1",)]
        assert int(run("get_value", "def_quota")[0][0]) > 0


class TestTableStats:
    def test_appends_counted(self, run):
        make_user(run, "counted")
        stats = {r[0]: r for r in run("get_all_table_stats")}
        assert stats["users"][2] == "1"  # appends

    def test_updates_and_deletes_counted(self, run):
        make_user(run, "mutate", status=0)
        run("update_user_shell", "mutate", "/bin/sh")
        run("delete_user", "mutate")
        stats = {r[0]: r for r in run("get_all_table_stats")}
        assert int(stats["users"][3]) >= 1  # updates
        assert stats["users"][4] == "1"  # deletes


class TestBuiltins:
    def test_help(self, run):
        text = run("_help", "get_machine")[0][0]
        assert "gmac" in text
        assert "name" in text

    def test_help_short_name(self, run):
        assert "get_machine" in run("_help", "gmac")[0][0]

    def test_help_unknown(self, run):
        expect_error(MR_NO_HANDLE, run, "_help", "bogus_query")

    def test_list_queries_complete(self, run):
        rows = run("_list_queries")
        names = {r[0] for r in rows}
        assert "get_user_by_login" in names
        assert "delete_nfs_quota" in names
        assert len(rows) > 100  # "Over 100 query handles"

    def test_unknown_query_raises_no_handle(self, run):
        expect_error(MR_NO_HANDLE, run, "frob_the_widget")
