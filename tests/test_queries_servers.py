"""Tests for servers/serverhosts queries (§7.0.4)."""

from __future__ import annotations

import pytest

from repro.errors import (
    MoiraError,
    MR_IN_USE,
    MR_MACHINE,
    MR_SERVICE,
    MR_TYPE,
)


def expect_error(code, fn, *args):
    with pytest.raises(MoiraError) as exc:
        fn(*args)
    assert exc.value.code == code, exc.value


@pytest.fixture
def svc(run):
    run("add_server_info", "hesiod", 360, "/tmp/h.out", "/bin/h.sh",
        "REPLICAT", 1, "NONE", "NONE")
    run("add_machine", "SUOMI.MIT.EDU", "VAX")
    run("add_server_host_info", "HESIOD", "SUOMI.MIT.EDU", 1, 0, 0, "")
    return "HESIOD"


class TestServerInfo:
    def test_names_uppercased(self, run, svc):
        row = run("get_server_info", "hesiod")[0]
        assert row[0] == "HESIOD"
        assert row[1] == "360"
        assert row[6] == "REPLICAT"

    def test_bad_service_type(self, run):
        expect_error(MR_TYPE, run, "add_server_info", "x", 10, "t", "s",
                     "CLUSTERED", 1, "NONE", "NONE")

    def test_update(self, run, svc):
        run("update_server_info", "hesiod", 720, "/tmp/h2.out",
            "/bin/h2.sh", "UNIQUE", 0, "NONE", "NONE")
        row = run("get_server_info", "HESIOD")[0]
        assert row[1] == "720"
        assert row[7] == "0"

    def test_internal_flags_do_not_touch_modtime(self, run, svc, clock):
        before = run("get_server_info", svc)[0][13]
        clock.advance(500)
        run("set_server_internal_flags", svc, 100, 200, 1, 0, "")
        row = run("get_server_info", svc)[0]
        assert row[4] == "100"    # dfgen
        assert row[5] == "200"    # dfcheck
        assert row[8] == "1"      # inprogress
        assert row[13] == before  # modtime unchanged

    def test_reset_server_error(self, run, svc):
        run("set_server_internal_flags", svc, 100, 200, 0, 1, "boom")
        run("reset_server_error", svc)
        row = run("get_server_info", svc)[0]
        assert row[9] == "0"
        assert row[5] == row[4]  # dfcheck snapped back to dfgen

    def test_delete_with_hosts_refused(self, run, svc):
        expect_error(MR_IN_USE, run, "delete_server_info", svc)
        run("delete_server_host_info", svc, "SUOMI.MIT.EDU")
        run("delete_server_info", svc)

    def test_qualified_get_server(self, run, svc):
        run("add_server_info", "broken", 10, "t", "s", "UNIQUE", 1,
            "NONE", "NONE")
        run("set_server_internal_flags", "broken", 0, 0, 0, 1, "err")
        rows = run("qualified_get_server", "TRUE", "DONTCARE", "TRUE")
        assert [r[0] for r in rows] == ["BROKEN"]
        rows = run("qualified_get_server", "TRUE", "FALSE", "FALSE")
        assert [r[0] for r in rows] == ["HESIOD"]


class TestServerHosts:
    def test_add_requires_existing_service_and_machine(self, run, svc):
        expect_error(MR_SERVICE, run, "add_server_host_info", "GHOST",
                     "SUOMI.MIT.EDU", 1, 0, 0, "")
        expect_error(MR_MACHINE, run, "add_server_host_info", svc,
                     "GHOST.MIT.EDU", 1, 0, 0, "")

    def test_values_roundtrip(self, run, svc):
        run("update_server_host_info", svc, "SUOMI.MIT.EDU", 1, 42, 99,
            "slist")
        row = run("get_server_host_info", svc, "SUOMI*")[0]
        assert (row[10], row[11], row[12]) == ("42", "99", "slist")

    def test_update_refused_while_inprogress(self, run, svc):
        run("set_server_host_internal", svc, "SUOMI.MIT.EDU", 0, 0, 1, 0,
            "", 0, 0)
        expect_error(MR_IN_USE, run, "update_server_host_info", svc,
                     "SUOMI.MIT.EDU", 1, 0, 0, "")

    def test_delete_refused_while_inprogress(self, run, svc):
        run("set_server_host_internal", svc, "SUOMI.MIT.EDU", 0, 0, 1, 0,
            "", 0, 0)
        expect_error(MR_IN_USE, run, "delete_server_host_info", svc,
                     "SUOMI.MIT.EDU")

    def test_override_flag(self, run, svc):
        run("set_server_host_override", svc, "SUOMI.MIT.EDU")
        row = run("get_server_host_info", svc, "*")[0]
        assert row[3] == "1"

    def test_internal_updates_times(self, run, svc):
        run("set_server_host_internal", svc, "SUOMI.MIT.EDU", 0, 1, 0, 0,
            "", 1111, 2222)
        row = run("get_server_host_info", svc, "*")[0]
        assert row[8] == "1111"   # lasttry
        assert row[9] == "2222"   # lastsuccess
        assert row[4] == "1"      # success

    def test_reset_host_error(self, run, svc):
        run("set_server_host_internal", svc, "SUOMI.MIT.EDU", 0, 0, 0,
            55, "bad", 0, 0)
        run("reset_server_host_error", svc, "SUOMI.MIT.EDU")
        row = run("get_server_host_info", svc, "*")[0]
        assert row[6] == "0"
        assert row[7] == ""

    def test_qualified_get_server_host(self, run, svc):
        run("add_machine", "KIWI.MIT.EDU", "VAX")
        run("add_server_host_info", svc, "KIWI.MIT.EDU", 1, 0, 0, "")
        run("set_server_host_internal", svc, "KIWI.MIT.EDU", 0, 1, 0, 0,
            "", 10, 10)
        ok = run("qualified_get_server_host", svc, "TRUE", "DONTCARE",
                 "TRUE", "DONTCARE", "DONTCARE")
        assert [r[1] for r in ok] == ["KIWI.MIT.EDU"]
        pending = run("qualified_get_server_host", svc, "TRUE",
                      "DONTCARE", "FALSE", "DONTCARE", "DONTCARE")
        assert [r[1] for r in pending] == ["SUOMI.MIT.EDU"]

    def test_get_server_locations(self, run, svc):
        run("add_machine", "KIWI.MIT.EDU", "VAX")
        run("add_server_host_info", svc, "KIWI.MIT.EDU", 1, 0, 0, "")
        rows = run("get_server_locations", "HES*")
        assert {r[1] for r in rows} == {"SUOMI.MIT.EDU", "KIWI.MIT.EDU"}
