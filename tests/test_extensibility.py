"""Tests for the paper's expansion requirements (§4, §5.1 D).

"Ability for expansion and routine upgrades ... as new services are
added, the mechanism which supports those services must be easily
added" — a site registers a brand-new managed service (generator +
server rows + host binding) and the DCM picks it up without any core
changes.

"The system is designed to allow further expansion ... with the
ultimate capability of Moira supporting multiple databases through the
same query mechanism" — a query handle bound to a secondary database
resolves transparently through the same application interface.
"""

from __future__ import annotations

import pytest

from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.engine import Column, Database, Table
from repro.dcm.dcm import ServiceBinding
from repro.dcm.generators.base import (
    GenContext,
    Generator,
    GeneratorResult,
    register_generator,
)
from repro.queries.base import (
    QueryContext,
    execute_query,
    register,
    unregister,
)
from repro.workload import PopulationSpec


class MotdGenerator(Generator):
    """A site-local service: ships /etc/motd from the values relation."""

    service = "MOTD"
    depends = ("values",)

    def generate(self, ctx: GenContext) -> GeneratorResult:
        stamp = ctx.db.get_value("motd_serial")
        text = f"Welcome to Athena. MOTD serial {stamp}.\n"
        return GeneratorResult(files={"/etc/motd": text.encode()})


@pytest.fixture
def deployment():
    return AthenaDeployment(DeploymentConfig(population=PopulationSpec(
        users=20, unregistered_users=0, nfs_servers=2, maillists=3,
        clusters=1, machines_per_cluster=1, printers=2,
        network_services=4)))


class TestNewService:
    def test_site_adds_a_service_end_to_end(self, deployment):
        d = deployment
        client = d.direct_client()

        # 1. the new generator module is "checked in via dcm_maint"
        register_generator(MotdGenerator())
        client.query("add_value", "motd_serial", 1)

        # 2. register the service and its host with ordinary queries
        client.query("add_machine", "MOTDHOST.MIT.EDU", "VAX")
        client.query("add_server_info", "MOTD", 60, "/tmp/motd.out",
                     "/bin/motd.sh", "UNIQUE", 1, "NONE", "NONE")
        client.query("add_server_host_info", "MOTD", "MOTDHOST.MIT.EDU",
                     1, 0, 0, "")

        # 3. bind the simulated host
        host = d._make_host("MOTDHOST.MIT.EDU")
        d.dcm.bind_host("MOTD", "MOTDHOST.MIT.EDU", ServiceBinding(
            host=host, daemon=d.daemons["MOTDHOST.MIT.EDU"]))

        # 4. the DCM picks it up on its next due cycle
        d.run_hours(2)
        assert host.fs.read("/etc/motd").startswith(b"Welcome")

        # 5. and the no-change machinery applies to it too
        gen_before = d.dcm.total_generations
        d.run_hours(2)
        assert d.dcm.total_generations == gen_before
        client.query("update_value", "motd_serial", 2)
        d.run_hours(2)
        assert b"serial 2" in host.fs.read("/etc/motd")


class TestMultipleDatabases:
    def _phonebook(self) -> Database:
        db = Database()
        db.create_table(Table(
            "entries",
            [Column("name", str, max_len=32),
             Column("phone", str, max_len=16)],
            unique=[("name",)], indexes=["name"]))
        db.table("entries").insert({"name": "mitinfo",
                                    "phone": "253-1000"})
        return db

    def test_query_handle_routes_to_secondary_database(self, db, clock):
        phonebook = self._phonebook()

        @register("get_phone", "gpho", ("name",), ("name", "phone"),
                  side_effects=False, public=True, database="phonebook")
        def get_phone(ctx, args):
            return [(r["name"], r["phone"])
                    for r in ctx.db.table("entries").select(
                        {"name": args[0]})]

        try:
            ctx = QueryContext(db=db, clock=clock, caller="root",
                               privileged=True,
                               extra_databases={"phonebook": phonebook})
            rows = execute_query(ctx, "get_phone", ["mitinfo"])
            assert rows == [("mitinfo", "253-1000")]
            # the primary database was untouched and primary queries
            # still resolve against it
            assert "entries" not in db.tables
            execute_query(ctx, "add_machine", ["MIXED.MIT.EDU", "VAX"])
            assert db.table("machine").select({"name": "MIXED.MIT.EDU"})
        finally:
            unregister("get_phone")

    def test_missing_secondary_database_fails_cleanly(self, db, clock):
        from repro.errors import MoiraError, MR_NO_HANDLE

        @register("get_phone2", "gph2", ("name",), ("name",),
                  side_effects=False, public=True, database="phonebook")
        def get_phone2(ctx, args):
            return [("x",)]

        try:
            ctx = QueryContext(db=db, clock=clock, caller="root",
                               privileged=True)
            with pytest.raises(MoiraError) as exc:
                execute_query(ctx, "get_phone2", ["a"])
            assert exc.value.code == MR_NO_HANDLE
        finally:
            unregister("get_phone2")

    def test_unregister_removes_handle(self, db, clock):
        from repro.errors import MoiraError, MR_NO_HANDLE

        @register("temp_query", "tmpq", (), (), side_effects=False,
                  public=True)
        def temp_query(ctx, args):
            return [("ok",)]

        unregister("temp_query")
        ctx = QueryContext(db=db, clock=clock, caller="root",
                           privileged=True)
        with pytest.raises(MoiraError) as exc:
            execute_query(ctx, "temp_query", [])
        assert exc.value.code == MR_NO_HANDLE
