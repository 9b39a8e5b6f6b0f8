"""A published row state never changes.

The memory engine stores each row state once: the head row a table
hands out *is* its newest version's data, shared by the writer and by
every snapshot that sees it.  So anything that writes into a row it
read changes what pinned readers see.  The sweep here copies every
version reachable from every version store before each step and, after
the step, checks each one still holds what it held.  The steps:

* one bound call of every retrieval (``test_read_replies.examples``);
* a walk-up registration (verify, grab the login, set the password);
* one cron cycle of the DCM;
* every write query's example (``test_write_footprint.EXAMPLES``), run
  through the server.

The self-test patches a read handler to set a key on a row it read and
expects the sweep to name that step.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.journal import Journal
from repro.db.schema import build_database
from repro.protocol.transport import connect_inproc
from repro.protocol.wire import MajorRequest
from repro.queries.base import (QueryContext, execute_query, get_query,
                                run_read)
from repro.reg.server import RegistrationServer
from repro.reg.userreg import UserReg
from repro.server import MoiraServer, seed_capacls
from repro.sim.clock import Clock
from repro.workload import PopulationSpec
from tests.test_read_replies import SMALL, examples
from tests.test_write_footprint import BASE, EXAMPLES

ADMIN = "pradmin"


def published(db) -> list[tuple]:
    """(version, its data, a copy of it) for every version reachable
    from every store: each record has one scan entry until it is
    collected, and its chain runs from its head."""
    out = []
    for table in db.tables.values():
        for entry in table._mv.entries:
            version = entry.record.current
            while version is not None:
                out.append((version, version.data, dict(version.data)))
                version = version.older
    return out


def _reads_and_flows() -> Iterator[tuple]:
    """(database, step name, step) on a small deployment."""
    d = AthenaDeployment(DeploymentConfig(population=PopulationSpec(**SMALL)))
    d.direct_client().query("add_server_host_access",
                            d.handles.nfs_machines[0], "USER",
                            d.handles.logins[1])
    for name, args in examples(d).items():
        def read(name=name, args=args):
            ctx = QueryContext(db=d.db, clock=d.clock, caller="root",
                               privileged=True)
            for _ in run_read(ctx, get_query(name), args):
                pass
        yield d.db, f"read {name}", read

    def register():
        reg = RegistrationServer(d.db, d.clock, d.kdc, journal=d.journal)
        first, last, mit_id = d.handles.unregistered_ids[0]
        outcome = UserReg(reg, d.kdc).register(
            first, last, mit_id, desired_login="prwalk",
            password="walk!up")
        assert outcome.success, outcome.steps
    yield d.db, "registration", register

    def cron():
        d.clock.advance(25 * 3600)
        assert d.dcm.run_once().generated_services
    yield d.db, "cron run_once", cron


def _writes() -> Iterator[tuple]:
    """(database, step name, step): every write example, sent by an
    admin through the server's in-process connection."""
    db = build_database()
    clock = Clock(BASE)
    seed_capacls(db)
    ctx = QueryContext(db=db, clock=clock, caller="root", client="seed",
                       privileged=True)
    execute_query(ctx, "add_user", [ADMIN, "7800", "/bin/csh", "Last",
                                    "First", "", "1", "idpr", "1990"])
    execute_query(ctx, "add_member_to_list", ["moira-admins", "USER", ADMIN])
    server = MoiraServer(db, clock, journal=Journal())
    conn = connect_inproc(server)
    for state in server._connections.values():
        state.principal = ADMIN
    for name, *args in EXAMPLES:
        def write(name=name, args=args):
            clock.advance(1)
            runs = conn.call(MajorRequest.QUERY, [name, *args])
            assert runs[-1].code == 0, (name, runs[-1])
        yield db, f"write {name}", write
    conn.close()


def sweep() -> Iterator[tuple]:
    """(step, version data now, what it held) for each published row
    state a step changed; none when every state kept its contents."""
    steps: list[Iterator[tuple]] = [_reads_and_flows(), _writes()]
    for db, name, step in (item for steps_of in steps
                           for item in steps_of):
        before = published(db)
        step()
        for version, data, held in before:
            if version.data is not data or data != held:
                yield name, dict(version.data), held


def test_no_step_changes_a_published_row_state():
    assert list(sweep()) == []


def test_the_sweep_finds_a_handler_that_writes_a_row_it_read(monkeypatch):
    query = get_query("get_value")
    original: Callable = query.handler

    def meddling(ctx, args):
        for row in ctx.db.table("values").select({"name": args[0]}):
            row["_seen"] = 1
        return original(ctx, args)

    monkeypatch.setattr(query, "handler", meddling)
    found = next(sweep(), None)
    assert found is not None and found[0] == "read get_value"
    assert found[1]["_seen"] == 1 and "_seen" not in found[2]
