"""A write made outside the server drops the server's cached access
decisions.

The server invalidated its access cache only after the writes it ran
itself.  A write through ``execute_query`` on the same database — the
direct library, ``make_admin``, the DCM, the registration server —
left the cache as it was: a user taken off ``moira-admins`` kept an
administrator's reads until some server write happened to set an ACL
column.  Every committed write now tells the backend's commit
listeners what it changed, once its seq has published, and the server
listens.
"""

from __future__ import annotations

from repro.client import MoiraClient
from repro.db.schema import build_database
from repro.errors import MR_PERM
from repro.kerberos import KDC
from repro.queries.base import QueryContext, execute_query
from repro.server import MoiraServer, seed_capacls
from repro.sim.clock import Clock


def _world():
    db, clock = build_database(), Clock()
    kdc = KDC(clock)
    server = MoiraServer(db, clock, kdc)
    seed_capacls(db)
    ctx = QueryContext(db=db, clock=clock, caller="root", client="test",
                       privileged=True)
    execute_query(ctx, "add_user", ["x", "9001", "/bin/csh", "Last",
                                    "First", "", "1", "id-x", "1990"])
    execute_query(ctx, "add_member_to_list", ["moira-admins", "USER", "x"])
    kdc.add_principal("x", "pw")
    client = MoiraClient(dispatcher=server, kdc=kdc, clock=clock,
                         credentials=kdc.kinit("x", "pw"))
    client.connect().auth("regression")
    return ctx, client


def test_a_direct_revocation_reaches_the_server():
    ctx, client = _world()
    assert client.mr_query("get_all_logins", []) == 0     # cached: allowed
    execute_query(ctx, "delete_member_from_list",
                  ["moira-admins", "USER", "x"])
    assert client.mr_query("get_all_logins", []) == MR_PERM
    client.close()


def test_a_direct_grant_reaches_the_server():
    ctx, client = _world()
    execute_query(ctx, "delete_member_from_list",
                  ["moira-admins", "USER", "x"])
    assert client.mr_query("get_all_logins", []) == MR_PERM  # cached: denied
    execute_query(ctx, "add_member_to_list", ["moira-admins", "USER", "x"])
    assert client.mr_query("get_all_logins", []) == 0
    client.close()
