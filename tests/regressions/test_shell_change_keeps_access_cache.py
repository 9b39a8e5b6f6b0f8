"""A shell change keeps the access cache, and a capability grant
serves every argument.

An access decision reads the capability list, the caller's row, list
flags and ACEs, membership, and the ACEs of filesystems and services —
never a user's shell.  So ``update_user_shell`` through the server
leaves the cache's generation where it was.  And a capability grant
reads no argument, so an administrator's ``get_user_by_login`` over
many logins misses once and hits on every later check.
"""

from __future__ import annotations

from repro.client import MoiraClient
from repro.db.schema import build_database
from repro.kerberos import KDC
from repro.queries.base import QueryContext, execute_query
from repro.server import MoiraServer, seed_capacls
from repro.sim.clock import Clock

LOGINS = [f"sc{i:02d}" for i in range(50)]


def _world():
    db, clock = build_database(), Clock()
    kdc = KDC(clock)
    server = MoiraServer(db, clock, kdc)
    seed_capacls(db)
    ctx = QueryContext(db=db, clock=clock, caller="root", client="test",
                       privileged=True)
    for uid, login in enumerate(["scadmin", *LOGINS], start=9000):
        execute_query(ctx, "add_user", [login, str(uid), "/bin/csh",
                                        "Last", "First", "", "1",
                                        f"id-{login}", "1990"])
    execute_query(ctx, "add_member_to_list",
                  ["moira-admins", "USER", "scadmin"])
    kdc.add_principal("scadmin", "pw")
    client = MoiraClient(dispatcher=server, kdc=kdc, clock=clock,
                         credentials=kdc.kinit("scadmin", "pw"))
    client.connect().auth("regression")
    return server, client


def test_a_shell_change_keeps_the_generation():
    server, client = _world()
    client.query("get_user_by_login", LOGINS[0])
    gen = server.access_cache.generation
    client.query("update_user_shell", LOGINS[0], "/bin/sh")
    assert server.access_cache.generation == gen
    assert client.query("get_user_by_login", LOGINS[0])[0][2] == "/bin/sh"
    client.close()


def test_an_admin_read_hits_after_the_first_check():
    server, client = _world()
    cache = server.access_cache
    hits, misses = cache.hits, cache.misses
    for login in LOGINS:
        assert client.query("get_user_by_login", login)[0][0] == login
    assert cache.misses - misses == 1
    assert cache.hits - hits == len(LOGINS) - 1
    client.close()
