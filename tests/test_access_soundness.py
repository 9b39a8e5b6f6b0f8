"""Every decision the access cache still holds is one a fresh check
would make.

The server keeps a capability grant per (principal, query) and any
other decision per (principal, query, args), and drops them only when
a write sets one of ``ACL_COLUMNS``.  The sweep here warms the cache
over a fixed grid of (principal, query, args), runs one write example
of ``test_write_footprint`` through the server, and compares every
decision still cached with ``check_query_access`` on a new view; then
the next example, on the same world.  It runs on both backends (SQLite
stamps whole tables, so there it checks table grain).  The self-test
leaves one relation's read columns out of ``ACL_COLUMNS`` and expects
the sweep to find a stale decision: the sweep is what says the list is
complete.
"""

from __future__ import annotations

from typing import Iterator

import pytest

from repro.client import MoiraClient
from repro.db.backend import create_backend
from repro.errors import MoiraError, MR_PERM
from repro.kerberos import KDC
from repro.queries.base import QueryContext, check_query_access, \
    execute_query, get_query
from repro.server import MoiraServer, access, seed_capacls
from repro.sim.clock import Clock
from tests.test_write_footprint import BASE, EXAMPLES

# The principals, by role.  fpx comes into being when an example
# renames fp; it is then the ACE of list fpl2, a member of it, and the
# owner of filesystem fpfs (whose owners list is fpl2).
PRINCIPALS = (
    "swadmin",      # on moira-admins, so on every capability list
    "fpx",          # list ACE, list member and filesystem owner
    "swplain",      # a plain user, on no list
)

_FINGER = ("Full Name", "nick", "home", "1234", "office", "5678", "dept",
           "aff")
_HOST = ("POP", "FP.MIT.EDU")

# Every handle with a relaxation, over the example's objects, then a few
# capability-only and public handles.
GRID = (
    ("get_user_by_login", ("fpx",)),
    ("get_user_by_uid", ("7001",)),
    ("update_user_shell", ("fpx", "/bin/sh")),
    ("get_finger_by_login", ("fpx",)),
    ("update_finger_by_login", ("fpx", *_FINGER)),
    ("get_pobox", ("fpx",)),
    ("set_pobox", ("fpx", "SMTP", "fpx@elsewhere.example")),
    ("set_pobox_pop", ("fpx",)),
    ("delete_pobox", ("fpx",)),
    ("get_list_info", ("fpl2",)),
    ("update_list", ("fpl2", "fpl2", "1", "0", "1", "1", "1", "-1",
                     "USER", "fpx", "d")),
    ("delete_list", ("fpl2",)),
    ("add_member_to_list", ("fpl", "USER", "swplain")),
    ("add_member_to_list", ("fpl2", "USER", "fpx")),
    ("delete_member_from_list", ("fpl2", "USER", "fpx")),
    ("get_members_of_list", ("fpl2",)),
    ("count_members_of_list", ("fpl",)),
    ("get_lists_of_member", ("RUSER", "fpx")),
    ("qualified_get_lists", ("TRUE", "DONTCARE", "FALSE", "DONTCARE",
                             "DONTCARE")),
    ("get_ace_use", ("USER", "fpx")),
    ("get_server_info", ("POP",)),
    ("update_server_info", ("POP", "60", "/tmp/pop", "/bin/true",
                            "UNIQUE", "1", "NONE", "")),
    ("reset_server_error", ("POP",)),
    ("get_server_host_info", _HOST),
    ("add_server_host_info", (*_HOST, "1", "0", "100", "")),
    ("update_server_host_info", (*_HOST, "1", "0", "200", "")),
    ("reset_server_host_error", _HOST),
    ("set_server_host_override", _HOST),
    ("delete_server_host_info", _HOST),
    ("get_filesys_by_group", ("fpl2",)),
    ("get_nfs_quota", ("fpfs2", "fpx")),
    ("get_all_logins", ()),
    ("update_user_status", ("fpx", "1")),
    ("add_machine", ("SW.MIT.EDU", "VAX")),
    ("get_machine", ("FP.MIT.EDU",)),
)


def _world(backend, tmp_path):
    """A server on *backend* with the grid's standing principals, and
    a root client that runs the examples through it."""
    db = create_backend(backend, str(tmp_path / "sweep.sqlite")
                        if backend == "sqlite" else None)
    clock = Clock(BASE)
    kdc = KDC(clock)
    server = MoiraServer(db, clock, kdc)
    seed_capacls(db)
    ctx = QueryContext(db=db, clock=clock, caller="root", client="test",
                       privileged=True)
    for uid, login in ((6001, "swadmin"), (6002, "swplain")):
        execute_query(ctx, "add_user", [login, str(uid), "/bin/csh", "L",
                                        "F", "", "1", f"id-{login}",
                                        "1990"])
    execute_query(ctx, "add_member_to_list",
                  ["moira-admins", "USER", "swadmin"])
    kdc.add_principal("root", "pw")
    root = MoiraClient(dispatcher=server, kdc=kdc, clock=clock,
                       credentials=kdc.kinit("root", "pw"))
    root.connect().auth("sweep")
    return server, root


def _warm(server, principal, query, args) -> None:
    """Ask the server's access path, so the cache holds the decision."""
    ctx = QueryContext(db=server.db, clock=server.clock, caller=principal)
    try:
        server._checked_access(ctx, query, args)
    except MoiraError as exc:
        assert exc.code == MR_PERM, (principal, query.name, args, exc)


def _fresh(server, grid) -> Iterator[bool]:
    """check_query_access over *grid* on one new view, bypassing the
    cache."""
    with server.db.read_view() as view:
        contexts = {principal: QueryContext(db=view, clock=server.clock,
                                            caller=principal)
                    for principal in PRINCIPALS}
        for principal, query, args in grid:
            try:
                check_query_access(contexts[principal], query, args)
            except MoiraError as exc:
                assert exc.code == MR_PERM, (principal, query.name, args)
                yield False
            else:
                yield True


def sweep(backend, tmp_path) -> Iterator[tuple]:
    """Every stale cached decision, as (write, principal, query, args,
    cached); none when the cache is sound."""
    server, root = _world(backend, tmp_path)
    cache = server.access_cache
    grid = [(principal, get_query(name), args) for principal in PRINCIPALS
            for name, args in GRID]
    try:
        for name, *args in EXAMPLES:
            for principal, query, qargs in grid:
                _warm(server, principal, query, qargs)
            generation = cache.generation
            root.query(name, *args)
            if cache.generation != generation:
                continue        # nothing cached is left to check
            for (principal, query, qargs), fresh in zip(
                    grid, _fresh(server, grid)):
                cached = cache.lookup(principal, query.name, qargs)
                if cached is not None and cached != fresh:
                    yield name, principal, query.name, qargs, cached
    finally:
        root.close()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_every_cached_decision_is_a_fresh_one(backend, tmp_path):
    assert list(sweep(backend, tmp_path)) == []


def test_the_sweep_finds_a_missing_acl_relation(tmp_path, monkeypatch):
    """With membership left out of ACL_COLUMNS, adding fpx to fpl2
    keeps fpx's stale denial of get_filesys_by_group fpl2.

    An update stamps every column it sets, so no write sets one ACL
    column alone: leaving out a single column (list.hidden, say) goes
    unseen as long as its relation's other read columns are listed.
    The unit the sweep can tell apart is a relation's read columns."""
    monkeypatch.delitem(access.ACL_COLUMNS, "members")
    stale = next(sweep("memory", tmp_path), None)
    assert stale == ("add_member_to_list", "fpx", "get_filesys_by_group",
                     ("fpl2",), False)
