"""``get_user_by_uid``'s self-service relaxation compares the uid as
the query parses it.

The relaxation compared the caller's uid with the argument as a
string, so the owner of uid 6500 got ``MR_PERM`` for ``06500`` and
`` 6500`` — spellings the handler itself reads as 6500.  A caller off
the capability list still gets ``MR_PERM`` for a malformed uid and for
another user's."""

from __future__ import annotations

import pytest

from repro.db.schema import build_database
from repro.errors import MoiraError, MR_PERM
from repro.queries.base import QueryContext, execute_query
from repro.server import seed_capacls
from repro.sim.clock import Clock


@pytest.fixture
def world():
    db, clock = build_database(), Clock()
    seed_capacls(db)
    root = QueryContext(db=db, clock=clock, caller="root", client="test",
                        privileged=True)
    for login, uid in (("owner", "6500"), ("other", "6501")):
        execute_query(root, "add_user", [login, uid, "/bin/csh", "L", "F",
                                         "", "1", "m" + uid, "1990"])
    return QueryContext(db=db, clock=clock, caller="owner",
                        client="test")


@pytest.mark.parametrize("uid", ["6500", "06500", " 6500", "6500 "])
def test_the_owner_reads_their_uid_however_it_is_spelled(world, uid):
    rows = execute_query(world, "get_user_by_uid", [uid])
    assert [row[0] for row in rows] == ["owner"]


@pytest.mark.parametrize("uid", ["abc", "6501", "", "65OO"])
def test_anything_else_is_refused_for_lack_of_permission(world, uid):
    with pytest.raises(MoiraError) as exc:
        execute_query(world, "get_user_by_uid", [uid])
    assert exc.value.code == MR_PERM
