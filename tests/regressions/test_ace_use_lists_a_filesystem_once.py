"""``get_ace_use RUSER`` names a filesystem once on every backend.

A filesystem whose owner is the user and whose owners list holds the
user matches twice.  The two matches used to be deduplicated by
``id(row)``, which holds only where both probes hand back the same
dict: on SQLite each probe builds fresh rows, and the filesystem was
listed twice.  Matches are now keyed by ``filsys_id``.
"""

from __future__ import annotations

import pytest

from repro.db.schema import build_database
from repro.db.sqlite_backend import sqlite_database_from_schema
from repro.queries.base import QueryContext, execute_query
from repro.sim.clock import Clock


@pytest.mark.parametrize("backend", [build_database,
                                     sqlite_database_from_schema],
                         ids=["memory", "sqlite"])
def test_owner_and_owners_match_name_one_filesystem(backend):
    ctx = QueryContext(db=backend(), clock=Clock(), caller="root",
                       client="test", privileged=True)

    def run(name, *args):
        return execute_query(ctx, name, [str(a) for a in args])

    run("add_user", "u", -1, "/bin/sh", "L", "F", "", 1, "", "1990")
    run("add_list", "l", 1, 0, 0, 0, 1, -1, "NONE", "NONE", "")
    run("add_member_to_list", "l", "USER", "u")
    run("add_machine", "M.MIT.EDU", "VAX")
    run("add_filesys", "fs", "RVD", "M.MIT.EDU", "p", "/m", "r", "", "u",
        "l", 0, "OTHER")
    assert run("get_ace_use", "RUSER", "u") == [("FILESYS", "fs")]
