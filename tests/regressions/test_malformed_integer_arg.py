"""A non-numeric integer argument is ``MR_INTEGER``, not a crash.

Handlers once parsed their integer arguments with a bare ``int()``, so
``add_user`` with uid ``abc`` raised ``ValueError`` and the server
answered ``MR_INTERNAL`` with a Python repr in the reply.
Arguments are parsed once now, through the types each query declares,
before its handler runs: a malformed one is refused cleanly, the
connection keeps serving, and the journal gains nothing."""

from __future__ import annotations

import pytest

from repro.client import MoiraClient
from repro.db.journal import Journal
from repro.db.schema import build_database
from repro.errors import MoiraError, MR_INTEGER
from repro.kerberos import KDC
from repro.protocol.transport import TcpServerTransport
from repro.queries.base import QueryContext, execute_query
from repro.server import MoiraServer, seed_capacls
from repro.sim.clock import Clock

ADMIN = "mi0"


def _seed(db, clock) -> None:
    """An admin, and a quota for update_nfs_quota to find."""
    ctx = QueryContext(db=db, clock=clock, caller="root", client="seed",
                       privileged=True)
    for name, *args in [
        ("add_user", ADMIN, "7800", "/bin/csh", "L", "F", "", "1", "m0",
         "1990"),
        ("add_member_to_list", "moira-admins", "USER", ADMIN),
        ("add_machine", "MI.MIT.EDU", "VAX"),
        ("add_nfsphys", "MI.MIT.EDU", "/u1", "ra81a", "1", "0", "10000"),
        ("add_list", "mi-group", "1", "0", "0", "0", "1", "-1", "USER",
         ADMIN, "g"),
        ("add_filesys", "mi0", "NFS", "MI.MIT.EDU", "/u1/mi0", "/mit/mi0",
         "w", "", ADMIN, "mi-group", "1", "HOMEDIR"),
        ("add_nfs_quota", "mi0", ADMIN, "100"),
    ]:
        execute_query(ctx, name, args)


def test_a_non_numeric_integer_is_refused_and_the_connection_serves_on():
    db, clock = build_database(), Clock()
    kdc = KDC(clock)
    seed_capacls(db)
    _seed(db, clock)
    journal = Journal()
    transport = TcpServerTransport(
        MoiraServer(db, clock, kdc, journal=journal)).start()
    kdc.add_principal(ADMIN, "pw")
    client = MoiraClient(tcp_address=transport.address[:2], kdc=kdc,
                         credentials=kdc.kinit(ADMIN, "pw"), clock=clock)
    try:
        client.connect().auth("regress")
        seq = journal.current_seq()
        for name, *args in [
            ("add_user", "newbie", "abc", "/bin/csh", "L", "F", "", "1",
             "m1", "1990"),
            ("update_nfs_quota", "mi0", ADMIN, "x"),
        ]:
            with pytest.raises(MoiraError) as exc:
                client.query(name, *args)
            assert exc.value.code == MR_INTEGER, (name, exc.value)
        assert client.query("get_user_by_login", ADMIN)[0][0] == ADMIN
        assert journal.current_seq() == seq
    finally:
        client.close()
        transport.stop()
