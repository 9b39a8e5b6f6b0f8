"""The in-process connection hands its client the server's rows as text,
with no framing, and that text is what a TCP client decodes.

One world serves an in-process and a TCP connection, both authenticated
as the same admin; every request of one script runs on the first, then
on the second, and the two ``(code, str fields)`` streams must match.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, strategies as st

from repro.core import AthenaDeployment, DeploymentConfig
from repro.protocol import wire
from repro.protocol.transport import (
    TcpServerTransport,
    connect_inproc,
    connect_tcp,
)
from repro.protocol.wire import (
    MajorRequest,
    decode_replies,
    encode_replies,
    pack_authenticator,
    str_row,
)
from repro.queries.base import RUN_ROWS, QueryContext, execute_query
from repro.workload import PopulationSpec

PASSWORD = "handover-pw"
SMALL = dict(users=20, unregistered_users=0, nfs_servers=2, maillists=3,
             clusters=1, machines_per_cluster=2, printers=2,
             network_services=3)
MACHINES = RUN_ROWS + 40     # get_machine HAND* spans two runs


def tcp_text(row) -> tuple:
    """What a TCP client makes of *row*: framed, decoded, str_fields."""
    replies, _ = decode_replies(encode_replies([row]))
    return replies[0].str_fields()


class TestStrRow:
    def test_each_kind_of_field(self):
        row = ("text", 42, b"caf\xc3\xa9", None)
        assert str_row(row) == ("text", "42", "café", "None")
        assert str_row(row) == tcp_text(row)

    def test_no_bytes_is_str_of_each_field(self):
        row = ("a", 1, -7, None, "")
        assert str_row(row) == tuple(map(str, row))

    @given(st.lists(st.one_of(st.text(max_size=40),
                              st.integers(-2 ** 40, 2 ** 40),
                              st.text(max_size=40).map(str.encode),
                              st.none()), max_size=8))
    def test_is_what_a_tcp_client_decodes(self, fields):
        assert str_row(tuple(fields)) == tcp_text(tuple(fields))


@pytest.fixture(scope="module")
def world():
    d = AthenaDeployment(DeploymentConfig(population=PopulationSpec(**SMALL)))
    direct = d.direct_client()
    for k in range(MACHINES):
        direct.query("add_machine", f"HAND{k}.MIT.EDU", "VAX")
    admin = d.handles.logins[0]
    d.make_admin(admin)
    d.kdc.add_principal(admin, PASSWORD)
    transport = TcpServerTransport(d.server).start()
    yield d, transport
    transport.stop()


def authenticate(d: AthenaDeployment, conn) -> None:
    admin = d.handles.logins[0]
    ticket = d.kdc.get_service_ticket(d.kdc.kinit(admin, PASSWORD),
                                      "moira")
    auth = d.kdc.make_authenticator(ticket, d.clock.now())
    replies = conn.call(MajorRequest.AUTHENTICATE,
                        [b"handover", pack_authenticator(auth)])
    assert replies[-1].code == 0


def script(d: AthenaDeployment) -> list:
    login = d.handles.logins[1]
    query = MajorRequest.QUERY
    return [
        (query, ["get_machine", "HAND*"]),                # two runs
        (query, ["get_user_by_login", login]),            # int fields
        (query, ["update_user_shell", login, "/bin/hand"]),  # no tuples
        (query, ["get_machine", "NOSUCH.MIT.EDU"]),       # detail field
        (query, ["get_machine"]),                         # MR_ARGS
        (query, ["_list_users"]),
        (query, ["_query_stats"]),
        (query, ["_wal_stats"]),
        (MajorRequest.NOOP, []),
        (MajorRequest.ACCESS, ["get_machine", "*"]),
        (MajorRequest.TRIGGER_DCM, []),
        (MajorRequest.AUTHENTICATE, [b"handover", b"not an authenticator"]),
    ]


def texts(conn, major, args) -> list:
    return [(code, row)
            for code, rows in conn.stream(major, args) for row in rows]


def test_inline_stream_is_the_tcp_stream(world):
    d, transport = world
    inline = connect_inproc(d.server)
    tcp = connect_tcp(*transport.address)
    streams = []
    try:
        authenticate(d, inline)
        authenticate(d, tcp)
        for major, args in script(d):
            handed = texts(inline, major, args)
            assert handed == texts(tcp, major, args), (major, args)
            streams.append(handed)
    finally:
        inline.close()
        tcp.close()
    assert len(streams[0]) == MACHINES + 1
    ctx = QueryContext(db=d.db, clock=d.clock, caller="root",
                       privileged=True)
    user = execute_query(ctx, "get_user_by_login", [d.handles.logins[1]])
    assert all(type(f) is str for f in user[0])   # born as text
    assert streams[3][-1][1]                    # the error's detail
    assert len({stream[-1][0] for stream in streams}) >= 4


def test_callproc_raising_mid_run_releases_the_read_view(world):
    d, _ = world
    client = d.client_for(d.handles.logins[0], PASSWORD, "handover")
    before = d.db.mvcc_stats()["pins_active"]
    pinned = []

    def fail_at_ten(argc, argv, seen):
        seen.append(d.db.mvcc_stats()["pins_active"])
        if len(seen) == 10:
            raise RuntimeError("callback failed")

    try:
        with pytest.raises(RuntimeError):
            client.mr_query("get_machine", ["HAND*"], fail_at_ten, pinned)
        assert pinned[-1] == before + 1     # the rows streamed under a pin
        assert d.db.mvcc_stats()["pins_active"] == before
    finally:
        client.close()


def test_the_inline_path_frames_nothing(world, monkeypatch):
    """No reply is encoded or decoded between the server and an
    in-process client."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the in-process path used the reply codec")

    for name in ("encode_reply", "encode_replies", "decode_replies"):
        codec = getattr(wire, name)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and vars(module).get(name) is codec):
                monkeypatch.setattr(module, name, forbidden)
    d, _ = world
    client = d.client_for(d.handles.logins[0], PASSWORD, "handover")
    try:
        rows = client.query("get_machine", "HAND1*.MIT.EDU")
    finally:
        client.close()
    assert rows and all(type(f) is str for row in rows for f in row)
