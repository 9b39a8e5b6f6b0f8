"""Sync before release: the server journals every client write without
an fsync, and a transport hands out no reply before one
``MoiraServer.sync()`` covers every write run so far (docs/WRITE_PATH.md).

Over TCP the selector loop runs every ready connection's frames, syncs
once, then sends — so the writes of one wakeup share one fsync.  A crash
in that sync releases nothing, a read that ran beside the write
included; a fence in it answers every held frame with ``MR_FENCED``.

To put several connections' frames into one wakeup, a test holds the
loop inside a NOOP on a spare connection (a ``server.frame`` fault
callback that waits), sends the frames it wants batched, then lets the
loop go: its next ``select()`` finds them all ready.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

from repro.db.recovery import checkpoint, recover
from repro.db.journal import Journal
from repro.db.schema import build_database
from repro.errors import MR_FENCED, MR_MORE_DATA
from repro.protocol.transport import TcpServerTransport, connect_inproc
from repro.protocol.wire import MajorRequest, decode_reply, encode_request
from repro.queries.base import QueryContext, execute_query
from repro.server import MoiraServer, seed_capacls
from repro.sim.clock import DEFAULT_EPOCH, Clock
from repro.sim.faults import FaultInjector
from tests.frames import read_frame

BASE = DEFAULT_EPOCH + 700
ADMIN = "sb0"


def _world(wal_path=None):
    db = build_database()
    clock = Clock()
    clock.set(BASE)
    seed_capacls(db)
    ctx = QueryContext(db=db, clock=clock, caller="root", client="seed",
                       privileged=True)
    execute_query(ctx, "add_user",
                  [ADMIN, "7700", "/bin/csh", "Last", "First", "", "1",
                   "mit0", "1990"])
    execute_query(ctx, "add_member_to_list",
                  ["moira-admins", "USER", ADMIN])
    faults = FaultInjector()
    journal = Journal(path=wal_path, faults=faults)
    server = MoiraServer(db, clock, journal=journal, faults=faults)
    return db, journal, server, faults


def _query(*args) -> bytes:
    return encode_request(MajorRequest.QUERY, list(args))


def _codes(sock) -> list:
    """Every reply code of one request, the final status last."""
    codes = []
    while not codes or codes[-1] == MR_MORE_DATA:
        codes.append(decode_reply(read_frame(sock.recv)).code)
    return codes


class _Loop:
    """A started TCP transport and admin connections to it."""

    def __init__(self, server, clients: int):
        self.server = server
        self.transport = TcpServerTransport(server).start()
        self.socks = [socket.create_connection(self.transport.address[:2],
                                               timeout=10)
                      for _ in range(clients + 1)]
        for sock in self.socks:             # accepted before we go on
            sock.sendall(encode_request(MajorRequest.NOOP, []))
            assert _codes(sock) == [0]
        for conn in server._connections.values():
            conn.principal = ADMIN
        self.spare, self.clients = self.socks[0], self.socks[1:]

    def one_wakeup(self, frames: list) -> None:
        """Send ``frames[i]`` on client *i* while the loop is held, so
        its next wakeup runs them all."""
        entered, release = threading.Event(), threading.Event()

        def hold(ctx):
            entered.set()
            release.wait(10)

        self.server.faults.call("server.frame", hold, times=1)
        self.spare.sendall(encode_request(MajorRequest.NOOP, []))
        assert entered.wait(10)
        for sock, frame in zip(self.clients, frames):
            sock.sendall(frame)
        time.sleep(0.05)        # loopback has queued every frame
        release.set()
        assert _codes(self.spare) == [0]

    def close(self) -> None:
        for sock in self.socks:
            sock.close()
        self.transport.stop()


def test_writes_of_one_wakeup_share_one_fsync(tmp_path):
    db, journal, server, _ = _world(tmp_path / "wal")
    loop = _Loop(server, clients=2)
    try:
        before = journal.stats()
        loop.one_wakeup([_query("add_machine", "SB1.MIT.EDU", "VAX"),
                         _query("add_machine", "SB2.MIT.EDU", "VAX")])
        assert [_codes(sock) for sock in loop.clients] == [[0], [0]]
        after = journal.stats()
        assert after["appends"] - before["appends"] == 2
        assert after["fsyncs"] - before["fsyncs"] == 1
    finally:
        loop.close()


# the crash kills the selector thread, as a real one kills the process
@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_a_crash_in_the_sync_releases_no_reply(tmp_path):
    """The write and a read that ran beside it (and saw it) both stay
    unanswered; recovery with the un-fsync'd tail cut off keeps every
    acknowledged write."""
    db, journal, server, faults = _world(tmp_path / "wal")
    checkpoint(db, journal, tmp_path / "ckpt")
    loop = _Loop(server, clients=2)
    writer, reader = loop.clients
    try:
        acked = [f"SB{i}.MIT.EDU" for i in range(3)]
        for name in acked:
            writer.sendall(_query("add_machine", name, "VAX"))
            assert _codes(writer) == [0]
        segment = journal.segment_files()[-1][1]
        durable = segment.stat().st_size
        faults.crash_server("journal.batch_flush",
                            at_call=faults.calls("journal.batch_flush") + 1)
        loop.one_wakeup([_query("add_machine", "SB9.MIT.EDU", "VAX"),
                         _query("get_machine", "SB*")])
        deadline = time.monotonic() + 10    # the wakeup after the held one
        while not faults.fired("journal.batch_flush"):
            assert time.monotonic() < deadline, "the sync never ran"
            time.sleep(0.01)
        for sock in (writer, reader):
            sock.settimeout(0.5)
            with pytest.raises(socket.timeout):
                sock.recv(1)
    finally:
        loop.close()
    assert segment.stat().st_size > durable     # the write reached the file
    os.truncate(segment, durable)               # ... but not the disk
    rec = recover(tmp_path / "ckpt", wal_path=tmp_path / "wal")
    for name in acked:
        assert rec.db.table("machine").count({"name": name}) == 1
    assert rec.db.table("machine").count({"name": "SB9.MIT.EDU"}) == 0


def test_a_fence_in_the_sync_answers_every_held_frame_over_tcp():
    db, journal, server, faults = _world()
    loop = _Loop(server, clients=2)
    try:
        faults.call("journal.record", lambda ctx: journal.fence(9),
                    times=1)
        loop.one_wakeup([_query("add_machine", "SB1.MIT.EDU", "VAX"),
                         _query("get_user_by_login", ADMIN)])
        assert [_codes(sock) for sock in loop.clients] == \
            [[MR_FENCED], [MR_FENCED]]
    finally:
        loop.close()


def test_a_fence_in_the_sync_answers_every_held_frame_in_process():
    db, journal, server, faults = _world()
    writer, reader = connect_inproc(server), connect_inproc(server)
    for conn in server._connections.values():
        conn.principal = ADMIN
    faults.call("journal.record", lambda ctx: journal.fence(9), times=1)
    replies = writer.call(MajorRequest.QUERY,
                          ["add_machine", "SB1.MIT.EDU", "VAX"])
    assert [r.code for r in replies] == [MR_FENCED]
    # the write's append is still uncovered: a read that may have seen
    # it is held by the same failing sync
    replies = reader.call(MajorRequest.QUERY, ["get_machine", "SB1*"])
    assert [r.code for r in replies] == [MR_FENCED]
