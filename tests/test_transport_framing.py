"""Wire-level edge cases for the TCP transport: coalesced frames,
frames split across segments, and pipelined request/reply ordering.

These drive raw sockets (no MoiraClient) so TCP segmentation is under
the test's control.  The server has one dispatch mode, ``inline``:
every request runs on the transport's selector thread.
"""

from __future__ import annotations

import functools
import socket
import struct
import threading
import time

import pytest

from repro.client import lib as client_lib
from repro.client.lib import MoiraClient
from repro.db.schema import build_database
from repro.errors import MR_ABORTED, MR_MORE_DATA, MR_NO_MATCH, \
    MR_NOT_CONNECTED
from repro.kerberos import KDC
from repro.protocol.transport import TcpServerTransport, connect_tcp
from repro.protocol.wire import MajorRequest, decode_reply, encode_request
from repro.queries.base import RUN_ROWS, QueryContext, execute_query
from repro.server import MoiraServer, seed_capacls
from repro.sim.clock import Clock
from tests.frames import read_frame
from tests.test_protocol import reference_frame

MACHINES = 5


def _make_server() -> MoiraServer:
    db = build_database()
    clock = Clock()
    server = MoiraServer(db, clock, KDC(clock))
    seed_capacls(db)
    ctx = QueryContext(db=db, clock=clock, caller="root",
                       client="framing", privileged=True)
    for i in range(MACHINES):
        execute_query(ctx, "add_machine", [f"FRAME{i}.MIT.EDU", "VAX"])
    return server


@pytest.fixture(params=["inline"])
def tcp(request):
    server = _make_server()
    transport = TcpServerTransport(server).start()
    yield transport
    transport.stop()


def _gmac(pattern: str) -> bytes:
    return encode_request(MajorRequest.QUERY, ["get_machine", pattern])


def _read_reply_stream(sock: socket.socket) -> list:
    """Frames until (and including) the final non-MORE_DATA reply."""
    replies = []
    while True:
        frame = read_frame(sock.recv)
        assert frame, "server closed connection mid-stream"
        reply = decode_reply(frame)
        replies.append(reply)
        if reply.code != MR_MORE_DATA:
            return replies


class TestFraming:
    def test_two_frames_coalesced_in_one_segment(self, tcp):
        """Both requests of a single send() answer, in order."""
        with socket.create_connection(tcp.address, timeout=10) as sock:
            sock.sendall(_gmac("FRAME*") + _gmac("FRAME1.MIT.EDU"))
            first = _read_reply_stream(sock)
            second = _read_reply_stream(sock)
        assert [r.code for r in first].count(MR_MORE_DATA) == MACHINES
        assert first[-1].code == 0
        assert len(second) == 2
        assert second[0].fields[0] == b"FRAME1.MIT.EDU"

    def test_frame_split_across_segments(self, tcp):
        """A request dribbled in 3-byte segments still parses whole."""
        request = _gmac("FRAME2.MIT.EDU")
        with socket.create_connection(tcp.address, timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(0, len(request), 3):
                sock.sendall(request[i:i + 3])
                time.sleep(0.002)
            replies = _read_reply_stream(sock)
        assert replies[0].fields[0] == b"FRAME2.MIT.EDU"
        assert replies[-1].code == 0

    def test_error_replies_frame_correctly(self, tcp):
        with socket.create_connection(tcp.address, timeout=10) as sock:
            sock.sendall(_gmac("NOPE*"))
            replies = _read_reply_stream(sock)
        assert len(replies) == 1
        assert replies[0].code == MR_NO_MATCH


class TestPipelining:
    def test_pipelined_replies_arrive_in_request_order(self, tcp):
        """One connection, many requests in flight: reply streams come
        back strictly in request order, never interleaved."""
        wanted = [f"FRAME{i % MACHINES}.MIT.EDU" for i in range(20)]
        with socket.create_connection(tcp.address, timeout=10) as sock:
            sock.sendall(b"".join(_gmac(name) for name in wanted))
            for name in wanted:
                replies = _read_reply_stream(sock)
                assert replies[0].fields[0] == name.encode()
                assert len(replies) == 2  # exactly one tuple + status

    def test_connections_interleave_but_streams_do_not(self, tcp):
        """Two pipelining connections get disjoint, in-order answers."""
        socks = [socket.create_connection(tcp.address, timeout=10)
                 for _ in range(2)]
        try:
            plans = [[f"FRAME{(i + j) % MACHINES}.MIT.EDU"
                      for i in range(10)] for j in range(2)]
            for sock, plan in zip(socks, plans):
                sock.sendall(b"".join(_gmac(name) for name in plan))
            for sock, plan in zip(socks, plans):
                for name in plan:
                    replies = _read_reply_stream(sock)
                    assert replies[0].fields[0] == name.encode()
        finally:
            for sock in socks:
                sock.close()

    def test_client_helper_still_works(self, tcp):
        host, port = tcp.address
        conn = connect_tcp(host, port)
        try:
            replies = conn.call(MajorRequest.QUERY,
                                ["get_machine", "FRAME0.MIT.EDU"])
            assert replies[0].rows[0][0] == "FRAME0.MIT.EDU"
            assert replies[-1].code == 0
        finally:
            conn.close()


class TestOneSend:
    """A reply leaves the server as one buffer on a socket that does
    not wait for the peer's ACK, so it never sits out a delayed-ACK
    timer waiting for its own status frame."""

    def test_nodelay_on_accepted_and_dialled_sockets(self, tcp):
        conn = connect_tcp(*tcp.address)
        try:
            conn.call(MajorRequest.NOOP, [])
            dialled = conn._sock.getsockopt(socket.IPPROTO_TCP,
                                            socket.TCP_NODELAY)
            accepted = [sock.getsockopt(socket.IPPROTO_TCP,
                                        socket.TCP_NODELAY)
                        for sock in list(tcp._conn_state)]
        finally:
            conn.close()
        assert dialled
        assert accepted and all(accepted)

    def test_one_tuple_reply_arrives_in_the_first_recv(self, tcp):
        with socket.create_connection(tcp.address, timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(50):
                name = f"FRAME{i % MACHINES}.MIT.EDU"
                sock.sendall(_gmac(name))
                data = sock.recv(65536)
                frames = []
                while data:
                    end = 4 + int.from_bytes(data[:4], "big")
                    frames.append(decode_reply(data[4:end]))
                    data = data[end:]
                assert [r.code for r in frames] == [MR_MORE_DATA, 0], i
                assert frames[0].fields[0] == name.encode()


class TestBatchedReplyBytes:
    """Runs are each end's encoding detail: a retrieve longer than one
    run reaches a TCP peer as exactly the bytes its per-tuple frames
    spell, in order, then the final status."""

    def test_tcp_stream_is_the_per_tuple_frames(self):
        server = _make_server()
        ctx = QueryContext(db=server.db, clock=server.clock,
                           caller="root", client="framing",
                           privileged=True)
        for i in range(2 * RUN_ROWS + 44):
            execute_query(ctx, "add_machine", [f"RUN{i}.MIT.EDU", "VAX"])
        rows = execute_query(ctx, "get_machine", ["RUN*"])
        expected = b"".join(reference_frame(MR_MORE_DATA, row)
                            for row in rows) + reference_frame(0, ())
        transport = TcpServerTransport(server).start()
        try:
            with socket.create_connection(transport.address,
                                          timeout=30) as sock:
                sock.sendall(_gmac("RUN*"))
                data = b""
                while len(data) < len(expected):
                    chunk = sock.recv(65536)
                    assert chunk, "server closed connection mid-stream"
                    data += chunk
            assert data == expected
            client = MoiraClient(tcp_address=transport.address).connect()
            try:
                assert client.query("get_machine", "RUN*") == \
                    [tuple(map(str, row)) for row in rows]
            finally:
                client.close()
        finally:
            transport.stop()


class TestClientAborts:
    """A reply that never comes, or a reset mid-reply, is MR_ABORTED
    from ``mr_query`` — not a socket exception."""

    @pytest.fixture
    def listener(self):
        sock = socket.create_server(("127.0.0.1", 0))
        yield sock
        sock.close()

    @staticmethod
    def _client(listener, monkeypatch, timeout: float) -> MoiraClient:
        monkeypatch.setattr(client_lib, "connect_tcp",
                            functools.partial(connect_tcp, timeout=timeout))
        client = MoiraClient(tcp_address=listener.getsockname())
        assert client.mr_connect() == 0
        return client

    def test_timeout_is_aborted(self, listener, monkeypatch):
        client = self._client(listener, monkeypatch, timeout=0.2)
        peer, _ = listener.accept()     # accepts, never replies
        try:
            assert client.mr_query("get_machine", ["X"]) == MR_ABORTED
        finally:
            peer.close()
        assert client.mr_query("get_machine", ["X"]) == MR_NOT_CONNECTED

    def test_reset_is_aborted(self, listener, monkeypatch):
        client = self._client(listener, monkeypatch, timeout=10)
        peer, _ = listener.accept()

        def reset_after_request():
            read_frame(peer.recv)
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            peer.close()

        resetter = threading.Thread(target=reset_after_request)
        resetter.start()
        try:
            assert client.mr_query("get_machine", ["X"]) == MR_ABORTED
        finally:
            resetter.join()


class TestBackpressure:
    def test_tiny_high_water_mark_does_not_deadlock(self):
        """A big retrieve through a 2 KiB output window completes
        byte-perfect: the connection stops being read at the high-water
        mark and resumes as the client drains."""
        server = _make_server()
        ctx = QueryContext(db=server.db, clock=server.clock,
                           caller="root", client="framing",
                           privileged=True)
        for i in range(300):
            execute_query(ctx, "add_machine", [f"BULK{i}.MIT.EDU", "VAX"])
        transport = TcpServerTransport(server, high_water=2048,
                                       low_water=512).start()
        try:
            with socket.create_connection(transport.address,
                                          timeout=30) as sock:
                sock.sendall(_gmac("BULK*"))
                replies = _read_reply_stream(sock)
            assert [r.code for r in replies].count(MR_MORE_DATA) == 300
            assert replies[-1].code == 0
        finally:
            transport.stop()
