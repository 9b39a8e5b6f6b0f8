"""Tests for the wire protocol (§5.3) and transports."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    MoiraError,
    MR_ABORTED,
    MR_MORE_DATA,
    MR_VERSION_MISMATCH,
)
from repro.kerberos.kdc import KDC
from repro.protocol.wire import (
    VERSION,
    MajorRequest,
    decode_replies,
    decode_reply,
    decode_request,
    encode_replies,
    encode_reply,
    encode_request,
    pack_authenticator,
    unpack_authenticator,
)
from repro.sim.clock import Clock
from tests.frames import split_frames


def reference_frame(code: int, fields) -> bytes:
    """One reply frame spelled out field by field, as docs/PROTOCOL.md
    defines it: the oracle the batched encoder must match."""
    body = struct.pack(">HiH", VERSION, code, len(fields))
    for field in fields:
        data = field if isinstance(field, bytes) else str(field).encode()
        body += struct.pack(">I", len(data)) + data
    return struct.pack(">I", len(body)) + body


# fields as handlers return them: text (long enough for a four-byte
# count past 255), integers, and bytes
FIELD = st.one_of(st.text(max_size=300), st.integers(-2 ** 40, 2 ** 40),
                  st.binary(max_size=300))
ROWS = st.lists(st.lists(FIELD, max_size=8).map(tuple), max_size=12)


class TestRequestEncoding:
    def test_roundtrip(self):
        frame = encode_request(MajorRequest.QUERY,
                               ["get_user_by_login", "babette"])
        request = decode_request(frame[4:])
        assert request.major is MajorRequest.QUERY
        assert request.str_args() == ["get_user_by_login", "babette"]

    def test_empty_args(self):
        frame = encode_request(MajorRequest.NOOP, [])
        request = decode_request(frame[4:])
        assert request.major is MajorRequest.NOOP
        assert request.args == ()

    def test_binary_arg_passthrough(self):
        blob = bytes(range(256))
        frame = encode_request(MajorRequest.AUTHENTICATE, ["prog", blob])
        request = decode_request(frame[4:])
        assert request.args[1] == blob

    def test_version_mismatch_detected(self):
        frame = bytearray(encode_request(MajorRequest.NOOP, []))
        frame[4:6] = (99).to_bytes(2, "big")  # clobber the version
        with pytest.raises(MoiraError) as exc:
            decode_request(bytes(frame[4:]))
        assert exc.value.code == MR_VERSION_MISMATCH

    def test_truncated_request_aborts(self):
        frame = encode_request(MajorRequest.QUERY, ["abc"])
        with pytest.raises(MoiraError) as exc:
            decode_request(frame[4:-1])
        assert exc.value.code == MR_ABORTED

    def test_trailing_garbage_aborts(self):
        frame = encode_request(MajorRequest.QUERY, ["abc"])
        with pytest.raises(MoiraError) as exc:
            decode_request(frame[4:] + b"x")
        assert exc.value.code == MR_ABORTED

    @given(st.integers(0, 4),
           st.lists(st.text(max_size=30), max_size=6))
    def test_roundtrip_property(self, major, args):
        frame = encode_request(MajorRequest(major), list(args))
        request = decode_request(frame[4:])
        assert request.str_args() == list(args)


class TestReplyEncoding:
    def test_roundtrip(self):
        frame = encode_reply(0, ("babette", 6530, "/bin/csh"))
        reply = decode_reply(frame[4:])
        assert reply.code == 0
        assert reply.str_fields() == ("babette", "6530", "/bin/csh")

    def test_negative_code(self):
        # codes are signed on the wire (errno convention allows any int)
        frame = encode_reply(-1, ())
        assert decode_reply(frame[4:]).code == -1

    def test_large_moira_code(self):
        from repro.errors import MR_PERM
        frame = encode_reply(MR_PERM, ())
        assert decode_reply(frame[4:]).code == MR_PERM

    @given(st.lists(st.text(max_size=50), max_size=10))
    def test_fields_roundtrip_property(self, fields):
        frame = encode_reply(MR_MORE_DATA, tuple(fields))
        reply = decode_reply(frame[4:])
        assert list(reply.str_fields()) == fields


class TestReplyRuns:
    """A run of tuple frames is one buffer at each end; the wire still
    carries one frame per tuple."""

    @given(ROWS, st.integers(-2 ** 31, 2 ** 31 - 1))
    def test_run_is_the_per_tuple_frames(self, rows, code):
        expected = b"".join(reference_frame(code, row) for row in rows)
        assert encode_replies(rows, code) == expected
        assert b"".join(encode_reply(code, row) for row in rows) == expected

    @given(ROWS)
    def test_decoded_in_one_loop(self, rows):
        run = encode_replies(rows) + encode_reply(0)
        replies, used = decode_replies(run)
        assert used == len(run)
        assert [r.code for r in replies] == [MR_MORE_DATA] * len(rows) + [0]
        assert [r.fields for r in replies[:-1]] == [
            tuple(f if isinstance(f, bytes) else str(f).encode()
                  for f in row) for row in rows]
        assert split_frames(run) == [reference_frame(MR_MORE_DATA, row)
                                     for row in rows] + [encode_reply(0)]

    def test_partial_frame_is_left_for_the_next_buffer(self):
        run = encode_replies([("a", "bb"), ("ccc",)]) + encode_reply(0)
        ends = [0]
        for frame in split_frames(run):
            ends.append(ends[-1] + len(frame))
        for cut in range(len(run)):
            replies, used = decode_replies(run[:cut])
            assert used == max(end for end in ends if end <= cut)
            rest, end = decode_replies(run, used)
            assert end == len(run)
            assert [r.code for r in replies + rest] == \
                [MR_MORE_DATA, MR_MORE_DATA, 0]

    def test_stops_after_the_final_reply(self):
        run = encode_reply(MR_MORE_DATA, ("x",)) + encode_reply(0)
        replies, used = decode_replies(run + encode_reply(MR_MORE_DATA, ()))
        assert used == len(run)
        assert [r.code for r in replies] == [MR_MORE_DATA, 0]

    @pytest.mark.parametrize("damage", ["short_length", "count_overrun",
                                        "trailing"])
    def test_malformed_frame_aborts(self, damage):
        frame = bytearray(encode_reply(MR_MORE_DATA, ("abc", "de")))
        if damage == "short_length":
            frame[:4] = (7).to_bytes(4, "big")
        elif damage == "count_overrun":
            frame[12:16] = (9).to_bytes(4, "big")    # "abc" claims 9
        else:
            frame[:4] = (len(frame) - 3).to_bytes(4, "big")
            frame += b"zz"
        with pytest.raises(MoiraError) as exc:
            decode_replies(bytes(frame) + encode_reply(0))
        assert exc.value.code == MR_ABORTED

    def test_version_mismatch_in_a_run(self):
        run = bytearray(encode_replies([("x",), ("y",)]))
        second = len(encode_reply(MR_MORE_DATA, ("x",)))
        run[second + 4:second + 6] = (99).to_bytes(2, "big")
        with pytest.raises(MoiraError) as exc:
            decode_replies(bytes(run))
        assert exc.value.code == MR_VERSION_MISMATCH

    def test_client_reassembles_frames_split_anywhere(self):
        """A transport may hand the client any cut of the reply bytes
        (TCP segments do); every tuple still reaches the callback once,
        in order."""
        from repro.client import MoiraClient
        rows = [(f"row{i}", i, "x" * (i * 37 % 300)) for i in range(40)]
        reply = encode_replies(rows) + encode_reply(0)

        class Chopped:
            def open_connection(self, peer):
                return 1

            def close_connection(self, conn_id):
                pass

            def sync(self):
                pass

            def handle_frame_stream(self, conn_id, frame):
                for start in range(0, len(reply), 7):
                    yield reply[start:start + 7]

        client = MoiraClient(dispatcher=Chopped()).connect()
        got = []
        assert client.mr_query("_list_users", [],
                               lambda n, argv, out: out.append(argv),
                               got) == 0
        assert got == [tuple(str(f) for f in row) for row in rows]


class TestAuthenticatorPacking:
    def test_roundtrip(self):
        clock = Clock()
        kdc = KDC(clock)
        kdc.add_principal("user", "pw")
        kdc.add_service("moira")
        cache = kdc.kinit("user", "pw")
        ticket = kdc.get_service_ticket(cache, "moira")
        auth = kdc.make_authenticator(ticket, clock.now())
        blob = pack_authenticator(auth)
        restored = unpack_authenticator(blob)
        assert restored.ticket.client == "user"
        assert restored.ticket.session_key == ticket.session_key
        assert restored.mac == auth.mac
        # the restored authenticator still verifies
        assert kdc.verify_authenticator(restored, "moira") == "user"

    def test_damaged_blob_rejected(self):
        clock = Clock()
        kdc = KDC(clock)
        kdc.add_principal("user", "pw")
        kdc.add_service("moira")
        cache = kdc.kinit("user", "pw")
        ticket = kdc.get_service_ticket(cache, "moira")
        auth = kdc.make_authenticator(ticket, clock.now())
        blob = pack_authenticator(auth)
        with pytest.raises(MoiraError):
            unpack_authenticator(blob[:-3])


class TestTcpTransport:
    def test_many_clients_one_server_process(self, server, kdc, clock,
                                             run):
        """§5.4: one process, multiple simultaneous TCP connections."""
        from repro.client import MoiraClient
        from repro.protocol.transport import TcpServerTransport
        from tests.conftest import make_user

        make_user(run, "tcpuser")
        kdc.add_principal("tcpuser", "pw")
        run("add_machine", "M.MIT.EDU", "VAX")

        tcp = TcpServerTransport(server).start()
        try:
            host, port = tcp.address
            clients = []
            for i in range(5):
                creds = kdc.kinit("tcpuser", "pw")
                c = MoiraClient(tcp_address=(host, port), kdc=kdc,
                                credentials=creds, clock=clock)
                c.connect().auth(f"tcp{i}")
                clients.append(c)
            for c in clients:
                assert c.query("get_machine", "M*")[0][0] == "M.MIT.EDU"
            # all connections visible in _list_users
            users = clients[0].query("_list_users")
            assert len(users) == 5
            for c in clients:
                c.close()
        finally:
            tcp.stop()

    def test_connection_refused_surfaces_aborted(self, kdc, clock):
        from repro.client import MoiraClient

        client = MoiraClient(tcp_address=("127.0.0.1", 1),  # nothing there
                             kdc=kdc, clock=clock)
        assert client.mr_connect() == MR_ABORTED

    def test_large_result_streams(self, server, run):
        """SUN RPC was rejected because it couldn't return large values;
        the streaming protocol must handle hundreds of tuples."""
        from repro.client import MoiraClient
        from repro.protocol.transport import TcpServerTransport

        for i in range(300):
            run("add_machine", f"BULK-{i:04d}.MIT.EDU", "VAX")
        tcp = TcpServerTransport(server).start()
        try:
            host, port = tcp.address
            c = MoiraClient(tcp_address=(host, port))
            c.connect()
            rows = c.query("get_machine", "BULK-*")
            assert len(rows) == 300
            c.close()
        finally:
            tcp.stop()
