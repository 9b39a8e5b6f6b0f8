"""Byte-level encoding of the Moira protocol.

The paper leaves the precise byte-level encoding unspecified ("T.B.S.");
this module pins one down in its spirit:

* every message is length-prefixed (uint32 big-endian frame);
* a **request** is ``version:u16, major:u8, argc:u16`` followed by
  *argc* counted strings (``len:u32, bytes``);
* a **reply** is ``version:u16, code:i32, fieldc:u16`` followed by
  *fieldc* counted strings.

Query results stream as one reply per tuple with code ``MR_MORE_DATA``,
terminated by a reply whose code is the final status (0 on success).
A server yields it as runs, ``(code, rows)``; only a socket frames them.
"Requests and replies also contain a version number, to allow clean
handling of version skew" — mismatched versions raise
``MR_VERSION_MISMATCH``.

The stream is one frame per tuple on the wire, but neither end pays
per frame: :func:`encode_replies` writes a run of tuple frames into one
buffer and :func:`decode_replies` reads a buffer's frames in one loop.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, NamedTuple, Sequence

from repro.errors import (MoiraError, MR_ABORTED, MR_MORE_DATA,
                          MR_VERSION_MISMATCH)
from repro.kerberos.kdc import Authenticator, Ticket

__all__ = [
    "VERSION",
    "MajorRequest",
    "Request",
    "Reply",
    "Run",
    "encode_request",
    "decode_request",
    "encode_reply",
    "encode_replies",
    "decode_reply",
    "decode_replies",
    "final",
    "failed",
    "str_row",
    "pack_authenticator",
    "unpack_authenticator",
]

VERSION = 2  # the query protocol version deployed at Athena in 1988

MAX_ARG = 1 << 20  # sanity cap on counted-string length
MAX_FRAME = 64 * MAX_ARG  # sanity cap on a frame body

_U32 = struct.Struct(">I")
# a reply frame's fixed part: body length, version, code, fieldc
_REPLY_HEAD = struct.Struct(">IHiH")
# the 4-byte count of every field shorter than 256 bytes, built once
_SHORT_COUNTS = tuple(n.to_bytes(4, "big") for n in range(256))


class MajorRequest(IntEnum):
    """The five major requests of §5.3."""

    NOOP = 0
    AUTHENTICATE = 1
    QUERY = 2
    ACCESS = 3
    TRIGGER_DCM = 4


@dataclass(frozen=True)
class Request:
    """A decoded request: major number + byte-string args."""
    major: MajorRequest
    args: tuple[bytes, ...]

    def str_args(self) -> list[str]:
        """Arguments decoded as UTF-8 strings."""
        return [a.decode("utf-8") for a in self.args]


class Run(NamedTuple):
    """A run of replies sharing one code: one reply per row."""
    code: int
    rows: Sequence[tuple]


class Reply(NamedTuple):
    """A decoded reply: error code + byte-string fields."""
    code: int
    fields: tuple[bytes, ...]

    def str_fields(self) -> tuple[str, ...]:
        """Fields decoded as UTF-8 strings."""
        return tuple(map(bytes.decode, self.fields))


def _counted(items: tuple[bytes, ...]) -> bytes:
    parts = []
    for item in items:
        parts.append(struct.pack(">I", len(item)))
        parts.append(item)
    return b"".join(parts)


def _read_counted(buf: bytes, offset: int, count: int) -> tuple[tuple[bytes, ...], int]:
    items = []
    for _ in range(count):
        if offset + 4 > len(buf):
            raise MoiraError(MR_ABORTED, "truncated counted string header")
        (length,) = struct.unpack_from(">I", buf, offset)
        offset += 4
        if length > MAX_ARG or offset + length > len(buf):
            raise MoiraError(MR_ABORTED, "truncated counted string body")
        items.append(buf[offset:offset + length])
        offset += length
    return tuple(items), offset


def encode_request(major: MajorRequest, args: list[bytes | str]) -> bytes:
    """Frame a request for the wire."""
    encoded = tuple(a.encode("utf-8") if isinstance(a, str) else a
                    for a in args)
    body = struct.pack(">HBH", VERSION, int(major), len(encoded))
    body += _counted(encoded)
    return struct.pack(">I", len(body)) + body


def decode_request(body: bytes) -> Request:
    """Parse a request frame body."""
    if len(body) < 5:
        raise MoiraError(MR_ABORTED, "short request")
    version, major, argc = struct.unpack_from(">HBH", body, 0)
    if version != VERSION:
        raise MoiraError(MR_VERSION_MISMATCH, f"got {version}")
    args, offset = _read_counted(body, 5, argc)
    if offset != len(body):
        raise MoiraError(MR_ABORTED, "trailing bytes in request")
    try:
        major_request = MajorRequest(major)
    except ValueError:
        from repro.errors import MR_NO_HANDLE
        raise MoiraError(MR_NO_HANDLE,
                         f"major request {major}") from None
    return Request(major=major_request, args=args)


def encode_reply(code: int, fields: tuple = ()) -> bytes:
    """Frame a reply for the wire."""
    return encode_replies((fields,), code)


def encode_replies(rows: Iterable[tuple],
                   code: int = MR_MORE_DATA) -> bytes:
    """Frame one reply per row into one buffer.

    Byte-identical to ``b"".join(encode_reply(code, row) for row in
    rows)``: a field is sent as its bytes, or as the UTF-8 of ``str()``.
    The run is built as one list of pieces and joined once.
    """
    parts: list = []
    append = parts.append
    head = _REPLY_HEAD.pack
    short_counts = _SHORT_COUNTS
    count = _U32.pack
    for row in rows:
        at = len(parts)
        append(b"")             # the frame head, once its size is known
        size = 8
        for field in row:
            if type(field) is str:
                field = field.encode()
            elif not isinstance(field, bytes):
                field = str(field).encode()
            n = len(field)
            append(short_counts[n] if n < 256 else count(n))
            append(field)
            size += 4 + n
        parts[at] = head(size, VERSION, code, len(row))
    return b"".join(parts)


def decode_reply(body: bytes) -> Reply:
    """Parse a reply frame body."""
    if len(body) < 8:
        raise MoiraError(MR_ABORTED, "short reply")
    replies, _ = decode_replies(_U32.pack(len(body)) + body)
    return replies[0]


def decode_replies(buf: bytes, offset: int = 0) -> tuple[list[Reply], int]:
    """Decode the whole reply frames of *buf* in one loop.

    Starts at *offset* and stops at the end of the last whole frame or
    after a final (non-``MR_MORE_DATA``) reply, whichever comes first.
    Returns the replies and the offset just past them: a partial
    trailing frame is the caller's to complete from its next buffer.
    """
    if not isinstance(buf, bytes):
        buf = bytes(buf)
    replies: list[Reply] = []
    append = replies.append
    end = len(buf)
    count, head = _U32.unpack_from, _REPLY_HEAD.unpack_from
    make = tuple.__new__
    try:
        while end - offset >= 4:
            length = count(buf, offset)[0]
            if length < 8 or length > MAX_FRAME:
                raise MoiraError(MR_ABORTED, f"bad reply length {length}")
            stop = offset + 4 + length
            if stop > end:
                break
            _, version, code, fieldc = head(buf, offset)
            if version != VERSION:
                raise MoiraError(MR_VERSION_MISMATCH, f"got {version}")
            p = offset + 12
            fields = [b""] * fieldc
            for i in range(fieldc):
                n = count(buf, p)[0]
                p += 4 + n
                fields[i] = buf[p - n:p]
            if p != stop or (length > MAX_ARG
                             and max(map(len, fields)) > MAX_ARG):
                raise MoiraError(MR_ABORTED, "malformed reply frame")
            append(make(Reply, (code, tuple(fields))))
            offset = stop
            if code != MR_MORE_DATA:
                break
    except struct.error:
        raise MoiraError(MR_ABORTED, "malformed reply frame") from None
    return replies, offset


def final(code: int, fields: tuple = ()) -> Run:
    """A final status reply, as the run of one it is streamed as."""
    return Run(code, (fields,))


def failed(exc: MoiraError) -> Run:
    """The final status answering a request that raised *exc*."""
    return final(exc.code, (str(exc.detail),) if exc.detail else ())


def str_row(row: Sequence) -> tuple[str, ...]:
    """A row's fields as the text a TCP client decodes from them: a
    ``str`` as it is, ``bytes`` as UTF-8, anything else as ``str()``."""
    if bytes in map(type, row):
        return tuple(f.decode() if isinstance(f, bytes) else str(f)
                     for f in row)
    return tuple(map(str, row))


# -- Kerberos authenticator packing ------------------------------------------------
# The Authenticate request's single argument is "a Kerberos authenticator";
# we serialise the simulated one into counted fields.


def pack_authenticator(auth: Authenticator) -> bytes:
    """Serialise a Kerberos authenticator as counted fields."""
    t = auth.ticket
    fields = (
        t.client.encode(), t.service.encode(),
        str(t.issued).encode(), str(t.lifetime).encode(),
        t.session_key, t.signature,
        str(auth.timestamp).encode(), auth.nonce.encode(), auth.mac,
    )
    return _counted(fields)


def unpack_authenticator(blob: bytes) -> Authenticator:
    """Invert pack_authenticator()."""
    fields, offset = _read_counted(blob, 0, 9)
    if offset != len(blob):
        raise MoiraError(MR_ABORTED, "trailing bytes in authenticator")
    (client, service, issued, lifetime, session_key, signature,
     timestamp, nonce, mac) = fields
    ticket = Ticket(
        client=client.decode(), service=service.decode(),
        issued=int(issued), lifetime=int(lifetime),
        session_key=session_key, signature=signature,
    )
    return Authenticator(ticket=ticket, timestamp=int(timestamp),
                         nonce=nonce.decode(), mac=mac)
