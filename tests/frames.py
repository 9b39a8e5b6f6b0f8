"""Reading length-prefixed frames off a blocking byte source or out of a
buffer, for tests that drive a raw socket or inspect encoded replies;
the program itself reads frames only in the TCP transport's
non-blocking loop."""

from __future__ import annotations

from repro.errors import MoiraError, MR_ABORTED
from repro.protocol.wire import MAX_FRAME


def read_frame(recv) -> bytes:
    """Read one length-prefixed frame via *recv(n) -> bytes*.

    Raises MR_ABORTED on EOF mid-frame; returns b"" on clean EOF at a
    frame boundary.
    """
    header = _read_exact(recv, 4, allow_eof=True)
    if not header:
        return b""
    length = int.from_bytes(header, "big")
    if length == 0 or length > MAX_FRAME:
        raise MoiraError(MR_ABORTED, f"bad frame length {length}")
    return _read_exact(recv, length, allow_eof=False)


def split_frames(buf: bytes) -> list[bytes]:
    """A buffer of whole length-prefixed frames, one frame per element."""
    frames = []
    offset = 0
    while offset < len(buf):
        stop = offset + 4 + int.from_bytes(buf[offset:offset + 4], "big")
        frames.append(buf[offset:stop])
        offset = stop
    return frames


def _read_exact(recv, n: int, *, allow_eof: bool) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = recv(remaining)
        if not chunk:
            if allow_eof and remaining == n:
                return b""
            raise MoiraError(MR_ABORTED, "connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
