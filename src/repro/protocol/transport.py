"""Transports carrying Moira protocol frames.

Two interchangeable transports exist:

* :class:`TcpServerTransport` — the real thing: a single-process server
  multiplexing many TCP connections with non-blocking I/O via
  ``selectors``, reproducing the GDB design of §5.4 ("a single process
  server which handles multiple simultaneous TCP connections", able to
  read new requests and send old replies simultaneously).

* :class:`InProcessTransport` — the socket replaced by a direct call
  that hands the client each run as the dispatcher yields it, with no
  framing and no conversion: every run a dispatcher yields is already
  the text a TCP client would decode.

Both talk to a :class:`Dispatcher`: ``open_connection(peer)``,
``handle_frame_stream(conn_id, frame)`` yielding runs ``(code, rows)``,
``sync()`` and ``close_connection(conn_id)``.  The Moira server
implements it.  Bytes exist only where there is a wire: the TCP server
frames a run with one :func:`~repro.protocol.wire.encode_replies` call
and its client decodes each ``recv`` in one loop.

Sync before release: no reply leaves a transport before a
``dispatcher.sync()`` that returned after the frame ran.  A sync that
raises :class:`MoiraError` (a fence) answers every frame it held with
that status instead; one that raises anything else (a simulated crash)
releases nothing.

The TCP server runs everything on one thread, its selector loop.  Per
wakeup it runs every ready connection's whole frames to completion
through ``handle_frame_stream``, framing their runs into each
connection's held buffer; then one ``sync()`` covers every write among
them, and only then are the held bytes moved to the out-buffers and
sent, so a reply is one buffer and usually one ``send``, and the loop
waits for ``EVENT_WRITE`` only when the kernel took less than all of
it.  Nothing — no read view, no lock — is held from one loop iteration
to the next, and per-connection order is the order frames arrived.
Sockets at both ends set ``TCP_NODELAY``: a reply is written
whole, so there is nothing for Nagle's algorithm to coalesce and its
wait for the peer's delayed ACK would only stall the exchange.

Backpressure: a connection with ``high_water`` or more bytes buffered
for sending is not read (nor are its already-read frames run) until it
drains to ``low_water``, so the kernel's TCP window pushes back on
the client.  Such a connection that makes no drain progress for
``stall_timeout`` seconds is dropped; ``select()`` has a timeout only
while one exists, so an idle server sleeps.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from typing import Iterator, Protocol

from repro.errors import (
    MoiraError,
    MR_ABORTED,
    MR_MORE_DATA,
    MR_NOT_CONNECTED,
)
from repro.protocol.wire import (
    MajorRequest,
    Run,
    decode_replies,
    encode_replies,
    encode_request,
    failed,
)

__all__ = [
    "Dispatcher",
    "ClientConnection",
    "InProcessTransport",
    "TcpServerTransport",
    "connect_inproc",
    "connect_tcp",
]


class Dispatcher(Protocol):
    """What a transport needs from a server."""

    def open_connection(self, peer: str) -> int:
        """Register a new client; returns its connection id."""
        ...

    def handle_frame_stream(self, conn_id: int,
                            frame: bytes) -> Iterator[Run]:
        """Process one request frame body; yields runs ``(code,
        rows)``, one reply per row, the last a final (non-MR_MORE_DATA)
        status."""
        ...

    def sync(self) -> None:
        """Make durable what every frame run so far wrote; a transport
        releases no reply before it returns."""
        ...

    def close_connection(self, conn_id: int) -> None:
        """Forget a departed client."""
        ...


class ClientConnection:
    """Common client-side reply collection over any raw frame channel."""

    def call(self, major: MajorRequest,
             args: list[bytes | str]) -> list[Run]:
        """Send one request; collect its runs until the final status.

        The returned list always ends with the final (non-MR_MORE_DATA)
        status, a run of one; runs of tuple replies precede it.
        """
        return list(self.stream(major, args))

    def stream(self, major: MajorRequest,
               args: list[bytes | str]) -> Iterator[Run]:
        """Yield runs ``(code, rows)`` until the final status, a run of
        one; every row is a tuple of ``str``.

        The transport hands over a dispatcher's runs as they are, or
        wire bytes: each buffer is decoded in one loop (a frame split
        across two waits for the second) into one run of its tuples,
        then the final status if the buffer holds it."""
        tail = b""
        for item in self._roundtrip(encode_request(major, args)):
            if isinstance(item, tuple):
                run = item if type(item) is Run else Run._make(item)
                yield run
                if run.code != MR_MORE_DATA:
                    return
                continue
            buf = tail + item if tail else item
            replies, used = decode_replies(buf)
            tail = buf[used:]
            if not replies:
                continue
            last = replies[-1]
            done = last.code != MR_MORE_DATA
            if done:
                replies.pop()
            if replies:
                yield Run(MR_MORE_DATA,
                          [reply.str_fields() for reply in replies])
            if done:
                yield Run(last.code, (last.str_fields(),))
                return
        raise MoiraError(MR_ABORTED, "reply stream ended early")

    def _roundtrip(self, request_frame: bytes) -> Iterator[bytes | Run]:
        """Send a request; yield its runs, or wire bytes, as they
        arrive."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear down the connection."""
        raise NotImplementedError


# -- in-process -------------------------------------------------------------------


class InProcessTransport:
    """Connects clients straight to a dispatcher."""

    def __init__(self, dispatcher: Dispatcher):
        self.dispatcher = dispatcher

    def connect(self, peer: str = "inproc") -> "_InProcessConnection":
        """Open a connection to the dispatcher."""
        conn_id = self.dispatcher.open_connection(peer)
        return _InProcessConnection(self.dispatcher, conn_id)


class _InProcessConnection(ClientConnection):
    def __init__(self, dispatcher: Dispatcher, conn_id: int):
        self.dispatcher = dispatcher
        self.conn_id = conn_id
        self._open = True

    def _roundtrip(self, request_frame: bytes) -> Iterator[bytes | Run]:
        if not self._open:
            raise MoiraError(MR_NOT_CONNECTED)
        # a large retrieve flows run by run on this thread, each run
        # released only after a sync; its rows are text already, and
        # wire bytes from a dispatcher are decoded as a TCP recv is
        stream = self.dispatcher.handle_frame_stream(
            self.conn_id, request_frame[4:])
        try:
            for run in stream:
                try:
                    self.dispatcher.sync()
                except MoiraError as exc:
                    run = failed(exc)       # the last run this frame sends
                    stream.close()
                yield run
        finally:
            stream.close()

    def close(self) -> None:
        """Tear down the connection."""
        if self._open:
            self._open = False
            self.dispatcher.close_connection(self.conn_id)


def connect_inproc(dispatcher: Dispatcher,
                   peer: str = "inproc") -> ClientConnection:
    """A client connection straight into *dispatcher*; requests run on
    the calling thread."""
    return InProcessTransport(dispatcher).connect(peer)


# -- TCP ---------------------------------------------------------------------------


def _nodelay(sock: socket.socket) -> None:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class _ConnState:
    """Per-socket bookkeeping, touched only by the selector thread."""

    __slots__ = ("conn_id", "inbuf", "held", "frames", "outbuf", "mask")

    def __init__(self, conn_id: int):
        self.conn_id = conn_id
        self.inbuf = bytearray()      # received, not yet run
        self.held = bytearray()       # replies of frames run, not yet synced
        self.frames = 0               # frames whose replies are held
        self.outbuf = bytearray()     # reply bytes the kernel has not taken
        self.mask = selectors.EVENT_READ   # registered selector interest


class TcpServerTransport:
    """Single-process, selector-driven TCP front end for a dispatcher."""

    def __init__(self, dispatcher: Dispatcher, host: str = "127.0.0.1",
                 port: int = 0, *, high_water: int = 1 << 20,
                 low_water: int = 1 << 18, stall_timeout: float = 15.0):
        self.dispatcher = dispatcher
        self.high_water = high_water
        self.low_water = low_water
        self.stall_timeout = stall_timeout
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._thread: threading.Thread | None = None
        self._conn_state: dict[socket.socket, _ConnState] = {}
        # connections over high water (not read): socket -> when it
        # last made drain progress
        self._blocked: dict[socket.socket, float] = {}
        self._stopped = False

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port.

        With ``port=0`` (ephemeral bind — what parallel chaos tests use
        so topologies never collide) the kernel-assigned port is
        readable here from construction on; :meth:`start` never has to
        race the bind.
        """
        return self.address[1]

    def start(self) -> "TcpServerTransport":
        """Run the accept/serve loop in a daemon thread."""
        if self._stopped:
            raise RuntimeError("transport already stopped")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._serve, daemon=True,
                name=f"moira-server:{self.port}")
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, join the serve thread, close every socket.

        Idempotent: chaos teardown paths (a scenario's ``finally``, the
        cluster's ``stop``, and an explicit kill step) may all call it;
        only the first does the work, the rest return immediately —
        never a double-close of the listener.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._thread is not None:
            # wake select() by making the listener readable
            try:
                socket.create_connection(self.address, timeout=1).close()
            except OSError:
                pass
            self._thread.join(timeout=5)
            self._thread = None
        for sock in list(self._conn_state):
            self._drop(sock)
        self._selector.close()
        self._listener.close()

    # -- event loop -----------------------------------------------------------

    def _serve(self) -> None:
        while True:
            timeout = None
            if self._blocked:
                oldest = min(self._blocked.values())
                timeout = max(0.0, oldest + self.stall_timeout
                              - time.monotonic())
            events = self._selector.select(timeout)
            if self._stopped:
                return
            ready = []
            for key, mask in events:
                sock = key.fileobj
                if sock is self._listener:
                    self._accept()
                    continue
                state = self._conn_state.get(sock)
                if state is None:
                    continue
                try:
                    if mask & selectors.EVENT_READ:
                        self._receive(sock, state)
                except Exception:   # peer gone
                    self._drop(sock)
                    continue
                ready.append(sock)
            while ready:
                ready = self._round(ready)
            if self._blocked:
                self._drop_stalled()

    def _accept(self) -> None:
        try:
            sock, addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        _nodelay(sock)
        conn_id = self.dispatcher.open_connection(f"{addr[0]}:{addr[1]}")
        self._conn_state[sock] = _ConnState(conn_id)
        self._selector.register(sock, selectors.EVENT_READ, None)

    @staticmethod
    def _receive(sock: socket.socket, state: _ConnState) -> None:
        try:
            data = sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        if not data:
            raise ConnectionResetError("peer closed")
        state.inbuf += data

    def _round(self, socks: list) -> list:
        """Run the listed connections' whole frames, sync once, then
        release and send their replies; returns the connections that
        stopped at high water with frames left to run."""
        ran = []
        for sock in socks:
            state = self._conn_state.get(sock)
            if state is None:
                continue
            try:
                if sock not in self._blocked:
                    self._run_frames(state)
            except Exception:   # the dispatcher failed
                self._drop(sock)
                continue
            ran.append((sock, state))
        try:
            self.dispatcher.sync()
        except MoiraError as exc:
            code, rows = failed(exc)
            refusal = encode_replies(rows, code)
            for _, state in ran:
                state.held[:] = refusal * state.frames
        again = []
        for sock, state in ran:
            state.outbuf += state.held
            state.held.clear()
            state.frames = 0
            try:
                if self._service(sock, state):
                    again.append(sock)
            except Exception:   # peer gone
                self._drop(sock)
        return again

    def _service(self, sock: socket.socket, state: _ConnState) -> bool:
        """Send what the kernel takes and set the connection's selector
        interest; True when it has whole frames to run now."""
        self._send(sock, state)
        size = len(state.outbuf)
        if size >= self.high_water:
            self._blocked.setdefault(sock, time.monotonic())
        elif sock in self._blocked and size <= self.low_water:
            del self._blocked[sock]     # run what arrived while blocked
        # a blocked connection still has bytes to send: never mask 0
        mask = 0 if sock in self._blocked else selectors.EVENT_READ
        if state.outbuf:
            mask |= selectors.EVENT_WRITE
        if mask != state.mask:
            self._selector.modify(sock, mask, None)
            state.mask = mask
        return sock not in self._blocked and self._whole_frame(state.inbuf)

    @staticmethod
    def _whole_frame(buf: bytearray) -> bool:
        return len(buf) >= 4 and \
            len(buf) >= 4 + int.from_bytes(buf[:4], "big")

    def _run_frames(self, state: _ConnState) -> None:
        """Run each whole frame in the in-buffer to completion, in
        order, holding its replies; stop at high water."""
        buf, held = state.inbuf, state.held
        while self._whole_frame(buf):
            if len(state.outbuf) + len(held) >= self.high_water:
                return
            end = 4 + int.from_bytes(buf[:4], "big")
            frame = bytes(buf[4:end])
            del buf[:end]
            for code, rows in self.dispatcher.handle_frame_stream(
                    state.conn_id, frame):
                held += encode_replies(rows, code)
            state.frames += 1

    def _send(self, sock: socket.socket, state: _ConnState) -> None:
        """One non-blocking send of the out-buffer."""
        if not state.outbuf:
            return
        try:
            sent = sock.send(state.outbuf)
        except (BlockingIOError, InterruptedError):
            return
        del state.outbuf[:sent]
        if sent and sock in self._blocked:
            self._blocked[sock] = time.monotonic()  # drain progress

    def _drop_stalled(self) -> None:
        deadline = time.monotonic() - self.stall_timeout
        for sock in [s for s, progress in self._blocked.items()
                     if progress <= deadline]:
            self._drop(sock)

    def _drop(self, sock: socket.socket) -> None:
        state = self._conn_state.pop(sock, None)
        self._blocked.pop(sock, None)
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError, RuntimeError):
            pass
        sock.close()
        if state is not None:
            self.dispatcher.close_connection(state.conn_id)


class _TcpClientConnection(ClientConnection):
    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        _nodelay(self._sock)

    def _roundtrip(self, request_frame: bytes) -> Iterator[bytes]:
        """Each ``recv`` as it comes — a whole reply usually arrives in
        one.  A timeout, a reset or end of stream before the final
        reply is MR_ABORTED, as a failed send is."""
        try:
            self._sock.sendall(request_frame)
        except OSError as exc:
            raise MoiraError(MR_ABORTED, str(exc)) from exc
        while True:
            try:
                data = self._sock.recv(65536)
            except OSError as exc:
                raise MoiraError(MR_ABORTED, str(exc)) from exc
            if not data:
                raise MoiraError(MR_ABORTED, "server closed connection")
            yield data

    def close(self) -> None:
        """Tear down the connection."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass


def connect_tcp(host: str, port: int,
                timeout: float = 10.0) -> _TcpClientConnection:
    """A client connection to a TCP Moira server."""
    try:
        return _TcpClientConnection(host, port, timeout)
    except OSError as exc:
        raise MoiraError(MR_ABORTED, f"connect failed: {exc}") from exc
