"""Span tracer and the wrappers a traced run installs.

Imported only by a traced child (``perf.child`` with tracing on); the
untraced path never loads this module, so end-to-end numbers carry no
instrumentation.  Wrappers are installed from here, around public names
of ``src/repro`` only — spans inside the program are a later change.

A span records name, start, end, parent and a request id.  Spans stay
in memory; the child writes them out at exit if asked to.  A span's
*busy* time is its duration, except for a generator (a reply stream),
whose busy time is the sum of the slices during which it was running:
time the consumer spends between two ``next()`` calls belongs to the
consumer.  **Self time = busy - child coverage**, where coverage is the
union of the children's intervals (children on pool threads overlap)
plus the busy time of generator children.

Parent attachment: the innermost open span on the same thread.  A span
that starts with no open span on its thread is a server-side or pool
span; it attaches to the one open client span of the same connection
(a closed loop guarantees at most one per connection), or — for work
with no connection, like the DCM's push pool — to the only open root
span in the process.  Anything else is kept as an orphan root and
counted.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import weakref
from typing import Callable, Iterable, Optional

__all__ = ["Span", "Tracer", "install", "uninstall", "self_times",
           "coverage"]

_clock = time.perf_counter

# spans the harness's own threads open: with nothing open on the thread
# they start a request, and are never adopted by another thread's root
ROOT_PREFIXES = ("client.", "perf.")


class Span:
    __slots__ = ("id", "parent", "req", "name", "start", "end", "busy",
                 "thread", "generator", "orphan", "note", "resumed")

    def __init__(self, span_id: int, name: str, generator: bool = False):
        self.id = span_id
        self.parent = 0
        self.req = span_id
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.busy = 0.0
        self.thread = 0
        self.generator = generator
        self.orphan = False
        self.note = None        # wrapper-specific (e.g. queue wait)
        self.resumed = 0.0      # generator: when the current slice began

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "req": self.req,
                "name": self.name, "start": self.start, "end": self.end,
                "busy": self.busy, "thread": self.thread,
                "generator": self.generator, "orphan": self.orphan,
                "note": self.note}


class Tracer:
    """Collects spans; thread-safe under the GIL (appends and dict
    stores only)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.marks: dict = {}               # name -> (start, end)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._roots: dict = {}              # thread id -> open root span
        # connection attachment
        self._tokens = weakref.WeakKeyDictionary()  # client conn -> token
        self._token_ids = itertools.count(1)
        self._pending: dict = {}    # token -> (span, major, args)
        self._by_conn: dict = {}    # server conn_id -> token
        self._bound: set = set()    # tokens already matched
        self._submitted: dict = {}  # server conn_id -> submit end time
        # repro.protocol.wire's decoder and its error, set by install
        self.decode_request: Optional[Callable] = None
        self.decode_error: type = ValueError

    # -- plain spans ---------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _place(self, span: Span, stack: list, link) -> None:
        """Fill in parent / request id for a span about to start."""
        span.thread = threading.get_ident()
        if stack:
            parent = stack[-1]
        elif span.name.startswith(ROOT_PREFIXES):
            self._roots[span.thread] = span     # a client begins a request
            return
        else:
            parent = self._adopt(link)
        if parent is not None:
            span.parent, span.req = parent.id, parent.req
        elif link is not None or self._roots:
            span.orphan = True      # server/pool work nobody claimed

    def begin(self, name: str, link=None) -> Span:
        span = Span(next(self._ids), name)
        stack = self._stack()
        self._place(span, stack, link)
        stack.append(span)
        span.start = _clock()
        return span

    def end(self, span: Span) -> None:
        span.end = _clock()
        span.busy = span.end - span.start
        self._stack().pop()
        if self._roots.get(span.thread) is span:
            del self._roots[span.thread]
        self.spans.append(span)

    def span(self, name: str) -> "_Scope":
        """Context manager form, for the harness's own scopes."""
        return _Scope(self, name)

    def mark(self, name: str, start: float, end: float) -> None:
        self.marks[name] = (start, end)

    # -- generator spans -----------------------------------------------------

    def generator(self, name: str) -> Span:
        return Span(next(self._ids), name, generator=True)

    def resume(self, span: Span, link=None) -> None:
        stack = self._stack()
        if not span.start:
            self._place(span, stack, link)
            span.start = _clock()
            span.end = span.start
        stack.append(span)
        span.resumed = _clock()

    def suspend(self, span: Span) -> None:
        now = _clock()
        span.busy += now - span.resumed
        span.end = now
        self._stack().pop()

    def finish(self, span: Span) -> None:
        if span.start:
            self.spans.append(span)

    # -- cross-thread attachment ---------------------------------------------

    def client_request(self, conn, span: Span, major, args) -> int:
        """A client connection has a request in flight under *span*."""
        token = self._tokens.get(conn)
        if token is None:
            token = self._tokens[conn] = next(self._token_ids)
        self._pending[token] = (span, int(major), args)
        return token

    def client_done(self, token: int) -> None:
        self._pending.pop(token, None)

    def _adopt(self, link) -> Optional[Span]:
        if link is None:
            roots = list(self._roots.values())
            return roots[0] if len(roots) == 1 else None
        conn_id, frame = link
        token = self._by_conn.get(conn_id)
        if token is None:
            token = self._match(frame)
            if token is None:
                return None
            self._by_conn[conn_id] = token
            self._bound.add(token)
        entry = self._pending.get(token)
        return entry[0] if entry is not None else None

    def _match(self, frame: bytes) -> Optional[int]:
        """First frame seen on a server connection: find the client
        connection whose in-flight request it is."""
        try:
            request = self.decode_request(frame)
        except self.decode_error:
            return None
        for token, (_span, major, args) in list(self._pending.items()):
            if token in self._bound or major != int(request.major):
                continue
            encoded = tuple(a.encode("utf-8") if isinstance(a, str) else a
                            for a in args)
            if encoded == request.args:
                return token
        return None

    def submitted(self, conn_id: int) -> None:
        self._submitted[conn_id] = _clock()

    def queue_wait(self, conn_id: int) -> Optional[float]:
        at = self._submitted.pop(conn_id, None)
        return None if at is None else _clock() - at


class _Scope:
    __slots__ = ("tracer", "name", "active")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name, self.active = tracer, name, None

    def __enter__(self) -> Span:
        self.active = self.tracer.begin(self.name)
        return self.active

    def __exit__(self, *exc_info) -> None:
        self.tracer.end(self.active)


# -- self time ---------------------------------------------------------------


def coverage(parent: Span, children: Iterable[Span]) -> float:
    """How much of *parent*'s busy time its children account for."""
    covered = 0.0
    intervals = []
    for child in children:
        if child.generator:
            covered += child.busy
        else:
            lo, hi = max(child.start, parent.start), min(child.end,
                                                         parent.end)
            if hi > lo:
                intervals.append((lo, hi))
    intervals.sort()
    edge = None
    for lo, hi in intervals:
        if edge is None or lo > edge:
            covered += hi - lo
            edge = hi
        elif hi > edge:
            covered += hi - edge
            edge = hi
    return covered


def self_times(spans: Iterable[Span]) -> dict:
    """span id -> self time (busy minus child coverage, floored at 0)."""
    spans = list(spans)
    children: dict = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append(span)
    return {span.id: max(0.0, span.busy
                         - coverage(span, children.get(span.id, ())))
            for span in spans}


# -- wrappers ----------------------------------------------------------------


def _plain(tracer: Tracer, fn, name, namer=None):
    begin, end = tracer.begin, tracer.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = begin(namer(args, kwargs) if namer else name)
        try:
            return fn(*args, **kwargs)
        finally:
            end(span)
    return wrapper


def _client_stream(tracer: Tracer, fn):
    """``ClientConnection.stream``: a generator span that also tells
    the tracer which request this connection has in flight."""

    @functools.wraps(fn)
    def wrapper(self, major, args):
        inner = fn(self, major, args)
        span = tracer.generator("protocol.stream")
        token = None
        try:
            while True:
                tracer.resume(span)
                if token is None:
                    token = tracer.client_request(self, span, major, args)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.suspend(span)
                yield item
        finally:
            inner.close()
            if token is not None:
                tracer.client_done(token)
            tracer.finish(span)
    return wrapper


def _server_stream(tracer: Tracer, fn):
    """``MoiraServer.handle_frame_stream``: generator span, attached by
    connection, noting how long the frame waited for a worker."""

    @functools.wraps(fn)
    def wrapper(self, conn_id, frame):
        inner = fn(self, conn_id, frame)
        span = tracer.generator("server.handle_frame")
        link = (conn_id, frame)
        try:
            while True:
                if not span.start:
                    span.note = tracer.queue_wait(conn_id)
                tracer.resume(span, link)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.suspend(span)
                yield item
        finally:
            inner.close()
            tracer.finish(span)
    return wrapper


def _server_submit(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, conn_id, frame, on_reply, on_done):
        span = tracer.begin("server.submit", (conn_id, frame))
        try:
            accepted = fn(self, conn_id, frame, on_reply, on_done)
            if accepted:
                tracer.submitted(conn_id)
            return accepted
        finally:
            tracer.end(span)
    return wrapper


def _patch_attr(patches: list, owner, attr: str, make) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    if isinstance(raw, staticmethod):
        new = staticmethod(make(raw.__func__))
    else:
        new = make(raw)
    patches.append((owner, attr, raw))
    setattr(owner, attr, new)


def _patch_function(patches: list, module, attr: str, make) -> None:
    """Wrap a module-level function everywhere it was imported by
    name (``from x import f`` copies the reference)."""
    original = getattr(module, attr)
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith(("repro", "perf")):
            continue
        if mod.__dict__.get(attr) is original:
            patches.append((mod, attr, original))
            setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> list:
    """Wrap the public names listed in perf/README.md; returns the
    patch list for :func:`uninstall`."""
    import repro.core.deployment  # noqa: F401  (loads every layer)
    from repro.client.lib import MoiraClient
    from repro.db import backup, recovery
    from repro.db.closure import MembershipClosure
    from repro.db.engine import Database
    from repro.db.journal import Journal
    from repro.dcm import update
    from repro.dcm.cdc import CdcExtractor
    from repro.dcm.dcm import DCM
    from repro.dcm.generators.base import all_generators
    from repro.hosts.update_daemon import UpdateDaemon
    from repro.kerberos.kdc import KDC
    from repro.protocol import wire
    from repro.protocol.transport import ClientConnection
    from repro.queries import base as queries_base
    from repro.server.access import AccessCache
    from repro.server.moira_server import MoiraServer
    from repro.servers.hesiod import HesiodServer
    from repro.workload import population

    from repro.errors import MoiraError
    tracer.decode_request = wire.decode_request
    tracer.decode_error = MoiraError
    patches: list = []

    def plain(name, namer=None):
        return lambda fn: _plain(tracer, fn, name, namer)

    methods = [
        (MoiraClient, "mr_query", "client.mr_query"),
        (MoiraClient, "mr_auth", "client.mr_auth"),
        (MoiraClient, "mr_connect", "client.mr_connect"),
        (ClientConnection, "call", "protocol.call"),
        (AccessCache, "lookup", "server.access.lookup"),
        (MembershipClosure, "lists_containing", "queries.closure"),
        (MembershipClosure, "contains", "queries.closure"),
        (Database, "pin_snapshot", "db.pin"),
        (Database, "unpin_snapshot", "db.unpin"),
        (Database, "gc_versions", "db.gc"),
        (Journal, "record", "db.journal.record"),
        (Journal, "sync", "db.journal.sync"),
        (KDC, "kinit", "kerberos.kinit"),
        (KDC, "make_authenticator", "kerberos.make_authenticator"),
        (KDC, "verify_authenticator", "kerberos.verify_authenticator"),
        (DCM, "run_once", "dcm.run_once"),
        (CdcExtractor, "pump", "dcm.cdc.pump"),
        (CdcExtractor, "poll", "dcm.cdc.poll"),
        (UpdateDaemon, "receive_file", "hosts.update_daemon.receive_file"),
        (UpdateDaemon, "execute", "hosts.update_daemon.execute"),
        (HesiodServer, "restart", "servers.hesiod.restart"),
    ]
    for owner, attr, name in methods:
        _patch_attr(patches, owner, attr, plain(name))
    _patch_attr(patches, DCM, "converge_service", plain(
        "", lambda args, kwargs: "dcm.converge." + str(args[1]).upper()))
    _patch_attr(patches, ClientConnection, "stream",
                lambda fn: _client_stream(tracer, fn))
    _patch_attr(patches, MoiraServer, "handle_frame_stream",
                lambda fn: _server_stream(tracer, fn))
    _patch_attr(patches, MoiraServer, "submit_frame",
                lambda fn: _server_submit(tracer, fn))
    seen = set()
    for service, generator in all_generators().items():
        cls = type(generator)
        for attr in ("generate", "generate_incremental"):
            if attr in cls.__dict__ and (cls, attr) not in seen:
                seen.add((cls, attr))
                _patch_attr(patches, cls, attr,
                            plain("dcm.generate." + service))
    for query in queries_base.all_queries().values():
        _patch_attr(patches, query, "handler", plain("queries.handler"))
    functions = [
        (queries_base, "execute_query", "queries.execute"),
        (queries_base, "check_query_access", "server.access.check"),
        (update, "push_update", "dcm.update.push"),
        (recovery, "recover", "db.recovery.recover"),
        (recovery, "replay_wal", "db.recovery.replay_wal"),
        (backup, "mrbackup", "db.backup.mrbackup"),
        (backup, "mrrestore", "db.backup.mrrestore"),
        (population, "load_population", "workload.load_population"),
    ]
    for module, attr, name in functions:
        _patch_function(patches, module, attr, plain(name))
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
