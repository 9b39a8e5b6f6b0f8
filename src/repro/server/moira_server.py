"""The Moira server daemon.

Implements the transport ``Dispatcher`` interface: connections are
opened/closed by a transport (TCP or in-process) and each request frame
is decoded, dispatched on its major request number, and answered with
runs of replies, ``(code, rows)``: one tuple per ``MR_MORE_DATA`` reply,
then a final status reply (§5.3).  Only the TCP transport frames them
(and the byte adapters ``handle_frame`` / ``submit_frame``).

The server opens its single database "backend" once at start-up (§5.4);
every connection shares it.  Authentication is per-connection: after a
successful Authenticate request, subsequent requests run as that
principal.  ``_list_users`` is answered from the live connection table,
not the database (§7.0.8).

Concurrency (beyond the paper, after MCS's multithreaded engine):

* Queries declared ``side_effects=False`` run on the backend's
  ``read_view()`` (:func:`~repro.queries.base.run_read`): on the
  memory engine a pinned committed snapshot scanned without any lock —
  readers never block on writers.  Mutations run in the backend's
  ``write_txn()`` (:func:`~repro.queries.base.run_write`) under its one
  writer lock, so journal order is commit order, and are journaled
  without an fsync.
* Sync before release: no reply leaves before :meth:`sync` — one
  ``journal.sync()`` — covers every write appended so far.  The
  transports call it: the TCP loop once per wakeup, after it ran every
  ready frame; an in-process connection before it hands over a run.
  A read is held too, since it may have seen an un-fsync'd write.
* A request runs to completion on the thread that hands the frame in:
  the TCP transport's one selector thread, or an in-process client's
  own thread.  The server owns no threads.
* :meth:`handle_frame_stream` yields each run of tuples as it is
  produced (:func:`~repro.queries.base.run_read`), so an in-process
  client consumes a 10k-tuple retrieve as the scan runs.

Every query execution is folded into a per-handle
:class:`~repro.server.metrics.QueryMetrics` row (calls, errors, tuples,
wall histograms, writer-only lock-wait histograms, and MVCC snapshot
counters: rows scanned vs returned, snapshot-pin age), surfaced through
the ``_query_stats`` pseudo-query the same way ``_list_users`` reads
the connection table; engine-wide MVCC counters (commits, GC reclaim,
active pins) ride along as ``_mvcc.*`` rows.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

from repro.db.engine import Database
from repro.db.journal import Journal
from repro.errors import (
    MoiraError,
    MR_ARGS,
    MR_BUSY,
    MR_INTERNAL,
    MR_MORE_DATA,
    MR_NO_HANDLE,
    MR_PERM,
)
from repro.kerberos.kdc import KDC
from repro.protocol.wire import (
    MajorRequest,
    Run,
    decode_request,
    encode_reply,
    failed,
    final,
    unpack_authenticator,
)
from repro.queries.base import (
    Query,
    QueryContext,
    check_argc,
    check_query_access,
    get_query,
    run_read,
    run_write,
)
from repro.server.access import AccessCache
from repro.server.metrics import QueryMetrics
from repro.sim.clock import Clock
from repro.sim.faults import FaultInjector

__all__ = ["MoiraServer", "ServerStats"]

MOIRA_SERVICE_PRINCIPAL = "moira"


class ServerStats:
    """Counters the daemon keeps about itself (thread-safe).

    Counters stay plain integer attributes (read them directly), but
    increments go through :meth:`incr`, which serialises on one lock.
    """

    FIELDS = (
        "connections_opened",
        "connections_closed",
        "requests_handled",
        "queries_executed",
        "access_checks",
        "auth_successes",
        "auth_failures",
        "tuples_returned",
        "errors_returned",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self.FIELDS:
            setattr(self, name, 0)

    def incr(self, name: str, amount: int = 1) -> None:
        """Atomically add *amount* to the counter *name*."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def as_dict(self) -> dict[str, int]:
        """Snapshot of every counter."""
        return {name: getattr(self, name) for name in self.FIELDS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ServerStats({inner})"


@dataclass
class _Connection:
    conn_id: int
    peer: str
    connect_time: int
    principal: str = ""
    client_name: str = ""
    requests: int = field(default=0)


class MoiraServer:
    """The daemon: one shared backend, many connections."""

    def __init__(
        self,
        db: Database,
        clock: Clock,
        kdc: Optional[KDC] = None,
        *,
        journal: Optional[Journal] = None,
        access_cache: Optional[AccessCache] = None,
        dcm_trigger: Optional[Callable[[], None]] = None,
        service_principal: str = MOIRA_SERVICE_PRINCIPAL,
        metrics: Optional[QueryMetrics] = None,
        faults: Optional[FaultInjector] = None,
        dcm_stats: Optional[Callable[[], list]] = None,
    ):
        self.db = db
        self.clock = clock
        self.kdc = kdc
        self.journal = journal if journal is not None else Journal()
        self.access_cache = access_cache or AccessCache()
        self.dcm_trigger = dcm_trigger
        self.service_principal = service_principal
        self.stats = ServerStats()
        self.metrics = metrics if metrics is not None else QueryMetrics()
        self.faults = faults
        # provider of per-target DCM retry/breaker rows for _dcm_stats
        # (wired by the deployment to DCM.dcm_stats_tuples)
        self.dcm_stats = dcm_stats
        # provider of CDC freshness rows for _dcm_stats (wired by the
        # deployment to CdcExtractor.stats_tuples when cdc=True)
        self.cdc_stats: Optional[Callable[[], list]] = None
        self._connections: dict[int, _Connection] = {}
        self._next_conn = 1
        self._lock = threading.Lock()
        if kdc is not None and not kdc.principal_exists(service_principal):
            kdc.add_service(service_principal)
        # replication-feed identity: pulls must authenticate as this
        # service principal when a KDC is present (replicas kinit from
        # its srvtab); registered here so the srvtab exists before any
        # replica attaches
        from repro.replication.feed import REPL_SERVICE_PRINCIPAL
        self.repl_principal = REPL_SERVICE_PRINCIPAL
        if kdc is not None and not kdc.principal_exists(self.repl_principal):
            kdc.add_service(self.repl_principal)
        # feed topology as this node knows it: name -> (address, role),
        # maintained by ReplicaCluster / FailoverCoordinator and served
        # as _endpoint rows by _repl_status and _query_stats
        self.repl_endpoints: dict[str, tuple[str, str]] = {}

    @property
    def role(self) -> str:
        """This node's cluster role: ``primary`` or ``fenced``.

        A replica's serving wrapper overrides this; on a plain server
        the role is primary unless a newer epoch fenced our journal.
        """
        return "fenced" if self.journal.fenced else "primary"

    def sync(self) -> None:
        """Make every write appended so far durable before a reply is
        released; returns at once when a sync already covers them.
        Raises what ``journal.sync()`` raises: ``MR_FENCED``, or a
        simulated crash."""
        if not self.journal.synced():
            self.journal.sync()

    def shutdown(self) -> None:
        """Nothing to stop: the server owns no threads (transports own
        the I/O loop and stop it themselves).  Kept so an owner can
        tear every component down the same way."""

    # -- Dispatcher interface ---------------------------------------------------

    def open_connection(self, peer: str) -> int:
        """Track a new client connection."""
        with self._lock:
            conn_id = self._next_conn
            self._next_conn += 1
            self._connections[conn_id] = _Connection(
                conn_id=conn_id, peer=peer, connect_time=self.clock.now())
        self.stats.incr("connections_opened")
        return conn_id

    def close_connection(self, conn_id: int) -> None:
        """Forget a departed connection."""
        with self._lock:
            gone = self._connections.pop(conn_id, None) is not None
        if gone:
            self.stats.incr("connections_closed")

    def handle_frame(self, conn_id: int, frame: bytes) -> list[bytes]:
        """Decode, dispatch, and answer one request frame; one reply
        frame per element, released by a :meth:`sync`."""
        return [encode_reply(code, row) for code, rows
                in self._synced_runs(conn_id, frame) for row in rows]

    def _synced_runs(self, conn_id: int, frame: bytes) -> list[Run]:
        """One frame's runs once a :meth:`sync` covers them; a fence at
        the sync answers the frame with its status alone."""
        runs = list(self.handle_frame_stream(conn_id, frame))
        try:
            self.sync()
        except MoiraError as exc:
            return [failed(exc)]
        return runs

    def handle_frame_stream(self, conn_id: int,
                            frame: bytes) -> Iterator[Run]:
        """The transports' entry: answer one request frame with runs
        ``(code, rows)`` as they are produced, the last a final status."""
        if self.faults is not None:
            # a ServerCrash armed here is a BaseException: it sails past
            # the blanket handlers below, exactly like a real SIGKILL
            self.faults.fire("server.frame", conn_id=conn_id)
        conn = self._connections.get(conn_id)
        if conn is None:
            yield final(MR_INTERNAL)
            return
        self.stats.incr("requests_handled")
        conn.requests += 1
        try:
            request = decode_request(frame)
        except MoiraError as exc:
            self.stats.incr("errors_returned")
            yield final(exc.code)
            return
        try:
            if request.major is MajorRequest.NOOP:
                yield final(0)
            elif request.major is MajorRequest.AUTHENTICATE:
                yield from self._do_auth(conn, request.args)
            elif request.major is MajorRequest.QUERY:
                yield from self._do_query(conn, request.str_args())
            elif request.major is MajorRequest.ACCESS:
                yield from self._do_access(conn, request.str_args())
            elif request.major is MajorRequest.TRIGGER_DCM:
                yield from self._do_trigger_dcm(conn)
            else:
                yield final(MR_NO_HANDLE)
        except MoiraError as exc:
            self.stats.incr("errors_returned")
            yield failed(exc)
        except Exception as exc:  # never crash the daemon on one request
            self.stats.incr("errors_returned")
            yield final(MR_INTERNAL, (repr(exc),))

    def submit_frame(self, conn_id: int, frame: bytes,
                     on_reply: Callable[[bytes], bool],
                     on_done: Callable[[], None]) -> bool:
        """The callback form of :meth:`handle_frame`, run to completion
        on the calling thread: each reply frame goes to
        ``on_reply(frame) -> bool`` (False drops the rest), then
        ``on_done()`` fires exactly once.  Always returns True.
        ``perf/trace.py`` wraps this method by name."""
        try:
            for code, rows in self._synced_runs(conn_id, frame):
                for row in rows:
                    if not on_reply(encode_reply(code, row)):
                        return True
        finally:
            on_done()
        return True

    # -- major request handlers ---------------------------------------------------

    def _do_auth(self, conn: _Connection, args: tuple[bytes, ...]) -> list[Run]:
        if len(args) != 2:
            raise MoiraError(MR_ARGS, "auth wants clientname, authenticator")
        if self.kdc is None:
            raise MoiraError(MR_PERM, "server has no Kerberos")
        client_name = args[0].decode("utf-8")
        try:
            auth = unpack_authenticator(args[1])
            principal = self.kdc.verify_authenticator(
                auth, self.service_principal)
        except MoiraError:
            self.stats.incr("auth_failures")
            raise
        conn.principal = principal
        conn.client_name = client_name
        self.stats.incr("auth_successes")
        return [final(0)]

    def _context_for(self, conn: _Connection) -> QueryContext:
        return QueryContext(
            db=self.db,
            clock=self.clock,
            caller=conn.principal,
            client=conn.client_name or conn.peer,
            journal=self.journal,
        )

    def _do_query(self, conn: _Connection,
                  args: list[str]) -> Iterator[Run]:
        if not args:
            raise MoiraError(MR_ARGS, "query wants a handle name")
        name, query_args = args[0], args[1:]
        pseudo = self._PSEUDO_QUERIES.get(name)
        if pseudo is not None:
            yield MR_MORE_DATA, pseudo(self, query_args)
            yield final(0)
            return
        if name == "_repl_read":
            # the replica router's freshness wrapper — on a live
            # primary the session token is trivially satisfied, so just
            # unwrap.  A *fenced* primary is frozen at fence time and
            # must not serve stale reads as authoritative: answer
            # MR_BUSY (retryable) so the router routes around it.
            if len(query_args) < 2:
                raise MoiraError(MR_ARGS, "_repl_read wants min_seq, query")
            if self.journal.fenced:
                raise MoiraError(
                    MR_BUSY,
                    f"fenced at seq {self.journal.current_seq()}; "
                    "not authoritative")
            yield from self._do_query(conn, query_args[1:])
            return
        if name.startswith("_repl_"):
            from repro.replication.feed import serve_repl_query
            yield from serve_repl_query(self, name, query_args,
                                        principal=conn.principal)
            return
        query = get_query(name)
        if query is None:
            raise MoiraError(MR_NO_HANDLE, name)
        ctx = self._context_for(conn)
        started = time.perf_counter()
        timing = {"lock_wait_s": None}
        count = 0
        failed = True
        try:
            check_argc(query, query_args)
            self._checked_access(ctx, query, tuple(query_args))
            if query.side_effects:
                # durable at the transport's sync, before any reply
                tuples, mutated = run_write(ctx, query, query_args,
                                            fsync=False, timing=timing)
                self.db.gc_if_due()
                self.stats.incr("queries_executed")
                self.access_cache.invalidate(mutated)
                if "members" in mutated:
                    self._poke_closure()
                count = len(tuples)
                if tuples:
                    yield MR_MORE_DATA, tuples
                self.stats.incr("tuples_returned", count)
                failed = False
                yield final(0)
                return
            # timing receives the view's snapshot counters; the
            # lock-wait histogram stays writer-only
            for run in run_read(ctx, query, query_args, timing):
                count += len(run)
                yield MR_MORE_DATA, run
            self.stats.incr("queries_executed")
            self.stats.incr("tuples_returned", count)
            failed = False
            yield final(0)
        except GeneratorExit:
            failed = False  # client abandoned the stream; not a failure
            raise
        finally:
            # streamed retrievals are timed to the last tuple drained —
            # the latency a client actually sees
            self.metrics.record(
                query.name, wall_s=time.perf_counter() - started,
                tuples=count, error=failed,
                lock_wait_s=timing.get("lock_wait_s"),
                rows_scanned=timing.get("rows_scanned", 0),
                rows_returned=timing.get("rows_returned", 0),
                snap_age_s=timing.get("snap_age_s"))

    def _checked_access(self, ctx: QueryContext, query: Query,
                        args: tuple[str, ...]) -> None:
        """check_query_access with the §5.5 access cache in front.

        A miss runs the check on a ``read_view()``: it happens before
        any lock is taken, and with a writer committing concurrently a
        live-table read here could see a half-applied mutation — the
        view is one consistent committed cut.
        """
        self.stats.incr("access_checks")
        # capture the generation before the check runs: if an
        # ACL-relevant mutation invalidates mid-check, store() discards
        # the now-stale decision instead of caching it under the new
        # generation (TOCTOU)
        generation = self.access_cache.generation_now()
        cached = self.access_cache.lookup(ctx.caller, query.name, args)
        if cached is True:
            return
        if cached is False:
            raise MoiraError(MR_PERM, query.name)
        try:
            with self.db.read_view() as view:
                check_query_access(replace(ctx, db=view), query, args)
        except MoiraError as exc:
            if exc.code == MR_PERM:
                self.access_cache.store(ctx.caller, query.name, args,
                                        False, generation=generation)
            raise
        self.access_cache.store(ctx.caller, query.name, args, True,
                                generation=generation)

    def _do_access(self, conn: _Connection, args: list[str]) -> list[Run]:
        """The Access major request: would this query be allowed?"""
        if not args:
            raise MoiraError(MR_ARGS, "access wants a handle name")
        name, query_args = args[0], args[1:]
        query = get_query(name)
        if query is None:
            raise MoiraError(MR_NO_HANDLE, name)
        check_argc(query, query_args)
        ctx = self._context_for(conn)
        self._checked_access(ctx, query, tuple(query_args))
        return [final(0)]

    def _do_trigger_dcm(self, conn: _Connection) -> list[Run]:
        ctx = self._context_for(conn)
        if not ctx.on_capability("trigger_dcm"):
            raise MoiraError(MR_PERM, "trigger_dcm")
        if self.dcm_trigger is None:
            raise MoiraError(MR_INTERNAL, "no DCM attached")
        self.dcm_trigger()
        return [final(0)]

    def _poke_closure(self) -> None:
        """Opportunistically sync the membership-closure index after a
        members mutation, so the replay cost lands here instead of on
        the next access check's critical path.  Best-effort: the
        closure self-heals lazily if this fails."""
        try:
            closure = self.db.membership_closure()
            if closure is not None:
                closure.poke()
        except Exception:
            pass

    def _query_stats(self, args: list[str]) -> list[tuple]:
        """The ``_query_stats`` pseudo-query: per-handle metrics rows,
        optionally filtered to one handle name (first argument)."""
        handle = args[0] if args else None
        rows = list(self.metrics.report_tuples(handle))
        if handle is None:
            # engine-level MVCC counters ride along as two-column rows
            # so one _query_stats round trip paints the whole picture
            mvcc = self.db.mvcc_stats()
            rows.extend(("_mvcc." + key, str(mvcc[key]))
                        for key in sorted(mvcc))
            # cluster topology rides along too: the same role/epoch/
            # endpoint rows _repl_status serves, visible from any node
            rows.extend(self.repl_stat_rows())
        return rows

    def repl_stat_rows(self) -> list[tuple[str, str]]:
        """``_repl.*`` topology rows for `_query_stats`: this node's
        role, cluster epoch, and the feed endpoints it knows about."""
        rows = [("_repl.role", self.role),
                ("_repl.epoch", str(self.journal.epoch))]
        if self.journal.fenced_by:
            rows.append(("_repl.fenced_by", str(self.journal.fenced_by)))
        for name, (address, role) in sorted(self.repl_endpoints.items()):
            rows.append((f"_repl.endpoint.{name}", f"{address} {role}"))
        return rows

    def _dcm_stats(self, args: list[str]) -> list[tuple]:
        """The ``_dcm_stats`` pseudo-query: the DCM's per-target
        retry/breaker rows (service, machine, breaker state, attempts,
        successes, soft, hard, breaker_opens, consecutive_soft), then —
        when the CDC pipeline
        is wired — the extractor's freshness rows (``_cdc`` counters:
        cursor, cursor_lag, debounce_occupancy, pushes_coalesced...
        and per-service ``_cdc.service`` rows carrying
        last_converged_seq; docs/DCM_PIPELINE.md)."""
        rows = []
        if self.dcm_stats is not None:
            rows.extend(map(tuple, self.dcm_stats()))
        if self.cdc_stats is not None:
            rows.extend(map(tuple, self.cdc_stats()))
        return rows

    def _wal_stats(self, args: list[str]) -> list[tuple]:
        """The ``_wal_stats`` pseudo-query: journal durability counters
        (appends, fsyncs, mean batch size, segments, retained entries)
        as ``_wal.*`` rows, then the group-commit windows as
        ``_batch.*`` rows: each fsync a window, and the appends the
        windows covered."""
        stats = self.journal.stats()
        rows = [("_wal." + key, str(stats[key])) for key in sorted(stats)]
        rows += [("_batch.batches", str(stats["fsyncs"])),
                 ("_batch.batched_writes", str(stats["fsynced_appends"]))]
        return rows

    def _list_users(self, args: list[str]) -> list[tuple]:
        rows = []
        with self._lock:
            for conn in self._connections.values():
                host, _, port = conn.peer.partition(":")
                rows.append((conn.principal or "unauthenticated", host,
                             port or "0", str(conn.connect_time),
                             str(conn.conn_id)))
        return rows

    # pseudo-queries answered from the server's own state: name -> rows
    _PSEUDO_QUERIES = {"_list_users": _list_users, "_wal_stats": _wal_stats,
                       "_query_stats": _query_stats, "_dcm_stats": _dcm_stats}
