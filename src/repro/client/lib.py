"""mr_* application library calls (paper §5.6.2) and the direct glue library.

Two client classes:

* :class:`MoiraClient` — goes through the protocol (in-process or TCP),
  authenticating with Kerberos.  Its ``mr_*`` methods return integer
  error codes like the C library ("By convention, zero indicates
  success"); the ``query``/``access``/``auth`` convenience methods
  raise :class:`MoiraError` instead and return parsed tuples.

* :class:`DirectClient` — "a version of the library which does direct
  calls ... rather than going through the server.  Use of this library
  should result in significantly higher throughput ... it does not use
  Kerberos authentication."  The DCM and backup programs use it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.db.engine import Database
from repro.db.journal import Journal
from repro.errors import (
    MoiraError,
    MR_ABORTED,
    MR_ALREADY_CONNECTED,
    MR_BUSY,
    MR_FENCED,
    MR_MORE_DATA,
    MR_NOT_CONNECTED,
)
from repro.kerberos.kdc import KDC, CredentialCache
from repro.protocol.transport import (
    ClientConnection,
    connect_inproc,
    connect_tcp,
)
from repro.protocol.wire import MajorRequest, pack_authenticator
from repro.queries.base import QueryContext, execute_query
from repro.sim.clock import Clock

__all__ = ["MoiraClient", "DirectClient", "ReplicaSet"]

QueryCallback = Callable[[int, tuple[str, ...], object], None]


class MoiraClient:
    """A client of the Moira server, speaking the Moira protocol."""

    def __init__(
        self,
        *,
        dispatcher=None,
        tcp_address: Optional[tuple[str, int]] = None,
        kdc: Optional[KDC] = None,
        credentials: Optional[CredentialCache] = None,
        clock: Optional[Clock] = None,
        service_principal: str = "moira",
        busy_retries: int = 3,
        busy_backoff: float = 0.01,
    ):
        if (dispatcher is None) == (tcp_address is None):
            raise ValueError("give exactly one of dispatcher/tcp_address")
        self._dispatcher = dispatcher
        self._tcp_address = tcp_address
        self.kdc = kdc
        self.credentials = credentials
        self.clock = clock
        self.service_principal = service_principal
        # MR_BUSY (a replica behind the session token, a fenced
        # primary) is retryable; only queries known to be idempotent
        # are retried automatically
        self.busy_retries = busy_retries
        self.busy_backoff = busy_backoff
        self.busy_retried = 0    # lifetime counter, for tests/stats
        self._conn: Optional[ClientConnection] = None

    # -- C-style API: integer return codes ------------------------------------

    def mr_connect(self) -> int:
        """Connect to the Moira server.  Does not authenticate (§5.6.2:
        "for simple read-only queries ... the overhead of authentication
        can be comparable to that of the query")."""
        if self._conn is not None:
            return MR_ALREADY_CONNECTED
        try:
            if self._dispatcher is not None:
                self._conn = connect_inproc(self._dispatcher)
            else:
                host, port = self._tcp_address
                self._conn = connect_tcp(host, port)
        except MoiraError as exc:
            return exc.code
        return 0

    def mr_disconnect(self) -> int:
        """Drop the connection; MR_NOT_CONNECTED if none."""
        if self._conn is None:
            return MR_NOT_CONNECTED
        self._conn.close()
        self._conn = None
        return 0

    def mr_noop(self) -> int:
        """Handshake with Moira, for testing and performance measurement."""
        if self._conn is None:
            return MR_NOT_CONNECTED
        try:
            replies = self._conn.call(MajorRequest.NOOP, [])
        except MoiraError:
            self._abort()
            return MR_ABORTED
        return replies[-1].code

    def mr_auth(self, clientname: str) -> int:
        """Authenticate the user to the system.

        *clientname* is "the name of the program acting on behalf of the
        user"; it becomes modwith in audit fields.
        """
        if self._conn is None:
            return MR_NOT_CONNECTED
        if self.kdc is None or self.credentials is None:
            return MR_ABORTED
        try:
            ticket = self.credentials.tickets.get(self.service_principal)
            if ticket is None:
                ticket = self.kdc.get_service_ticket(
                    self.credentials, self.service_principal)
            now = (self.clock or self.kdc.clock).now()
            auth = self.kdc.make_authenticator(ticket, now)
            replies = self._conn.call(
                MajorRequest.AUTHENTICATE,
                [clientname.encode(), pack_authenticator(auth)])
        except MoiraError as exc:
            return exc.code
        return replies[-1].code

    def mr_access(self, name: str, args: Sequence[str]) -> int:
        """Check access to a query without running it."""
        if self._conn is None:
            return MR_NOT_CONNECTED
        try:
            replies = self._conn.call(
                MajorRequest.ACCESS, [name, *map(str, args)])
        except MoiraError as exc:
            return exc.code
        return replies[-1].code

    def mr_query(self, name: str, args: Sequence[str],
                 callproc: Optional[QueryCallback] = None,
                 callarg: object = None) -> int:
        """Run a query; *callproc* receives each returned tuple.

        The callback signature matches the paper: (number of elements,
        the tuple data, callarg).

        A final ``MR_BUSY`` (a replica behind the caller's session
        token, a fenced primary's ``_repl_read``) is retried with
        exponential backoff — but only for **idempotent** queries
        (retrievals and the ``_``-pseudo-queries); a busy mutation is
        reported to the caller, who knows whether re-running is safe.
        """
        if self._conn is None:
            return MR_NOT_CONNECTED
        attempts = 1 + (self.busy_retries
                        if self._idempotent(name) else 0)
        final = 0
        for attempt in range(attempts):
            if attempt:
                self.busy_retried += 1
                time.sleep(self.busy_backoff * (2 ** (attempt - 1)))
            try:
                final = 0
                for code, rows in self._conn.stream(
                        MajorRequest.QUERY, [name, *map(str, args)]):
                    if code != MR_MORE_DATA:
                        final = code
                    elif callproc is not None:
                        for fields in rows:
                            callproc(len(fields), fields, callarg)
            except MoiraError as exc:
                self._abort()
                return exc.code
            if final != MR_BUSY:
                return final
        return final

    @staticmethod
    def _idempotent(name: str) -> bool:
        """Safe to re-issue: pseudo-queries and side-effect-free
        retrievals.  Unknown handles are not retried (the server will
        answer MR_NO_HANDLE on the first attempt anyway)."""
        if name.startswith("_"):
            return True
        from repro.queries.base import get_query
        query = get_query(name)
        return query is not None and not query.side_effects

    def mr_trigger_dcm(self) -> int:
        """Request an immediate DCM run (the Trigger_DCM major request)."""
        if self._conn is None:
            return MR_NOT_CONNECTED
        try:
            replies = self._conn.call(MajorRequest.TRIGGER_DCM, [])
        except MoiraError as exc:
            return exc.code
        return replies[-1].code

    def _abort(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # -- pythonic API: exceptions and return values ------------------------------

    def connect(self) -> "MoiraClient":
        """mr_connect, raising MoiraError on failure."""
        code = self.mr_connect()
        if code:
            raise MoiraError(code, "mr_connect")
        return self

    def auth(self, clientname: str = "python") -> "MoiraClient":
        """mr_auth, raising MoiraError on failure."""
        code = self.mr_auth(clientname)
        if code:
            raise MoiraError(code, "mr_auth")
        return self

    def query(self, name: str, *args: str) -> list[tuple[str, ...]]:
        """Run a query, returning tuples; raises MoiraError."""
        rows: list[tuple[str, ...]] = []
        code = self.mr_query(
            name, [str(a) for a in args],
            lambda argc, argv, arg: rows.append(argv))
        if code:
            raise MoiraError(code, name)
        return rows

    def query_maybe(self, name: str, *args: str) -> list[tuple[str, ...]]:
        """Like :meth:`query`, but an empty retrieval (MR_NO_MATCH)
        returns [] instead of raising — for listings that may be empty."""
        from repro.errors import MR_NO_MATCH
        try:
            return self.query(name, *args)
        except MoiraError as exc:
            if exc.code == MR_NO_MATCH:
                return []
            raise

    def access(self, name: str, *args: str) -> bool:
        """True if the caller may run the query with these args."""
        return self.mr_access(name, [str(a) for a in args]) == 0

    def noop(self) -> None:
        """mr_noop, raising MoiraError on failure."""
        code = self.mr_noop()
        if code:
            raise MoiraError(code, "mr_noop")

    def close(self) -> None:
        """Disconnect (idempotent)."""
        self.mr_disconnect()

    def __enter__(self) -> "MoiraClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class _ReplicaSlot:
    """Router-side health state for one replica connection."""
    client: MoiraClient
    consecutive_failures: int = 0
    next_attempt_at: float = 0.0    # monotonic; 0 = healthy


# final codes that mean "this replica can't answer right now", not
# "this is the answer": route around and (on repeat offense) eject
_ROUTE_AROUND = frozenset({MR_BUSY, MR_ABORTED, MR_NOT_CONNECTED})

# primary-side codes that trigger a failover probe sweep: the write
# target is fenced (a newer primary owns the epoch) or gone
_FAILOVER = frozenset({MR_FENCED, MR_ABORTED, MR_NOT_CONNECTED})


class ReplicaSet:
    """Client-side replica router: reads load-balance across read-only
    replicas, writes go to the primary, and a session token gives
    read-your-writes.

    * ``side_effects=False`` registered queries round-robin across the
      healthy replicas as ``_repl_read <min_seq> <query> <args...>``;
      everything else — mutations, pseudo-queries, unknown handles —
      goes to the primary.
    * After every successful write the session token ``min_seq`` is
      refreshed from the primary's ``_repl_status`` WAL watermark.  A
      replica that has not applied that seq pulls eagerly up to its
      staleness budget, then answers ``MR_BUSY`` — the router ejects it
      for this read and falls through to the next replica or, when all
      are behind/dead, to the primary (which is always fresh).  Reads
      therefore never travel back in time past the session's writes.
    * A dead or lagging replica is ejected and re-probed with the same
      backoff shape as :class:`repro.dcm.retry.RetryPolicy`: per-slot
      exponential backoff with seeded jitter until the breaker
      threshold, then one probe per cooldown window.
    * **Write failover**: when the primary answers ``MR_FENCED`` (a
      newer primary owns the cluster epoch) or its connection dies, the
      router sweeps ``_repl_status`` across every endpoint and
      re-points writes at whichever answers ``role=primary`` with the
      highest epoch.  A *fenced* write is auto-retried there — the old
      primary provably refused it before running any handler.  A write
      that died mid-connection is **not** auto-retried (it may have
      committed before the ack was lost); the router re-points and
      re-raises, and the caller verifies-then-retries.  ``min_seq``
      tokens survive the switch because promotion continues the WAL
      sequence numbering.

    Single-session object, like :class:`MoiraClient`; not thread-safe.
    """

    def __init__(self, primary: MoiraClient,
                 replicas: Sequence[MoiraClient] = (),
                 *, retry_policy=None, seed: int = 0,
                 time_source: Callable[[], float] = time.monotonic):
        from repro.dcm.retry import RetryPolicy
        self.primary = primary
        self.policy = retry_policy if retry_policy is not None else \
            RetryPolicy(backoff_base=0.05, backoff_factor=2.0,
                        backoff_cap=5.0, jitter_frac=0.25,
                        breaker_threshold=3, breaker_cooldown=1.0)
        self._rng = random.Random(seed)
        self._time = time_source
        self._slots = [_ReplicaSlot(c) for c in replicas]
        self._rr = 0
        self.min_seq = 0    # session freshness token (read-your-writes)
        self.reads_replica = 0
        self.reads_primary = 0
        self.writes = 0
        self.fallthroughs = 0   # reads answered by the primary while
        #                         replicas were configured
        self.ejections = 0
        self.probes = 0
        self.failovers = 0      # times writes were re-pointed

    # -- routing -------------------------------------------------------------

    def query(self, name: str, *args: str) -> list[tuple[str, ...]]:
        """Run a query on the right tier; raises MoiraError."""
        from repro.queries.base import get_query
        query = get_query(name)
        if query is not None and not query.side_effects \
                and not name.startswith("_"):
            return self._read(name, [str(a) for a in args])
        # mutations, pseudo-queries, unknown handles: the primary owns
        # them (unknown names get its authoritative MR_NO_HANDLE)
        mutation = query is not None and query.side_effects
        try:
            rows = self.primary.query(name, *args)
        except MoiraError as exc:
            if exc.code not in _FAILOVER or not self._failover():
                raise
            if mutation and exc.code != MR_FENCED:
                # connection died mid-write: it may have committed.
                # Writes are re-pointed, but re-running is the caller's
                # call (verify, then retry) — at-least-once hazard.
                raise
            rows = self.primary.query(name, *args)
        if mutation:
            self.writes += 1
            self._refresh_token()
        return rows

    def query_maybe(self, name: str, *args: str) -> list[tuple[str, ...]]:
        """Like :meth:`query`, but MR_NO_MATCH yields []."""
        from repro.errors import MR_NO_MATCH
        try:
            return self.query(name, *args)
        except MoiraError as exc:
            if exc.code == MR_NO_MATCH:
                return []
            raise

    def _refresh_token(self) -> None:
        """Advance the session token past the write just performed."""
        try:
            status = self.primary.query("_repl_status")
        except MoiraError:
            return    # journal-less primary: no freshness tracking
        if status and len(status[0]) >= 2:
            try:
                seq = int(status[0][1])
            except ValueError:
                return
            if seq > self.min_seq:
                self.min_seq = seq

    # -- write failover ------------------------------------------------------

    def _failover(self) -> bool:
        """Probe every endpoint; re-point writes at the live primary.

        Returns True when a writable primary was found (possibly the
        original one, recovered after a reconnect).  The old primary's
        client is kept as an ordinary replica slot — once healed back
        into the cluster it serves reads again.
        """
        candidates = [(None, self.primary)] + \
            [(slot, slot.client) for slot in self._slots]
        best_slot, best, best_epoch = None, None, -1
        for slot, client in candidates:
            probed = self._probe(client)
            if probed is None:
                continue
            role, epoch = probed
            if role == "primary" and epoch > best_epoch:
                best_slot, best, best_epoch = slot, client, epoch
        if best is None:
            return False
        if best is not self.primary:
            demoted = self.primary
            self.primary = best
            best_slot.client = demoted
            best_slot.consecutive_failures = 0
            best_slot.next_attempt_at = 0.0
            self.failovers += 1
        return True

    @staticmethod
    def _probe(client: MoiraClient) -> Optional[tuple[str, int]]:
        """One endpoint's (role, epoch) via ``_repl_status``; None if
        unreachable, journal-less, or answering garbage."""
        if client._conn is None:
            code = client.mr_connect()
            if code not in (0, MR_ALREADY_CONNECTED):
                return None
        try:
            status = client.query("_repl_status")
        except MoiraError:
            return None
        if not status or not status[0]:
            return None
        row = status[0]
        try:
            epoch = int(row[3]) if len(row) > 3 else 0
        except ValueError:
            epoch = 0
        return row[0], epoch

    def _read(self, name: str, args: list[str]) -> list[tuple[str, ...]]:
        now = self._time()
        n = len(self._slots)
        for k in range(n):
            slot = self._slots[(self._rr + k) % n]
            if now < slot.next_attempt_at:
                continue    # ejected, still backing off
            if slot.consecutive_failures:
                self.probes += 1    # half-open probe of an ejected slot
            try:
                rows = self._replica_query(slot, name, args)
            except MoiraError as exc:
                if exc.code in _ROUTE_AROUND:
                    self._eject(slot, now)
                    continue
                # a genuine answer (MR_NO_MATCH, MR_PERM, ...) — the
                # freshness gate already ran, so it is as authoritative
                # as the primary's
                self._rr = (self._rr + k + 1) % n
                raise
            slot.consecutive_failures = 0
            slot.next_attempt_at = 0.0
            self._rr = (self._rr + k + 1) % n
            self.reads_replica += 1
            return rows
        # every replica ejected or behind: the primary has the truth
        self.reads_primary += 1
        if n:
            self.fallthroughs += 1
        return self.primary.query(name, *args)

    def _replica_query(self, slot: _ReplicaSlot, name: str,
                       args: list[str]) -> list[tuple[str, ...]]:
        client = slot.client
        if client._conn is None:    # dropped on a previous failure
            code = client.mr_connect()
            if code not in (0, MR_ALREADY_CONNECTED):
                raise MoiraError(MR_ABORTED, "replica reconnect failed")
        return client.query("_repl_read", str(self.min_seq), name, *args)

    def _eject(self, slot: _ReplicaSlot, now: float) -> None:
        slot.consecutive_failures += 1
        self.ejections += 1
        if slot.consecutive_failures >= self.policy.breaker_threshold:
            # breaker open: skip outright, one probe per cooldown window
            slot.next_attempt_at = now + self.policy.breaker_cooldown
        else:
            slot.next_attempt_at = now + self.policy.backoff(
                slot.consecutive_failures, self._rng)

    # -- bookkeeping ---------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero the routing counters (benchmark warmup hygiene)."""
        self.reads_replica = self.reads_primary = self.writes = 0
        self.fallthroughs = self.ejections = self.probes = 0
        self.failovers = 0

    def stats(self) -> dict:
        """Routing counters, for tests and benchmark reports."""
        return {"reads_replica": self.reads_replica,
                "reads_primary": self.reads_primary,
                "writes": self.writes,
                "fallthroughs": self.fallthroughs,
                "ejections": self.ejections,
                "probes": self.probes,
                "failovers": self.failovers,
                "min_seq": self.min_seq}

    def close(self) -> None:
        self.primary.close()
        for slot in self._slots:
            slot.client.close()

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DirectClient:
    """The direct "glue" library: same interface, no server, no Kerberos.

    Used where the paper uses it — the DCM and backup utilities running
    on the Moira host itself.  The caller identity defaults to root.
    """

    def __init__(self, db: Database, clock: Clock, *,
                 journal: Optional[Journal] = None, caller: str = "root",
                 client: str = "dcm"):
        self._ctx = QueryContext(db=db, clock=clock, caller=caller,
                                 client=client, journal=journal,
                                 privileged=True)

    def mr_query(self, name: str, args: Sequence[str],
                 callproc: Optional[QueryCallback] = None,
                 callarg: object = None) -> int:
        """Run a query via the direct context; returns an error code."""
        try:
            rows = execute_query(self._ctx, name, [str(a) for a in args])
        except MoiraError as exc:
            return exc.code
        if callproc is not None:
            for row in rows:
                callproc(len(row), row, callarg)
        return 0

    def query(self, name: str, *args: str,
              fsync: bool = True) -> list[tuple[str, ...]]:
        """Run a query, returning tuples; raises MoiraError.
        ``fsync=False`` journals a write without the fsync: the caller
        owns the ``journal.sync()`` that makes it durable."""
        return execute_query(self._ctx, name, [str(a) for a in args],
                             fsync=fsync)

    def query_maybe(self, name: str, *args: str) -> list[tuple[str, ...]]:
        """Like query(), but MR_NO_MATCH yields []."""
        from repro.errors import MR_NO_MATCH
        try:
            return self.query(name, *args)
        except MoiraError as exc:
            if exc.code == MR_NO_MATCH:
                return []
            raise

    def access(self, name: str, *args: str) -> bool:
        """True if the caller may run the query with these args."""
        return True  # direct library bypasses the server's access layer

    def noop(self) -> None:
        """mr_noop, raising MoiraError on failure."""
        return None
