"""The read-only replica: WAL apply loop + full Moira serving stack.

A :class:`ReplicaServer` owns a schema-fresh database and a complete
:class:`~repro.server.moira_server.MoiraServer` over it (worker pool,
access cache, query metrics — everything a primary has), but never
accepts mutations: ``side_effects=True`` handles answer ``MR_PERM``.
State arrives exclusively from the primary's replication feed:

* **Bootstrap / resync** — ``_repl_snapshot`` streams a consistent cut
  in the mrbackup line format; :meth:`sync_snapshot` wipes and reloads
  every relation (the checkpoint-restore path, including the ``values``
  relation's ID-allocation hints, so subsequent replay allocates the
  same internal IDs as the primary).
* **Steady state** — :meth:`step` tails ``_repl_tail`` past the applied
  watermark and replays each journal entry through the predefined-query
  layer under the *original* principal and timestamp — exactly the
  :func:`repro.db.recovery.replay_wal` discipline — so audit fields
  (``modby``/``modtime``/``modwith``) and allocated IDs come out
  byte-identical to the primary.  Application is idempotent by the seq
  watermark: a re-delivered entry is skipped, a re-started replica
  resumes where it left off.

Freshness is the pair (applied WAL seq, primary's per-table version
vector from the last contact).  The serving side exposes a
``_repl_read <min_seq> <query> <args...>`` wrapper: if the replica has
not yet applied *min_seq* it pulls eagerly up to the staleness budget,
then answers ``MR_BUSY`` — the client router falls through to the
primary, preserving read-your-writes.

Failure handling mirrors the rest of the system: feed errors drop the
connection (rebuilt on the next pull), a checkpoint that truncated past
this replica triggers a full resync, and a primary that *rewound* below
our watermark (machine crash inside a group-commit window losing the
un-fsync'd batch) is detected the same way and also resyncs — the
replica never serves state the primary no longer has.

Failover additions:

* **Feed authentication** — given *feed_credentials* (a credential
  cache kinit'd as the ``repl`` service principal, normally from its
  srvtab via ``KDC.kinit_keytab``), every fresh feed connection sends
  an authenticator before the first pull; a primary with a KDC answers
  ``MR_PERM`` to anyone else.
* **Epoch tracking** — the feed's meta rows carry the cluster epoch;
  the replica records the highest epoch it has seen and *refuses* a
  feed from a lower epoch with ``MR_FENCED`` (the split-brain guard: a
  fenced ex-primary can never feed a replica that followed the
  promotion).
* **Promotion** — :meth:`promote` flips this node to primary: the pump
  stops, a fresh journal claims ``epoch + 1`` and continues the seq
  numbering at ``applied_seq + 1`` (read-your-writes tokens stay
  valid), and the serving wrapper starts accepting writes and serving
  the feed itself.  :meth:`catch_up_from_wal` first salvages committed
  entries straight from the dead primary's durable WAL (the
  shared-storage model), so no fsync'd-acknowledged write is lost.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Iterator, Optional

from repro.db.backup import _split_escaped, unescape_field
from repro.db.journal import Journal
from repro.db.recovery import OutOfCommitOrder, apply_entries
from repro.db.schema import build_database
from repro.errors import (
    MoiraError,
    MR_ARGS,
    MR_BUSY,
    MR_FENCED,
    MR_INTERNAL,
    MR_MORE_DATA,
    MR_PERM,
)
from repro.protocol.transport import ClientConnection
from repro.protocol.wire import (
    MajorRequest,
    encode_reply,
    pack_authenticator,
)
from repro.replication.feed import (
    META_ROW,
    RESYNC_ROW,
    entry_from_tuple,
)
from repro.server.moira_server import (
    MOIRA_SERVICE_PRINCIPAL,
    MoiraServer,
)
from repro.sim.clock import Clock
from repro.sim.faults import FaultInjector

__all__ = ["ReplicaServer", "ReplicaMoiraServer"]

FeedFactory = Callable[[], ClientConnection]


class ReplicaMoiraServer(MoiraServer):
    """The serving half of a replica: a standard Moira server over the
    replica's database, read-only, with the ``_repl_read`` freshness
    gate in front of retrievals.

    Everything downstream of the gate goes through the inherited
    ``_do_query``, so reply frames are byte-identical to the primary's
    for the same database state.
    """

    def __init__(self, replica: "ReplicaServer", *, kdc=None,
                 workers: int = 0, faults=None):
        super().__init__(replica.db, replica.clock, kdc,
                         workers=workers, faults=faults)
        self.replica = replica

    @property
    def role(self) -> str:
        if self.replica.role == "primary":
            return "fenced" if self.journal.fenced else "primary"
        return "replica"

    def repl_stat_rows(self) -> list[tuple[str, str]]:
        if self.replica.role == "primary":
            return super().repl_stat_rows()
        rows = [("_repl.role", "replica"),
                ("_repl.epoch", str(self.replica.epoch)),
                ("_repl.applied_seq", str(self.replica.applied_seq))]
        for name, (address, role) in sorted(self.repl_endpoints.items()):
            rows.append((f"_repl.endpoint.{name}", f"{address} {role}"))
        return rows

    def _do_query(self, conn, args) -> Iterator[bytes]:
        # a promoted replica IS the primary: every gate below falls
        # away and the inherited server serves writes and the feed
        # from its own (new-epoch) journal
        if args and self.replica.role != "primary":
            name = args[0]
            if name == "_repl_status":
                yield encode_reply(MR_MORE_DATA,
                                   self.replica.status_tuple())
                for row in self._endpoint_rows():
                    yield encode_reply(MR_MORE_DATA, row)
                yield encode_reply(0)
                return
            if name == "_repl_read":
                yield from self._repl_read(conn, args[1:])
                return
            from repro.queries.base import get_query
            query = get_query(name)
            if query is not None and query.side_effects:
                raise MoiraError(
                    MR_PERM,
                    f"read-only replica: {name} mutates; "
                    f"send writes to the primary")
        yield from super()._do_query(conn, args)

    def _endpoint_rows(self) -> list[tuple[str, ...]]:
        from repro.replication.feed import ENDPOINT_ROW
        return [(ENDPOINT_ROW, name, address, role)
                for name, (address, role)
                in sorted(self.repl_endpoints.items())]

    def _repl_read(self, conn, args) -> Iterator[bytes]:
        if len(args) < 2:
            raise MoiraError(MR_ARGS,
                             "_repl_read wants min_seq, query, args...")
        try:
            min_seq = int(args[0])
        except ValueError:
            raise MoiraError(MR_ARGS,
                             "_repl_read min_seq must be an integer"
                             ) from None
        if not self.replica.wait_for_seq(min_seq):
            raise MoiraError(
                MR_BUSY,
                f"replica behind: applied "
                f"{self.replica.applied_seq} < required {min_seq}")
        # recurse (not super()) so a wrapped mutation is still rejected
        yield from self._do_query(conn, list(args[1:]))


class ReplicaServer:
    """One read replica: owns a database, applies the WAL feed, serves."""

    def __init__(
        self,
        clock: Clock,
        *,
        feed_factory: FeedFactory,
        kdc=None,
        name: str = "replica",
        workers: int = 0,
        staleness_budget: float = 0.25,
        poll_interval: float = 0.005,
        faults: Optional[FaultInjector] = None,
        feed_credentials=None,
        feed_service: str = MOIRA_SERVICE_PRINCIPAL,
    ):
        self.name = name
        self.clock = clock
        self.kdc = kdc
        self.faults = faults
        # this node's cluster role and the highest epoch seen on the
        # feed; promote() flips the role and claims a fresh epoch
        self.role = "replica"
        self.epoch = 0
        # credential cache authenticating feed pulls (the `repl`
        # service principal, kinit'd from its srvtab); None = the
        # primary runs without a KDC and the feed is open
        self._feed_credentials = feed_credentials
        self._feed_service = feed_service
        self.staleness_budget = staleness_budget
        self.poll_interval = poll_interval
        self.db = build_database()
        self.applied_seq = 0
        # highest MVCC commit seq applied (feed-order oracle); reset on
        # resync — a recovered primary restarts its commit counter
        self._applied_commit_seq = 0
        # the primary's per-table data-version vector at last contact
        self.primary_versions: dict[str, int] = {}
        self.snapshots_loaded = 0
        self.entries_applied = 0
        self.apply_conflicts = 0
        self.resyncs = 0
        self._feed_factory = feed_factory
        self._feed: Optional[ClientConnection] = None
        self._synced = False
        # follows each entry's original timestamp during apply, so
        # audit fields replay byte-identical (the replay_wal discipline)
        self._apply_clock = Clock(0)
        # CDC taps: fn(entry) after every applied entry, fn(None) when
        # a snapshot resync wipes local state (buffered entries between
        # the listener's cursor and the new watermark are gone)
        self._apply_listeners: list[Callable] = []
        self._pull_lock = threading.Lock()   # one puller at a time
        self._seq_cv = threading.Condition()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.server = ReplicaMoiraServer(self, kdc=kdc, workers=workers)

    # -- CDC taps ------------------------------------------------------------

    def add_apply_listener(self, fn: Callable) -> None:
        """Register ``fn(entry)``, called after each entry is applied
        (``fn(None)`` when a snapshot resync invalidates the stream).
        Listeners run on the apply path — keep them cheap (the CDC
        change source only appends to a buffer)."""
        self._apply_listeners.append(fn)

    def remove_apply_listener(self, fn: Callable) -> None:
        if fn in self._apply_listeners:
            self._apply_listeners.remove(fn)

    def _notify_apply(self, entry) -> None:
        for fn in self._apply_listeners:
            try:
                fn(entry)
            except Exception:
                pass    # a broken consumer must not stall replication

    # -- the feed connection -----------------------------------------------

    def _connection(self) -> ClientConnection:
        if self._feed is None:
            conn = self._feed_factory()
            try:
                self._authenticate_feed(conn)
            except BaseException:
                try:
                    conn.close()
                except Exception:
                    pass
                raise
            self._feed = conn
        return self._feed

    def _authenticate_feed(self, conn: ClientConnection) -> None:
        """Authenticate a fresh feed connection as the repl principal."""
        if self._feed_credentials is None or self.kdc is None:
            return
        if self.faults is not None:
            self.faults.fire("repl.feed_auth", replica=self.name,
                             principal=self._feed_credentials.principal)
        ticket = self.kdc.get_service_ticket(self._feed_credentials,
                                             self._feed_service)
        auth = self.kdc.make_authenticator(ticket, self.clock.now())
        replies = conn.call(
            MajorRequest.AUTHENTICATE,
            [f"repl-{self.name}".encode(), pack_authenticator(auth)])
        if replies[-1].code != 0:
            raise MoiraError(replies[-1].code,
                             f"feed authentication for {self.name}")

    def _drop_feed(self) -> None:
        if self._feed is not None:
            try:
                self._feed.close()
            except Exception:
                pass
            self._feed = None

    def _feed_call(self, *args: str) -> list[tuple[str, ...]]:
        """One streaming pseudo-query against the primary.

        Returns the decoded tuples; any error drops the connection so
        the next pull reconnects through the factory.
        """
        conn = self._connection()
        try:
            rows: list[tuple[str, ...]] = []
            for reply in conn.stream(MajorRequest.QUERY, list(args)):
                if reply.code == MR_MORE_DATA:
                    rows.append(reply.str_fields())
                elif reply.code != 0:
                    raise MoiraError(reply.code, f"feed {args[0]}")
            return rows
        except MoiraError:
            self._drop_feed()
            raise

    # -- bootstrap / resync -------------------------------------------------

    def sync_snapshot(self) -> int:
        """Wipe local state and reload from a primary snapshot stream.

        Returns the watermark seq the snapshot covers.
        """
        if self.faults is not None:
            self.faults.fire("repl.snapshot", replica=self.name)
        rows = self._feed_call("_repl_snapshot")
        if not rows or rows[0][0] != META_ROW or len(rows[0]) < 3:
            raise MoiraError(MR_INTERNAL, "malformed snapshot stream")
        watermark = int(rows[0][1])
        versions = json.loads(rows[0][2])
        # epoch guard BEFORE wiping anything: a stale-epoch feed must
        # not cost us our (newer) state
        self._note_epoch(rows[0][3] if len(rows[0]) > 3 else "")
        by_table: dict[str, list[str]] = {}
        for fields in rows[1:]:
            if len(fields) != 2:
                raise MoiraError(MR_INTERNAL, "malformed snapshot row")
            by_table.setdefault(fields[0], []).append(fields[1])
        with self.db.lock:   # exclusive: wipe and reload every relation
            for tname, table in self.db.tables.items():
                table.clear()
                loaded = 0
                for line in by_table.get(tname, ()):
                    fields = _split_escaped(line)
                    table.insert({col: unescape_field(f) for col, f
                                  in zip(table.columns, fields)})
                    loaded += 1
                # replication is not user modification (mrrestore rule)
                table.stats.appends -= loaded
        self.server.access_cache.invalidate(set(self.db.tables))
        self.server._poke_closure()
        self._apply_clock = Clock(0)
        self.primary_versions = versions
        self.snapshots_loaded += 1
        self._synced = True
        # the snapshot watermark is authoritative even when it is LOWER
        # than what we had applied (a rewound primary after losing a
        # group-commit window) — monotonic _advance would strand us
        # asking for a tail the primary can never serve
        with self._seq_cv:
            self.applied_seq = watermark
            self._applied_commit_seq = 0
            self._seq_cv.notify_all()
        self._notify_apply(None)    # stream broken: consumers resync
        return watermark

    # -- the apply loop -----------------------------------------------------

    def step(self, *, max_entries: int = 0) -> int:
        """One pull from the primary: bootstrap if needed, then tail.

        Returns the number of entries applied.  Serialised — concurrent
        callers (the pump thread, an eager ``wait_for_seq``) queue up.
        """
        with self._pull_lock:
            return self._pull(max_entries)

    def _pull(self, max_entries: int) -> int:
        if not self._synced:
            self.sync_snapshot()
        if self.faults is not None:
            self.faults.fire("repl.tail", replica=self.name,
                             seq=self.applied_seq)
        args = ["_repl_tail", str(self.applied_seq)]
        if max_entries:
            args.append(str(max_entries))
        rows = self._feed_call(*args)
        if not rows:
            raise MoiraError(MR_INTERNAL, "empty tail stream")
        meta = rows[0]
        if meta[0] == RESYNC_ROW:
            # a checkpoint truncated past us: full resync
            self.resyncs += 1
            self._synced = False
            self.sync_snapshot()
            return 0
        if meta[0] != META_ROW:
            raise MoiraError(MR_INTERNAL, "malformed tail stream")
        self._note_epoch(meta[2] if len(meta) > 2 else "")
        primary_seq = int(meta[1])
        if primary_seq < self.applied_seq:
            # the primary rewound below our watermark (it crashed and
            # lost a group-commit window): our state may contain
            # mutations it no longer has — rebuild from scratch
            self.resyncs += 1
            self._synced = False
            self.sync_snapshot()
            return 0
        try:
            entries = [entry_from_tuple(f) for f in rows[1:]]
        except ValueError as exc:
            raise MoiraError(MR_INTERNAL, f"mangled tail entry: {exc}"
                             ) from exc
        return self._apply(entries)

    def _fresh(self, entries) -> Iterator:
        """Entries past the watermark (idempotence: a re-delivered
        entry is skipped), each behind the ``repl.apply`` fault point."""
        for entry in entries:
            if entry.seq <= self.applied_seq:
                continue
            if self.faults is not None:
                self.faults.fire("repl.apply", replica=self.name,
                                 seq=entry.seq, query=entry.query)
            yield entry

    def _apply(self, entries) -> int:
        applied = 0
        before = self.db.versions()
        try:
            for entry, conflict in apply_entries(
                    self.db, self._fresh(entries), clock=self._apply_clock,
                    after_commit_seq=self._applied_commit_seq,
                    client="replication"):
                self._applied_commit_seq = (entry.commit_seq
                                            or self._applied_commit_seq)
                if conflict is not None:
                    # the snapshot already absorbed this entry's effect
                    self.apply_conflicts += 1
                # (binding-only movement of values/strings counts too;
                # neither is an ACL table, so it invalidates nothing)
                after = self.db.versions()
                mutated = {t for t, v in after.items()
                           if before.get(t) != v}
                before = after
                if mutated:
                    self.server.access_cache.invalidate(mutated)
                    if "members" in mutated:
                        self.server._poke_closure()
                self.entries_applied += 1
                applied += 1
                self._advance(entry.seq)
                self._notify_apply(entry)
        except OutOfCommitOrder as exc:
            # appends happen inside the primary's commit gate, so this
            # is a mangled feed: a feed error like any other
            raise MoiraError(MR_INTERNAL, f"feed {exc}") from exc
        return applied

    def _advance(self, seq: int) -> None:
        with self._seq_cv:
            if seq > self.applied_seq:
                self.applied_seq = seq
            self._seq_cv.notify_all()

    def _note_epoch(self, epoch_field: str) -> None:
        """Track the highest cluster epoch seen; refuse a stale feed.

        The split-brain guard: once this replica has followed epoch N,
        a fenced ex-primary still announcing epoch < N can never feed
        it again — the pull fails with ``MR_FENCED`` instead of
        applying (or worse, resyncing from) superseded state.
        """
        if not epoch_field:
            return
        seen = int(epoch_field)
        if seen < self.epoch:
            self._drop_feed()
            raise MoiraError(
                MR_FENCED,
                f"feed announces stale epoch {seen}; "
                f"{self.name} has seen {self.epoch}")
        if seen > self.epoch:
            # New epoch = new primary = fresh MVCC commit counter.  The
            # commit-order oracle only holds within one primary's
            # lifetime; seq idempotence still guards re-delivery.
            self._applied_commit_seq = 0
        self.epoch = seen

    # -- failover ------------------------------------------------------------

    def retarget(self, feed_factory: FeedFactory, *,
                 credentials=None) -> None:
        """Point the feed at a different primary (post-promotion).

        The next pull reconnects through the new factory; a replica
        *ahead* of the new primary is caught by the ordinary rewind
        check and resyncs from its snapshot.
        """
        with self._pull_lock:
            self._feed_factory = feed_factory
            if credentials is not None:
                self._feed_credentials = credentials
            self._drop_feed()

    def catch_up_from_wal(self, path) -> int:
        """Salvage committed entries from a dead primary's durable WAL.

        The shared-storage half of promotion: every entry the old
        primary fsync'd (group commits it acknowledged) is readable
        from its WAL file even though the process is gone.  Applies
        everything past our watermark; a torn final record (death
        mid-append) is scrubbed by ``Journal.load`` exactly as in
        recovery.  Returns the number of entries applied.
        """
        salvaged = Journal.load(path)
        entries = salvaged.after_seq(self.applied_seq)
        if entries and entries[0].seq > self.applied_seq + 1:
            raise MoiraError(
                MR_INTERNAL,
                f"WAL gap: salvage starts at {entries[0].seq}, "
                f"replica applied {self.applied_seq}")
        with self._pull_lock:
            return self._apply(entries)

    def promote(self, *, epoch: Optional[int] = None,
                journal: Optional[Journal] = None) -> int:
        """Become the primary.  Returns the epoch this node now owns.

        The pump stops, the feed drops, and the serving wrapper —
        which until now rejected mutations and proxied `_repl_status`
        — flips to the full inherited server over a *journal* claiming
        *epoch* (default: one past the highest epoch seen) with seq
        numbering continued at ``applied_seq + 1``.  Callers fence the
        old primary's journal with the same epoch; in-flight writes
        there fail retryably and the client router re-routes here.
        """
        if self.role == "primary":
            return self.server.journal.epoch
        self.stop_pump()
        new_epoch = epoch if epoch is not None else max(self.epoch, 1) + 1
        new_journal = journal if journal is not None else Journal()
        with self._pull_lock:
            if self.faults is not None:
                self.faults.fire("failover.promote", replica=self.name,
                                 epoch=new_epoch, seq=self.applied_seq)
            new_journal.advance_to(self.applied_seq)
            if new_epoch > new_journal.epoch:
                new_journal.set_epoch(new_epoch)
            self.server.journal = new_journal
            self.epoch = new_journal.epoch
            self.role = "primary"
        return self.epoch

    # -- freshness ----------------------------------------------------------

    def wait_for_seq(self, min_seq: int,
                     budget: Optional[float] = None) -> bool:
        """Read-your-writes gate: True once *min_seq* is applied.

        Pulls eagerly instead of waiting out the poll interval; gives
        up (False) when the staleness budget runs out — the caller
        answers ``MR_BUSY`` and the router falls through to the primary.
        """
        if min_seq <= self.applied_seq:
            return True
        budget = self.staleness_budget if budget is None else budget
        deadline = time.monotonic() + budget
        while self.applied_seq < min_seq:
            try:
                self.step()
            except (MoiraError, OSError):
                pass    # primary unreachable: keep waiting out the budget
            if self.applied_seq >= min_seq:
                return True
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            with self._seq_cv:
                if self.applied_seq >= min_seq:
                    return True
                self._seq_cv.wait(min(remaining, 0.005))
        return True

    def status_tuple(self) -> tuple[str, str, str, str]:
        return (self.role, str(self.applied_seq),
                json.dumps(self.primary_versions, sort_keys=True,
                           separators=(",", ":")),
                str(self.epoch))

    # -- the pump thread ----------------------------------------------------

    def start(self, interval: Optional[float] = None) -> "ReplicaServer":
        """Run the apply loop on a background thread (real-time pacing)."""
        if self._thread is not None:
            return self
        if interval is not None:
            self.poll_interval = interval
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=f"repl-{self.name}")
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                self.step()
            except (MoiraError, OSError):
                pass    # connection already dropped; retried next tick

    def stop_pump(self) -> None:
        """Stop the pump thread and drop the feed; keep serving."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._drop_feed()

    def stop(self) -> None:
        """Stop the pump and the serving worker pool (idempotent)."""
        self.stop_pump()
        self.server.shutdown()
