"""The Moira server journal — a crash-safe write-ahead log (paper §5.2.2).

"The journal file kept by the Moira server daemon contains a listing of
all successful changes to the database."  Combined with the nightly
ASCII backups this bounds data loss to the journal-replay window.

Entries record a monotonic sequence number, the timestamp, authenticated
principal, query name, and arguments of every successful side-effecting
query.  The journal can be kept purely in memory (tests) or mirrored to
an **fsync'd on-disk WAL**: ``record`` is called inside the database's
exclusive-lock section, and when a path is configured the entry is
flushed and fsync'd before ``record`` returns — a Moira-server crash at
any instant loses at most the mutation whose record had not yet reached
the disk.  :mod:`repro.db.recovery` replays the WAL on top of the most
recent :mod:`repro.db.backup` snapshot; ``checkpoint``/``truncate``
bound the file's growth.

Crash tolerance on the read side: :meth:`JournalEntry.from_line` rejects
malformed input with ``ValueError`` instead of arbitrary exceptions, and
:meth:`Journal.load` stops cleanly at a torn final record (the expected
artifact of dying mid-append).

Group commit is :meth:`sync`, the one durability point:
``record(fsync=False)`` appends without forcing the disk and one
``sync()`` makes every append so far durable.  A caller whose appends a
concurrent ``sync()`` already fsync'd returns without an fsync of its
own; the fsync itself runs outside the append lock, so writers keep
appending while it runs.  The server releases no reply before the sync
that covers it (docs/WRITE_PATH.md).  :meth:`truncate` and
:meth:`close` flush deferred appends too.

A :class:`Journal` built with a *path* that already holds a log adopts
it, as :meth:`load` does, and numbers its next append after the
highest seq on disk.

**Segments** — the WAL is stored as ``wal.<first_seq>`` segment
files.  :meth:`truncate` at a checkpoint *unlinks* whole covered
segments (rewriting at most the one segment straddling the
watermark) instead of rewriting the entire remaining log, and a
restarted primary serving ``_repl_tail`` reads never rescan
checkpoint-covered history.  A monolithic ``wal`` file (the seed
layout) is still read by :meth:`load`, before the segments; the first
truncate or compaction folds it into a segment.

Failover fencing (the cluster *epoch*): every journal carries a
monotonic ``epoch`` — WAL ownership.  A promoted replica's journal
starts at ``old epoch + 1`` (stamped durably as a ``{"_hdr":"epoch"}``
header line, restored by :meth:`load`), and :meth:`fence` marks the
old primary's journal as superseded: subsequent :meth:`sync` calls
(the group-commit durability point) and fsync'ing :meth:`record` calls
raise ``MR_FENCED`` — a *retryable* refusal, so the replies a sync
held fail cleanly and the client router re-routes to the new primary.
Epoch 1 writes no header, keeping WAL lines seed-identical.
"""

from __future__ import annotations

import json
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Union

from repro.errors import MR_FENCED, MoiraError
from repro.sim.faults import FaultInjector, TornWrite

__all__ = ["Journal", "JournalEntry"]

# Durable epoch header: one JSON line {"_hdr": "epoch", "epoch": N}.
# Parsed (max wins) and skipped by load(); never a JournalEntry.
_HDR_PREFIX = '{"_hdr"'


@dataclass(frozen=True)
class JournalEntry:
    """One successful side-effecting query."""
    when: int
    who: str
    query: str
    args: tuple[str, ...]
    seq: int = 0    # monotonic WAL sequence number (0 = legacy record)
    client: str = ""  # program name -> modwith; "" = legacy record
    # MVCC commit seq (0 = legacy / non-transactional backend).
    # Appends happen inside the commit gate, so these stamp strictly
    # increasing — the replay-order oracle.
    commit_seq: int = 0
    # ids allocated / strings interned by the transaction ({"id": {hint:
    # [v, ...]}, "intern": {text: string_id}}); replay uses them to
    # reproduce the system-table trajectory even past aborted writers
    # (query "_aborted"), whose entries carry bindings and nothing else.
    bindings: Optional[dict] = None

    def to_line(self) -> str:
        """Serialise to one JSON line."""
        data = {"seq": self.seq, "when": self.when, "who": self.who,
                "client": self.client, "query": self.query,
                "args": list(self.args)}
        if self.commit_seq:
            data["commit_seq"] = self.commit_seq
        if self.bindings:
            data["bindings"] = self.bindings
        return json.dumps(data, separators=(",", ":"))

    @classmethod
    def from_line(cls, line: str) -> "JournalEntry":
        """Parse a line written by to_line().

        Raises ``ValueError`` on anything malformed or truncated — a
        torn final record after a crash, a partial flush, stray bytes —
        so WAL replay can stop cleanly instead of exploding on a
        ``KeyError`` / ``TypeError`` deep inside recovery.
        """
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed journal line: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("malformed journal line: not an object")
        try:
            args = data["args"]
            if not isinstance(args, list):
                raise ValueError("malformed journal line: args not a list")
            bindings = data.get("bindings")
            if bindings is not None and not isinstance(bindings, dict):
                raise ValueError(
                    "malformed journal line: bindings not an object")
            return cls(
                when=int(data["when"]),
                who=str(data["who"]),
                query=str(data["query"]),
                args=tuple(str(a) for a in args),
                seq=int(data.get("seq", 0)),
                client=str(data.get("client", "")),
                commit_seq=int(data.get("commit_seq", 0)),
                bindings=bindings,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed journal line: {exc!r}") from exc


@dataclass
class Journal:
    """Ordered record of successful changes (optionally a durable WAL)."""
    path: Optional[Union[str, Path]] = None
    entries: list[JournalEntry] = field(default_factory=list)
    faults: Optional[FaultInjector] = None
    # Cluster epoch — WAL ownership.  Bumped (never lowered) at
    # promotion; epoch 1 is the seed and writes no header line.
    epoch: int = 1
    # True when load() hit a torn/malformed tail and truncated there
    torn_tail: bool = field(default=False, compare=False)
    # writer threads journal concurrently; the mutex keeps the
    # in-memory order and the mirrored file lines consistent.
    # Reentrant so a fault callback firing inside record()/sync() may
    # itself fence or inspect the journal (the chaos harness does).
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False, compare=False)
    # held across an fsync (taken before _lock, never after it), so a
    # sync's fsync runs while writers append; close, truncate and
    # compact take it too, so no fsync sees its handle closed
    _sync_mutex: threading.RLock = field(default_factory=threading.RLock,
                                         repr=False, compare=False)
    _fh: object = field(default=None, repr=False, compare=False)
    _next_seq: int = field(default=1, repr=False, compare=False)
    # entries arrive in mutation order; `when` is normally nondecreasing
    # (virtual clock), letting since() bisect — tracked, not assumed
    _when_monotonic: bool = field(default=True, repr=False, compare=False)
    # appends written with fsync=False and not yet covered by a sync
    _unsynced: int = field(default=0, repr=False, compare=False)
    # every seq at or below this one is covered by a sync (or was
    # fsync'd by its own record)
    _synced_seq: int = field(default=0, repr=False, compare=False)
    # epoch that fenced this journal (0 = unfenced; > epoch = refuse
    # appends and syncs with MR_FENCED)
    _fenced_epoch: int = field(default=0, repr=False, compare=False)
    # epoch last stamped as a header on the open handle (0 = none)
    _header_epoch: int = field(default=0, repr=False, compare=False)
    # first seq of the active segment (0 = start one at the next append)
    _segment_first: int = field(default=0, repr=False, compare=False)
    # highest seq ever dropped by compact() — a mid-log hole boundary.
    # A replica tailing from below the floor would silently skip
    # dropped records, so tail() refuses and forces a snapshot resync.
    # Derived again at load() from mid-log seq gaps (journal seqs are
    # otherwise contiguous: every record() assigns one).
    _compact_floor: int = field(default=0, repr=False, compare=False)
    # named CDC consumer cursors (consumer name -> durably-processed
    # seq).  compact() treats them as pins — same discipline as replica
    # applied_seq watermarks — so a CDC extractor's next tail() finds a
    # contiguous suffix unless compaction was forced past it.
    _cursors: dict = field(default_factory=dict, repr=False,
                           compare=False)
    # notify-only commit hooks: called as fn(entry) at the end of
    # record(), while the journal mutex is held.  Listeners must be
    # cheap (set a flag, bump a counter) — never pump work inline.
    _commit_listeners: list = field(default_factory=list, repr=False,
                                    compare=False)
    # observability (the `_wal_stats` pseudo-query)
    _stat_appends: int = field(default=0, repr=False, compare=False)
    _stat_fsyncs: int = field(default=0, repr=False, compare=False)
    # appends those fsyncs covered (the `_batch` window rows)
    _stat_fsynced: int = field(default=0, repr=False, compare=False)
    _stat_batch_flushes: int = field(default=0, repr=False,
                                     compare=False)
    _stat_compactions: int = field(default=0, repr=False, compare=False)
    _stat_compacted_away: int = field(default=0, repr=False,
                                      compare=False)

    def __post_init__(self) -> None:
        if self.path is not None:
            self._read(strict=False)

    def record(self, when: int, who: str, query: str,
               args: tuple[str, ...], client: str = "", *,
               commit_seq: int = 0, bindings: Optional[dict] = None,
               fsync: bool = True) -> JournalEntry:
        """Append an entry; when a path is set, fsync it to the WAL.

        ``fsync=False`` defers durability entirely: the line reaches
        the kernel but the caller (the server before it releases a
        reply, the DCM's cron cycle or extraction round) owns the
        :meth:`sync` — one fsync covers every append before it.

        Fault points: ``journal.record`` fires before anything is
        appended (a crash here loses the record entirely),
        ``journal.write`` fires as the line is written (a
        :class:`~repro.sim.faults.TornWrite` leaves a partial record on
        disk), and ``journal.appended`` fires after the fsync (a crash
        here is the "after append #N" boundary — the record is durable).

        A fenced journal (a newer epoch owns the cluster) refuses the
        append with ``MR_FENCED`` — checked only on the fsync'ing path;
        ``fsync=False`` calls run inside the engine's commit gate, so
        ``run_write`` refuses them before their handler runs
        (:meth:`refuse_if_fenced`) and the group-commit :meth:`sync`
        refuses whatever a fence raced past that check.
        """
        with self._lock:
            if fsync:
                self.refuse_if_fenced()
            if self.faults is not None:
                self.faults.fire("journal.record", query=query, who=who,
                                 seq=self._next_seq)
            entry = JournalEntry(when=when, who=who, query=query,
                                 args=tuple(str(a) for a in args),
                                 seq=self._next_seq, client=client,
                                 commit_seq=commit_seq,
                                 bindings=bindings)
            self._next_seq += 1
            self._stat_appends += 1
            if self.entries and when < self.entries[-1].when:
                self._when_monotonic = False
            self.entries.append(entry)
            if self.path is not None:
                self._append_durable(entry, fsync=fsync)
            if fsync:
                self._unsynced = 0
                self._synced_seq = entry.seq
            else:
                self._unsynced += 1
            if self.faults is not None:
                self.faults.fire("journal.appended", query=query,
                                 who=who, seq=entry.seq)
            for listener in self._commit_listeners:
                try:
                    listener(entry)
                except Exception:
                    pass    # a broken consumer must not fail the commit
        return entry

    # -- CDC consumers -------------------------------------------------------

    def add_commit_listener(self, fn: Callable) -> None:
        """Register a notify-only hook called as ``fn(entry)`` after
        every successful append (under the journal mutex — keep it
        cheap; the CDC extractor uses it to flag pending work, never to
        pump inline)."""
        with self._lock:
            self._commit_listeners.append(fn)

    def remove_commit_listener(self, fn: Callable) -> None:
        with self._lock:
            if fn in self._commit_listeners:
                self._commit_listeners.remove(fn)

    def set_cursor(self, name: str, seq: int) -> None:
        """Register/advance the named CDC consumer's cursor.

        :meth:`compact` treats every registered cursor as a pin, so
        entries the consumer has not durably processed are never folded
        away (unless ``force=True``, after which the consumer's next
        :meth:`tail` returns ``None`` and it must resync).
        """
        with self._lock:
            self._cursors[name] = int(seq)

    def clear_cursor(self, name: str) -> None:
        """Drop the named consumer's pin (consumer decommissioned)."""
        with self._lock:
            self._cursors.pop(name, None)

    def cursors(self) -> dict:
        """Registered CDC consumer cursors ``{name: seq}`` (a copy)."""
        with self._lock:
            return dict(self._cursors)

    # -- the durable tail --------------------------------------------------

    def _segment_path(self, first_seq: int) -> Path:
        # zero-padded so lexicographic directory order == seq order
        return Path(f"{self.path}.{first_seq:016d}")

    def segment_files(self) -> list[tuple[int, Path]]:
        """(first_seq, path) for every on-disk segment, ascending."""
        base = Path(str(self.path))
        if not base.parent.exists():
            return []
        out = []
        for p in base.parent.glob(base.name + ".*"):
            suffix = p.name[len(base.name) + 1:]
            if suffix.isdigit():
                out.append((int(suffix), p))
        return sorted(out)

    def _files(self) -> list[tuple[int, Path]]:
        """Every on-disk file of the log, oldest first: a monolithic
        seed file at *path* (first seq 0 — it predates every segment),
        then the segments."""
        seed = Path(str(self.path))
        return ([(0, seed)] if seed.is_file() else []) + \
            self.segment_files()

    def _header_line(self) -> str:
        return json.dumps({"_hdr": "epoch", "epoch": self.epoch},
                          separators=(",", ":"))

    def _file(self):
        if self._fh is None:
            if self._segment_first <= 0:
                self._segment_first = self._next_seq
            self._fh = open(self._segment_path(self._segment_first), "a",
                            encoding="utf-8")
            # stamp WAL ownership at the top of every fresh handle so
            # a checkpoint unlinking the original segment can't lose
            # the epoch; duplicates are fine (load takes the max).
            # Epoch 1 stays silent — WAL lines stay seed-identical.
            self._header_epoch = 0
            if self.epoch > 1:
                self._fh.write(self._header_line() + "\n")
                self._fh.flush()
                self._header_epoch = self.epoch
        return self._fh

    def _append_durable(self, entry: JournalEntry, *,
                        fsync: bool = True) -> None:
        line = entry.to_line()
        if self._segment_first <= 0:
            self._segment_first = entry.seq   # names the new segment
        fh = self._file()
        if self.faults is not None:
            try:
                self.faults.fire("journal.write", seq=entry.seq)
            except TornWrite as torn:
                # crash mid-write: a prefix of the record reaches disk
                keep = max(1, int(len(line) * torn.fraction))
                fh.write(line[:keep])
                fh.flush()
                os.fsync(fh.fileno())
                raise
        fh.write(line + "\n")
        fh.flush()      # always reaches the kernel before record returns
        if fsync:
            os.fsync(fh.fileno())
            self._stat_fsyncs += 1
            self._stat_fsynced += self._unsynced + 1

    def _sync_locked(self) -> None:
        if self._fh is not None and self._unsynced:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._stat_fsyncs += 1
            self._stat_fsynced += self._unsynced
            self._unsynced = 0
            self._synced_seq = self._next_seq - 1

    def synced(self) -> bool:
        """True when every appended seq is covered by a sync — the
        check that lets a caller skip :meth:`sync` (no lock taken)."""
        return self._synced_seq >= self._next_seq - 1

    def sync(self) -> None:
        """Make every append so far durable: the group-commit point.

        One fsync covers every deferred append; a caller whose appends
        a concurrent sync already covered returns without one.  The
        fsync runs outside the append lock.  Fault point:
        ``journal.batch_flush`` fires before the fsync with the number
        of deferred appends it would cover (a crash here loses every
        un-fsync'd append, the batch-boundary recovery case).

        Raises ``MR_FENCED`` when a newer epoch has fenced this
        journal: nothing the sync would cover is declared durable.
        """
        self.refuse_if_fenced()
        target = self._next_seq - 1     # covers the caller's own appends
        with self._sync_mutex:
            if self._synced_seq >= target:
                return
            with self._lock:
                self.refuse_if_fenced()
                if self.faults is not None:
                    self.faults.fire("journal.batch_flush",
                                     pending=self._unsynced,
                                     seq=self._next_seq - 1)
                self._stat_batch_flushes += 1
                target = self._next_seq - 1
                pending, self._unsynced = self._unsynced, 0
                fh = self._fh
            if fh is not None and pending:
                os.fsync(fh.fileno())
            with self._lock:
                if fh is not None and pending:
                    self._stat_fsyncs += 1
                    self._stat_fsynced += pending
                self._synced_seq = max(self._synced_seq, target)

    def close(self) -> None:
        """Sync pending appends and close the WAL handle (idempotent)."""
        with self._sync_mutex, self._lock:
            if self._fh is not None:
                self._sync_locked()
                self._fh.close()
                self._fh = None

    # -- epoch / fencing ---------------------------------------------------

    def set_epoch(self, epoch: int) -> None:
        """Claim WAL ownership at *epoch* (monotonic; durable).

        A promoted replica's fresh journal calls this with the fenced
        cluster epoch + 1 before accepting writes.  When a path is
        configured the ``{"_hdr":"epoch"}`` header is fsync'd so the
        claim survives a crash; owning an epoch at or above a pending
        fence lifts the fence (the journal *is* the new primary's).
        """
        with self._lock:
            if epoch < self.epoch:
                raise ValueError(
                    f"epoch may not go backwards: {self.epoch} -> {epoch}")
            self.epoch = int(epoch)
            if self._fenced_epoch and self.epoch >= self._fenced_epoch:
                self._fenced_epoch = 0
            if self.path is not None and self.epoch > 1:
                fh = self._file()   # fresh handles self-stamp
                if self._header_epoch != self.epoch:
                    fh.write(self._header_line() + "\n")
                    fh.flush()
                    self._header_epoch = self.epoch
                os.fsync(fh.fileno())

    def fence(self, epoch: int) -> bool:
        """Fence this journal below *epoch* (a newer primary owns the
        cluster).  Subsequent :meth:`sync` and fsync'ing :meth:`record`
        calls raise ``MR_FENCED``.  Returns True when the fence took
        effect (False: this journal already owns *epoch* or newer).
        """
        with self._lock:
            if self.faults is not None:
                self.faults.fire("journal.fence", epoch=epoch,
                                 owned=self.epoch)
            if epoch <= self.epoch:
                return False
            self._fenced_epoch = max(self._fenced_epoch, int(epoch))
            return True

    @property
    def fenced(self) -> bool:
        """True when a newer epoch has fenced this journal."""
        return self._fenced_epoch > self.epoch

    def refuse_if_fenced(self) -> None:
        """Raise ``MR_FENCED`` when a newer epoch has fenced this
        journal — the check a write makes before its handler runs."""
        if self._fenced_epoch > self.epoch:
            raise MoiraError(
                MR_FENCED,
                f"epoch {self.epoch} fenced by {self._fenced_epoch}")

    @property
    def fenced_by(self) -> int:
        """The epoch that fenced this journal (0 = unfenced)."""
        return self._fenced_epoch

    def advance_to(self, seq: int) -> None:
        """Seed sequence numbering past *seq*.

        Promotion continues the old primary's numbering on the new
        journal (first fresh entry gets ``applied_seq + 1``) so
        read-your-writes ``min_seq`` tokens stay valid across the
        switch.  Never moves backwards.
        """
        with self._lock:
            self._next_seq = max(self._next_seq, int(seq) + 1)
            if not self._unsynced:
                self._synced_seq = self._next_seq - 1

    def stats(self) -> dict:
        """WAL observability counters (the ``_wal_stats`` rows)."""
        with self._lock:
            segments, wal_bytes = [], 0
            if self.path is not None:
                if self._fh is not None:
                    self._fh.flush()
                segments = self.segment_files()
                wal_bytes = sum(p.stat().st_size for _, p in self._files())
            fsyncs = self._stat_fsyncs
            return {
                "appends": self._stat_appends,
                "fsyncs": fsyncs,
                "fsynced_appends": self._stat_fsynced,
                "batch_flushes": self._stat_batch_flushes,
                "mean_appends_per_fsync": (
                    round(self._stat_appends / fsyncs, 3)
                    if fsyncs else 0.0),
                "unsynced": self._unsynced,
                "entries_retained": len(self.entries),
                "next_seq": self._next_seq,
                "oldest_seq": (self.entries[0].seq if self.entries
                               else self._next_seq),
                "segments": len(segments),
                "oldest_segment_seq": (segments[0][0] if segments
                                       else 0),
                "wal_bytes": wal_bytes,
                "compactions": self._stat_compactions,
                "compacted_away": self._stat_compacted_away,
                "compact_floor": self._compact_floor,
                "cursors": dict(self._cursors),
                "epoch": self.epoch,
                "fenced_by": self._fenced_epoch,
            }

    # -- queries over the log ----------------------------------------------

    def last_seq(self) -> int:
        """Sequence number of the newest entry (0 when empty)."""
        with self._lock:
            return self.entries[-1].seq if self.entries else 0

    def current_seq(self) -> int:
        """Highest sequence number ever assigned (0 = nothing journaled).

        Unlike :meth:`last_seq` this survives checkpoint truncation —
        after ``truncate(n)`` empties the log, ``current_seq`` is still
        ``n`` — so it is the right freshness watermark for replicas and
        read-your-writes session tokens.
        """
        with self._lock:
            return self._next_seq - 1

    def oldest_seq(self) -> int:
        """Lowest retained sequence number (``_next_seq`` when empty)."""
        with self._lock:
            return self.entries[0].seq if self.entries else self._next_seq

    def tail(self, after_seq: int
             ) -> tuple[int, int, Optional[list[JournalEntry]]]:
        """One atomic snapshot for the replication feed.

        Returns ``(oldest_retained, current, entries)`` where *entries*
        is every retained entry with ``seq > after_seq`` — or ``None``
        when *after_seq* predates the retained log (a checkpoint
        truncated past it), meaning the caller must resync from a full
        snapshot rather than silently skip the gap ``after_seq`` →
        *oldest_retained* (which :meth:`after_seq` alone would do).
        """
        with self._lock:
            oldest = (self.entries[0].seq if self.entries
                      else self._next_seq)
            current = self._next_seq - 1
            if after_seq + 1 < oldest or after_seq < self._compact_floor:
                # predates the retained log, or lands below a compaction
                # hole: the retained suffix would silently skip dropped
                # records, so the caller must snapshot-resync instead
                return oldest, current, None
            lo = bisect_left(self.entries, after_seq + 1,
                             key=lambda e: e.seq)
            return oldest, current, self.entries[lo:]

    def since(self, when: int) -> list[JournalEntry]:
        """Entries at or after *when* — the replay window after a restore.

        Bisects when timestamps are nondecreasing (the normal case under
        the virtual clock); falls back to a linear scan if out-of-order
        stamps were ever appended.
        """
        with self._lock:
            if self._when_monotonic:
                lo = bisect_left(self.entries, when,
                                 key=lambda e: e.when)
                return self.entries[lo:]
            return [e for e in self.entries if e.when >= when]

    def after_seq(self, seq: int) -> list[JournalEntry]:
        """Entries with sequence numbers strictly greater than *seq*."""
        with self._lock:
            lo = bisect_left(self.entries, seq + 1, key=lambda e: e.seq)
            return self.entries[lo:]

    # -- compaction ----------------------------------------------------------

    def compact(self, *, supersedable: Optional[dict] = None,
                pins: tuple = (), force: bool = False) -> dict:
        """Fold superseded records out of the retained log.

        *supersedable* maps query name -> index of the argument that
        keys the record (``recovery.SUPERSEDABLE_QUERIES``).  An entry
        of a whitelisted query is dropped when a later entry of the
        same query with the same key follows it with no *barrier* in
        between — a barrier being any entry of a non-whitelisted query
        (its replay may read fields the dropped record wrote) or any
        entry carrying bindings (its id/string allocations must
        survive).  ``_aborted`` markers are transparent: they execute
        nothing, only re-apply their own bindings, so they neither
        supersede nor shield anything — and they are always kept.

        *pins* are replica ``applied_seq`` watermarks: entries above
        ``min(pins)`` are never dropped, so a feeding replica's next
        :meth:`tail` finds a contiguous suffix.  Registered CDC
        consumer cursors (:meth:`set_cursor`) pin with the same
        discipline, automatically.  ``force=True`` ignores both; a
        replica or extractor left below the resulting
        ``compact_floor`` then gets ``None`` from :meth:`tail` and
        resyncs (snapshot / full-reconverge) instead of silently
        losing the hole.

        Safe to call at any commit boundary (it takes the journal
        mutex, like every append); rewrites the durable file(s) when
        anything was dropped.  Returns ``{"dropped", "ceiling",
        "floor", "retained"}``.
        """
        supersedable = dict(supersedable or {})
        with self._sync_mutex, self._lock:
            ceiling = self._next_seq - 1
            if not force:
                for pin in pins:
                    ceiling = min(ceiling, int(pin))
                for pin in self._cursors.values():
                    ceiling = min(ceiling, int(pin))
            dropped: set = set()
            pending: dict = {}
            for entry in self.entries:
                if entry.query == "_aborted":
                    continue
                key_arg = supersedable.get(entry.query)
                if (key_arg is None or entry.bindings
                        or key_arg >= len(entry.args)):
                    pending.clear()     # barrier
                    continue
                key = (entry.query, entry.args[key_arg])
                prev = pending.get(key)
                if prev is not None and prev.seq <= ceiling:
                    dropped.add(prev.seq)
                pending[key] = entry
            self._stat_compactions += 1
            if dropped:
                self.entries = [e for e in self.entries
                                if e.seq not in dropped]
                self._compact_floor = max(self._compact_floor,
                                          max(dropped))
                self._stat_compacted_away += len(dropped)
                if self.path is not None:
                    self._rewrite_locked()
            return {"dropped": len(dropped), "ceiling": ceiling,
                    "floor": self._compact_floor,
                    "retained": len(self.entries)}

    def _write_atomic(self, path: Union[str, Path], entries) -> None:
        """Replace *path* with exactly *entries* (after the epoch
        header, when one is owed): tmp file, fsync, atomic rename — a
        crash leaves the old file or the new one."""
        tmp = Path(str(path) + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            if self.epoch > 1:
                fh.write(self._header_line() + "\n")
            for entry in entries:
                fh.write(entry.to_line() + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def _rewrite_locked(self) -> None:
        """Rewrite the durable log to exactly the retained entries: one
        fresh segment replaces every file (a seed file included); the
        next append opens a new active segment at ``_next_seq``."""
        self.close()
        old = [p for _, p in self._files()]
        self._segment_first = 0
        fresh = None
        if self.entries:
            fresh = self._segment_path(self.entries[0].seq)
            self._write_atomic(fresh, self.entries)
        for part in old:
            if part != fresh:
                part.unlink()

    # -- checkpoint / truncate ---------------------------------------------

    def truncate(self, upto_seq: int) -> int:
        """Drop entries with ``seq <= upto_seq`` (they are covered by a
        snapshot): every fully covered file is unlinked and at most the
        one straddling the watermark is rewritten as a segment holding
        its live suffix.  Returns the number of entries dropped."""
        with self._sync_mutex, self._lock:
            keep_from = bisect_left(self.entries, upto_seq + 1,
                                    key=lambda e: e.seq)
            self.entries = self.entries[keep_from:]
            if self.path is not None:
                self.close()        # don't lose batched appends
                self._truncate_files(upto_seq)
            return keep_from

    def _truncate_files(self, upto_seq: int) -> None:
        # next append opens a fresh segment at _next_seq
        self._segment_first = 0
        files = self._files()
        for i, (first, path) in enumerate(files):
            next_first = (files[i + 1][0] if i + 1 < len(files)
                          else self._next_seq)
            last_covered = next_first - 1
            if last_covered <= upto_seq:
                path.unlink()       # the snapshot covers it entirely
            elif first <= upto_seq:
                # straddles the watermark: keep only the live suffix
                keep = [e for e in self.entries
                        if first <= e.seq <= last_covered]
                self._write_atomic(self._segment_path(upto_seq + 1), keep)
                path.unlink()

    @classmethod
    def load(cls, path: Union[str, Path], *,
             strict: bool = False) -> "Journal":
        """Read a journal file from disk (``Journal(path=path)`` does
        the same, never strict).  The next append is numbered after the
        highest seq read.

        A malformed line (the torn final record of a crash mid-append)
        ends the load: everything before it is kept, ``torn_tail`` is
        set, and the remainder is discarded.  ``strict=True`` raises
        instead.  Legacy records without sequence numbers are assigned
        their 1-based file position so replay windows keep working.

        The ``wal.<seq>`` segment files beside *path* are read in seq
        order, after a monolithic seed file at *path* itself when one
        exists (segments always hold newer entries).
        """
        journal = cls()
        journal.path = path
        journal._read(strict)
        return journal

    def _read(self, strict: bool) -> None:
        """Adopt the log on disk at ``self.path`` (see :meth:`load`)."""
        files = self._files()
        if not files:
            return
        entries: list[JournalEntry] = []
        torn = False
        for first, part in files:
            if torn:
                break   # only the newest file can have a live tail
            part_start = len(entries)
            with open(part, encoding="utf-8") as fh:
                for line in fh:
                    stripped = line.strip()
                    if not stripped:
                        continue
                    if stripped.startswith(_HDR_PREFIX):
                        # epoch ownership header: max wins (a handle
                        # reopen or rewrite may have stamped it twice)
                        try:
                            hdr = json.loads(stripped)
                            self.epoch = max(self.epoch,
                                             int(hdr["epoch"]))
                            continue
                        except (ValueError, KeyError, TypeError):
                            if strict:
                                raise ValueError(
                                    f"malformed journal header: {stripped!r}")
                            self.torn_tail = torn = True
                            break
                    try:
                        entry = JournalEntry.from_line(line)
                    except ValueError:
                        if strict:
                            raise
                        self.torn_tail = torn = True
                        break
                    if entry.seq == 0:
                        entry = replace(entry, seq=len(entries) + 1)
                    entries.append(entry)
            if torn:
                # scrub the torn record so appends land in a *new*
                # segment that a future load will not stop short of; a
                # torn seed file is rewritten as a segment
                kept = entries[part_start:]
                target = self._segment_path(
                    first or (kept[0].seq if kept else 1))
                self._write_atomic(target, kept)
                if target != part:
                    part.unlink()
        self.entries = entries
        self._next_seq = max((e.seq for e in entries), default=0) + 1
        self._synced_seq = self._next_seq - 1
        self._when_monotonic = all(
            a.when <= b.when for a, b in zip(entries, entries[1:]))
        # re-derive the compaction floor: record() assigns contiguous
        # seqs, so any mid-log gap is a compaction hole — a tail() from
        # below the last hole must resync, even across a restart
        floor = 0
        for a, b in zip(entries, entries[1:]):
            if b.seq > a.seq + 1:
                floor = b.seq - 1
        self._compact_floor = floor

    def __len__(self) -> int:
        return len(self.entries)
