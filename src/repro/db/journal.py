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
artifact of dying mid-append).  A torn write is the process's death —
the journal refuses every later append — so a malformed line anywhere
else is damage, which :meth:`Journal.load` refuses.

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
files.  The checkpoint is the log's one bound: :meth:`truncate`
*unlinks* whole covered segments, rewriting at most the one straddling
the watermark.  A monolithic ``wal`` file (the seed layout) is still
read by :meth:`load`, before the segments; the first truncate folds it
into a segment.  Only truncate drops entries, from the front, so the
seqs on disk run without a gap.  A crash mid-rewrite leaves one
overlap: a segment ``wal.N`` supersedes the earlier files' entries with
seq ≥ N.  Any other gap, and a seq that repeats or goes back, is
damage, which :meth:`load` refuses with :class:`JournalDamaged`.

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
import math
import os
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro.errors import MR_FENCED, MoiraError
from repro.sim.faults import FaultInjector, ServerCrash, TornWrite

__all__ = ["Journal", "JournalDamaged", "JournalEntry", "fsync_paths"]

# Durable epoch header: one JSON line {"_hdr": "epoch", "epoch": N}.
# Parsed (max wins) and skipped by load(); never a JournalEntry.
_HDR_PREFIX = '{"_hdr"'

# Every distinct footprint as one shared tuple, keyed by its unordered
# form: the journal holds each entry until a checkpoint, and a workload
# has few footprints.
_STAMPS: dict[frozenset, tuple] = {}
_STAMPS_MAX = 4096


class JournalDamaged(ValueError):
    """A malformed journal line where no crash leaves one (anywhere
    but the last record of the newest file), or a gap in the seqs on
    disk.  Never skipped."""


def stamp(changed: dict[str, frozenset]) -> tuple:
    """*changed* (table -> columns) as the canonical footprint
    ``((table, (column, ...)), ...)``, both levels sorted, shared by
    every entry with the same one."""
    key = frozenset(changed.items())
    found = _STAMPS.get(key)
    if found is None:
        found = tuple(sorted((table, tuple(sorted(columns)))
                             for table, columns in changed.items()))
        if len(_STAMPS) < _STAMPS_MAX:
            _STAMPS[key] = found
    return found


def stamp_from_json(changed) -> tuple:
    """A footprint as JSON carries it (``{table: [column, ...]}``) as a
    :func:`stamp`; ``ValueError`` if it is anything else."""
    if not isinstance(changed, dict) or not all(
            isinstance(columns, list)
            and all(isinstance(c, str) for c in columns)
            for columns in changed.values()):
        raise ValueError("malformed journal line: changed not an object "
                         "of column lists")
    return stamp({table: frozenset(columns)
                  for table, columns in changed.items()})


def fsync_paths(paths: Iterable[Union[str, Path]]) -> None:
    """Force each file or directory in *paths* to disk, in order.

    A checkpoint makes its snapshot durable this way before
    :meth:`Journal.truncate` drops the log the snapshot covers: the
    dump files and watermark first, then the directory holding their
    names.
    """
    for path in paths:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


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
    # the commit's footprint (:func:`stamp`); () when it changed no
    # data (a DCM bookkeeping write), None when unknown (a WAL written
    # before entries carried it)
    changed: Optional[tuple] = None

    def to_line(self) -> str:
        """Serialise to one JSON line."""
        data = {"seq": self.seq, "when": self.when, "who": self.who,
                "client": self.client, "query": self.query,
                "args": list(self.args)}
        if self.commit_seq:
            data["commit_seq"] = self.commit_seq
        if self.changed is not None:
            data["changed"] = dict(self.changed)
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
            changed = data.get("changed")
            if changed is not None:
                changed = stamp_from_json(changed)
            return cls(
                when=int(data["when"]),
                who=str(data["who"]),
                query=str(data["query"]),
                args=tuple(str(a) for a in args),
                seq=int(data.get("seq", 0)),
                client=str(data.get("client", "")),
                commit_seq=int(data.get("commit_seq", 0)),
                changed=changed,
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
    # True when load() hit a torn final record and scrubbed it
    torn_tail: bool = field(default=False, compare=False)
    # writer threads journal concurrently; the mutex keeps the
    # in-memory order and the mirrored file lines consistent.
    # Reentrant so a fault callback firing inside record()/sync() may
    # itself fence or inspect the journal (the chaos harness does).
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False, compare=False)
    # held across an fsync (taken before _lock, never after it), so a
    # sync's fsync runs while writers append; close and truncate take
    # it too, so no fsync sees its handle closed
    _sync_mutex: threading.RLock = field(default_factory=threading.RLock,
                                         repr=False, compare=False)
    _fh: object = field(default=None, repr=False, compare=False)
    # a torn write killed the process: every later append is refused
    _dead: bool = field(default=False, repr=False, compare=False)
    _next_seq: int = field(default=1, repr=False, compare=False)
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

    def __post_init__(self) -> None:
        if self.path is not None:
            self._read(strict=False)

    def record(self, when: int, who: str, query: str,
               args: tuple[str, ...], client: str = "", *,
               commit_seq: int = 0, changed: Optional[dict] = None,
               fsync: bool = True) -> JournalEntry:
        """Append an entry; when a path is set, fsync it to the WAL.

        *changed* is the commit's footprint, table -> frozenset of
        columns (:func:`stamp`); None records none.

        ``fsync=False`` defers durability entirely: the line reaches
        the kernel but the caller (the server before it releases a
        reply, the DCM's cron cycle or extraction round) owns the
        :meth:`sync` — one fsync covers every append before it.

        Fault points: ``journal.record`` fires before anything is
        appended (a crash here loses the record entirely),
        ``journal.write`` fires as the line is written (a
        :class:`~repro.sim.faults.TornWrite` leaves a partial record on
        disk, and the journal refuses every later append with
        :class:`~repro.sim.faults.ServerCrash`, as a dead process
        would), and ``journal.appended`` fires after the fsync (a crash
        here is the "after append #N" boundary — the record is durable).

        A fenced journal (a newer epoch owns the cluster) refuses the
        append with ``MR_FENCED`` — checked only on the fsync'ing path;
        ``fsync=False`` calls run inside the engine's commit gate, so
        ``run_write`` refuses them before their handler runs
        (:meth:`refuse_if_fenced`) and the group-commit :meth:`sync`
        refuses whatever a fence raced past that check.
        """
        if changed is not None:
            changed = stamp(changed)
        with self._lock:
            if self._dead:
                raise ServerCrash("the journal died mid-write")
            if fsync:
                self.refuse_if_fenced()
            if self.faults is not None:
                self.faults.fire("journal.record", query=query, who=who,
                                 seq=self._next_seq)
            entry = JournalEntry(when=when, who=who, query=query,
                                 args=tuple(str(a) for a in args),
                                 seq=self._next_seq, client=client,
                                 commit_seq=commit_seq, changed=changed)
            self._next_seq += 1
            self._stat_appends += 1
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
                self._dead = True
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
        truncated past it): the caller must resync from a full
        snapshot rather than silently skip the gap.
        """
        with self._lock:
            oldest, current = self.oldest_seq(), self._next_seq - 1
            if after_seq + 1 < oldest:
                return oldest, current, None
            return oldest, current, self.after_seq(after_seq)

    def seq_at_commit(self, commit_seq: int) -> int:
        """The watermark of a read view pinned at *commit_seq*: the seq
        of the newest entry committed at or below it, else the seq
        before the oldest retained.  Writers append inside the commit
        gate, before their seq publishes, and log order is commit-seq
        order, so the entries it covers are a prefix (bisected)."""
        with self._lock:
            covered = bisect_right(self.entries, commit_seq,
                                   key=lambda e: e.commit_seq)
            return (self.entries[covered - 1].seq if covered
                    else self.oldest_seq() - 1)

    def after_seq(self, seq: int) -> list[JournalEntry]:
        """Entries with sequence numbers strictly greater than *seq*."""
        with self._lock:
            lo = bisect_left(self.entries, seq + 1, key=lambda e: e.seq)
            return self.entries[lo:]

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
            if self.path is None:
                return keep_from
            self.close()            # don't lose batched appends
            self._segment_first = 0     # the next append opens one
            files = self._files()
            for i, (first, path) in enumerate(files):
                next_first = (files[i + 1][0] if i + 1 < len(files)
                              else self._next_seq)
                if next_first - 1 <= upto_seq:
                    path.unlink()   # the snapshot covers it entirely
                elif first <= upto_seq:
                    # straddles the watermark: keep only the live suffix
                    keep = [e for e in self.entries if e.seq < next_first]
                    self._write_atomic(self._segment_path(upto_seq + 1),
                                       keep)
                    path.unlink()
            return keep_from

    @classmethod
    def load(cls, path: Union[str, Path], *,
             strict: bool = False) -> "Journal":
        """Read a journal file from disk (``Journal(path=path)`` does
        the same, never strict).  The next append is numbered after the
        highest seq read.

        Only the last record of the newest file may be malformed — the
        torn final record of a crash mid-append: it is scrubbed from
        disk and ``torn_tail`` is set.  A malformed line anywhere else
        is damage, not a crash, and raises :class:`JournalDamaged`
        naming the file and the line, with nothing rewritten;
        ``strict=True`` raises for the torn record too.  Legacy records
        without sequence numbers are assigned their 1-based file
        position so replay windows keep working.

        The ``wal.<seq>`` segment files beside *path* are read in seq
        order, after a monolithic seed file at *path* itself when one
        exists (segments always hold newer entries).  A seq that does
        not follow the one before it by one — a gap the module
        docstring's crash overlap does not explain, a repeat or a step
        back — raises :class:`JournalDamaged` naming the file, the line
        and any missing seqs.
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
        high = 0        # the highest seq kept
        for i, (first, part) in enumerate(files):
            # the next segment holds this file's entries from its name
            # on: a crash between writing it and unlinking this file
            # leaves both
            newest = i + 1 == len(files)
            until = math.inf if newest else files[i + 1][0]
            part_start, read = len(entries), high
            with open(part, encoding="utf-8") as fh:
                lines = [(number, text) for number, line in enumerate(fh, 1)
                         if (text := line.strip())]
            for number, text in lines:
                try:
                    if text.startswith(_HDR_PREFIX):
                        # epoch ownership header: max wins (a handle
                        # reopen or rewrite may have stamped it twice)
                        self.epoch = max(self.epoch,
                                         int(json.loads(text)["epoch"]))
                        continue
                    entry = JournalEntry.from_line(text)
                except (ValueError, KeyError, TypeError) as exc:
                    last = number == lines[-1][0]
                    if last and until <= read + 1:
                        break   # torn, and the next segment holds its seq
                    # only the newest file's last record may be torn
                    if strict or not newest or not last:
                        raise JournalDamaged(
                            f"{part}: line {number}: {exc!r}") from exc
                    self.torn_tail = True
                    break
                if entry.seq == 0:
                    entry = replace(entry, seq=len(entries) + 1)
                read = entry.seq
                if read >= until:
                    continue
                if high and read != high + 1:
                    why = (f"seqs {high + 1}..{read - 1} are missing"
                           if read > high else "seqs never go back")
                    raise JournalDamaged(f"{part}: line {number}: seq {read} "
                                         f"follows {high}; {why}")
                high = read
                entries.append(entry)
            if self.torn_tail:
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
        self._next_seq = high + 1
        self._synced_seq = high

    def __len__(self) -> int:
        return len(self.entries)
