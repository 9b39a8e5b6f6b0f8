"""Crash-safe Moira-server recovery: snapshot + WAL replay (§5.2.2).

The paper bounds data loss with nightly ASCII backups plus the journal
("the journal file ... contains a listing of all successful changes");
this module turns that into a real recovery protocol:

* :func:`checkpoint` — dump every relation with :func:`mrbackup` from
  one read view, record beside the dump the WAL watermark that view
  covers (the seq of the newest entry it holds), fsync the dump, the
  watermark and the directory, then truncate the WAL up to it.
* :func:`recover` — rebuild a schema-fresh database, :func:`mrrestore`
  the snapshot into it, and replay every WAL entry past the watermark.

Replay re-executes each journaled query through the normal predefined
query layer under the *original* principal and the *original* timestamp
(a private clock pinned to each entry's ``when``), so audit fields —
``modby``/``modtime``/``modwith`` — come out byte-identical to a run
that never crashed.  A torn final record (crash mid-append) is dropped
by :meth:`Journal.load`.  The watermark is exact, so no replayed entry
meets its own effect in the snapshot: an entry that fails is a
divergence, and replay raises it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.db.backup import mrbackup, mrrestore
from repro.db.engine import Database
from repro.db.journal import (Journal, JournalDamaged, JournalEntry,
                               fsync_paths)
from repro.sim.clock import Clock

__all__ = ["checkpoint", "recover", "replay_wal", "apply_entries",
           "OutOfCommitOrder", "RecoveryResult",
           "CHECKPOINT_META"]

# Written beside the per-relation dumps: the WAL sequence number the
# snapshot covers.  Replay starts strictly after it.
CHECKPOINT_META = "_wal_checkpoint"


@dataclass
class RecoveryResult:
    """What one recovery did."""

    db: Database
    rows_restored: int = 0
    watermark: int = 0
    replayed: int = 0
    # always 0, replay tolerates nothing; perf/workloads.py reads it
    skipped_conflicts: int = 0
    torn_tail: bool = False
    # the WAL replayed, numbering its next append past the watermark
    journal: Optional[Journal] = None


def checkpoint(db: Database, journal: Journal,
               directory: Union[str, Path]) -> int:
    """Snapshot *db* into *directory* and truncate the WAL behind it.

    Returns the recorded watermark sequence number: the dump and it
    are one cut, read from one ``read_view()`` (writers commit past a
    view that pins a seq).  Every dump file, the watermark and the
    directory reach the disk *before* the truncate, so a power loss
    after it cannot take acknowledged writes along.
    """
    directory = Path(directory)
    with db.read_view() as view:
        dumped = mrbackup(view, directory)
        # a view holding the writer lock holds every entry so far
        watermark = (journal.seq_at_commit(view.seq)
                     if db.read_view_pins_seq else journal.current_seq())
    meta = directory / CHECKPOINT_META
    meta.write_text(f"{watermark}\n", encoding="utf-8")
    fsync_paths([*(directory / name for name in dumped), meta, directory])
    journal.truncate(watermark)
    # checkpoint is the natural MVCC horizon: everything up to the
    # watermark is durably on disk, so reclaim row versions no pinned
    # snapshot can still see
    db.gc_versions()
    return watermark


def read_watermark(directory: Union[str, Path]) -> int:
    """The WAL watermark a snapshot directory records (0 if none)."""
    meta = Path(directory) / CHECKPOINT_META
    if not meta.exists():
        return 0
    try:
        return int(meta.read_text().strip())
    except ValueError:
        return 0


def recover(directory: Union[str, Path], *,
            wal_path: Optional[Union[str, Path]] = None,
            journal: Optional[Journal] = None,
            db: Optional[Database] = None) -> RecoveryResult:
    """Restore the snapshot in *directory* and replay the WAL on top.

    Give either *journal* (already loaded) or *wal_path* (loaded here,
    tolerating a torn tail).  *db* defaults to a fresh schema database.
    Returns a :class:`RecoveryResult` whose ``db`` is ready to serve
    and whose ``journal`` numbers its next append past the watermark,
    even when the checkpoint left no WAL on disk.  The ``db`` numbers
    its next commit past the highest commit seq the WAL holds, so the
    log stays in commit-seq order across the restart.

    A WAL whose first retained seq is past the watermark + 1 (a newer
    checkpoint truncated what this snapshot lacks) raises
    :class:`~repro.db.journal.JournalDamaged`: replaying it would make
    a state no commit made.

    Cluster-epoch WAL headers (``{"_hdr": "epoch", ...}``) survive this
    path untouched: :meth:`Journal.load` adopts the highest stamped
    epoch, so a recovered node resumes knowing which failover
    generation its WAL belonged to.
    """
    if db is None:
        from repro.db.schema import build_database
        db = build_database()
    watermark = read_watermark(directory)
    if journal is None:
        journal = Journal.load(wal_path) if wal_path is not None else Journal()
    if journal.entries and journal.entries[0].seq > watermark + 1:
        raise JournalDamaged(
            f"WAL gap: the log starts at seq {journal.entries[0].seq}, "
            f"the snapshot covers through {watermark}")
    journal.advance_to(watermark)
    counts = mrrestore(db, directory)
    result = RecoveryResult(db=db, rows_restored=sum(counts.values()),
                            watermark=watermark,
                            torn_tail=journal.torn_tail, journal=journal)
    replay_wal(db, journal, after_seq=watermark, result=result)
    db.continue_commit_seqs(
        max((entry.commit_seq for entry in journal.entries), default=0))
    return result


class OutOfCommitOrder(ValueError):
    """The log (or feed) offered an entry at or below the commit seq
    already applied — corrupt history, never something to apply."""


def apply_entries(db: Database, entries: Iterable[JournalEntry], *,
                  clock: Clock, after_commit_seq: int = 0,
                  client: str = "recovery") -> Iterator[JournalEntry]:
    """Apply journal *entries* to *db*, yielding each entry once it
    applied — the one loop behind WAL replay and replica apply.

    Each entry re-executes through the predefined-query layer as its
    original principal and client (*client* when it recorded none) at
    its original timestamp — *clock* follows ``entry.when`` forward —
    allocating ids and strings as the original did: the one writer
    allocated in commit order, and a failed write rolled its
    allocations back.  An entry that fails raises, after every entry
    before it applied: it succeeded once, so the target diverged from
    the log.  Entries are pulled lazily, one at a time, so the caller
    may filter and fire fault points upstream.

    Replay-order oracle: writers append inside the commit gate, so log
    order must equal commit-seq order.  A violation means the gate (or
    the log, or the feed) is corrupt — never silently reorder history.  The high-water starts
    at *after_commit_seq* and moves only once an entry has been
    applied, so an entry whose execution raised can be offered again.
    """
    from repro.queries.base import QueryContext, execute_query

    last_commit_seq = after_commit_seq
    for entry in entries:
        if entry.commit_seq and entry.commit_seq <= last_commit_seq:
            raise OutOfCommitOrder(
                f"out of commit order: seq {entry.seq} has commit_seq "
                f"{entry.commit_seq} after {last_commit_seq}")
        if entry.when > clock.now():
            clock.set(entry.when)
        ctx = QueryContext(db=db, clock=clock, caller=entry.who,
                           client=entry.client or client, privileged=True)
        execute_query(ctx, entry.query, list(entry.args))
        last_commit_seq = entry.commit_seq or last_commit_seq
        yield entry


def replay_wal(db: Database, journal: Journal, *, after_seq: int = 0,
               result: Optional[RecoveryResult] = None) -> RecoveryResult:
    """Re-execute WAL entries past *after_seq* against *db*
    (:func:`apply_entries`), counting them in ``result.replayed``."""
    if result is None:
        result = RecoveryResult(db=db)
    for _ in apply_entries(db, journal.after_seq(after_seq),
                           clock=Clock(0)):
        result.replayed += 1
    return result
