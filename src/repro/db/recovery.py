"""Crash-safe Moira-server recovery: snapshot + WAL replay (§5.2.2).

The paper bounds data loss with nightly ASCII backups plus the journal
("the journal file ... contains a listing of all successful changes");
this module turns that into a real recovery protocol:

* :func:`checkpoint` — dump every relation with :func:`mrbackup`, record
  the WAL watermark (the newest journaled sequence number the snapshot
  covers) beside the dump, then truncate the WAL up to it.
* :func:`recover` — rebuild a schema-fresh database, :func:`mrrestore`
  the snapshot into it, and replay every WAL entry past the watermark.

Replay re-executes each journaled query through the normal predefined
query layer under the *original* principal and the *original* timestamp
(a private clock pinned to each entry's ``when``), so audit fields —
``modby``/``modtime``/``modwith`` — come out byte-identical to a run
that never crashed.  A torn final record (crash mid-append) is dropped
by :meth:`Journal.load`; entries the snapshot already contains (crash
between backup and truncate) surface as ``MR_EXISTS``-style conflicts
and are tolerated and counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.db.backup import mrbackup, mrrestore
from repro.db.engine import Database
from repro.db.journal import Journal, JournalEntry
from repro.errors import (
    MoiraError,
    MR_EXISTS,
    MR_IN_USE,
    MR_NO_MATCH,
    MR_NOT_UNIQUE,
)
from repro.sim.clock import Clock

__all__ = ["checkpoint", "recover", "replay_wal", "apply_bindings",
           "apply_entries", "OutOfCommitOrder", "RecoveryResult",
           "CHECKPOINT_META", "SUPERSEDABLE_QUERIES"]

# Written beside the per-relation dumps: the WAL sequence number the
# snapshot covers.  Replay starts strictly after it.
CHECKPOINT_META = "_wal_checkpoint"

# Conflict codes a replayed entry may legitimately hit when the snapshot
# already contains its effect (crash between mrbackup and truncate).
TOLERATED_REPLAY_ERRORS = frozenset({MR_EXISTS, MR_NOT_UNIQUE,
                                     MR_IN_USE, MR_NO_MATCH})

# WAL-compaction supersede whitelist (Journal.compact): query name ->
# index of the argument that keys the record.  A query belongs here
# only if (a) it writes a fixed field set addressed by that key, and a
# later call with the same key rewrites every one of those fields
# (audit columns included), and (b) no journaled query's replay
# *behaviour* reads any of those fields.  ``update_user_status`` is
# deliberately absent: ``register_user`` checks status ==
# REGISTERABLE, so dropping a superseded status write could flip a
# replayed registration into a tolerated conflict and silently diverge.
SUPERSEDABLE_QUERIES = {
    "update_user_shell": 0,
    "update_finger_by_login": 0,
}


@dataclass
class RecoveryResult:
    """What one recovery did."""

    db: Database
    rows_restored: int = 0
    watermark: int = 0
    replayed: int = 0
    skipped_conflicts: int = 0
    aborted_applied: int = 0
    torn_tail: bool = False
    log: list[str] = field(default_factory=list)


def apply_bindings(db: Database, bindings: Optional[dict], *,
                   now: int = 0) -> None:
    """Reproduce a transaction's system-table effects from its bindings.

    Aborted writers leave their id-hint bumps and interned strings
    behind (the system relations never roll back), journaled as the
    ``_aborted`` entry's bindings; committed writers may have interned
    a string another transaction allocated.  Applying the bindings is
    idempotent: hints only move forward, strings insert only if absent.
    """
    if not bindings:
        return
    def advance(hint: str, top: int) -> None:
        try:
            cur = db.get_value(hint)
        except MoiraError:
            cur = 0
        if top > cur:
            db.set_value(hint, top, now=now)

    with db.system_latch():
        for hint, vals in (bindings.get("id") or {}).items():
            if vals:
                advance(hint, max(vals) + 1)
        intern = bindings.get("intern") or {}
        if intern:
            table = db.table("strings")
            for text, sid in intern.items():
                sid = int(sid)
                if not table.select({"string_id": sid}):
                    table.insert({"string_id": sid, "string": text},
                                 now=now)
                advance("strings_id", sid + 1)


def checkpoint(db: Database, journal: Journal,
               directory: Union[str, Path]) -> int:
    """Snapshot *db* into *directory* and truncate the WAL behind it.

    Returns the recorded watermark sequence number.  The watermark is
    written *before* the truncate so a crash between the two steps only
    costs replay work, never correctness (covered entries replay as
    tolerated conflicts).
    """
    directory = Path(directory)
    mrbackup(db, directory)
    watermark = journal.last_seq()
    (directory / CHECKPOINT_META).write_text(f"{watermark}\n",
                                             encoding="utf-8")
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
            db: Optional[Database] = None,
            strict: bool = False) -> RecoveryResult:
    """Restore the snapshot in *directory* and replay the WAL on top.

    Give either *journal* (already loaded) or *wal_path* (loaded here,
    tolerating a torn tail).  *db* defaults to a fresh schema database.
    Returns a :class:`RecoveryResult` whose ``db`` is ready to serve.

    Cluster-epoch WAL headers (``{"_hdr": "epoch", ...}``) survive this
    path untouched: :meth:`Journal.load` adopts the highest stamped
    epoch, so a recovered node resumes knowing which failover
    generation its WAL belonged to.
    """
    if db is None:
        from repro.db.schema import build_database
        db = build_database()
    counts = mrrestore(db, directory)
    watermark = read_watermark(directory)
    if journal is None:
        journal = (Journal.load(wal_path, strict=strict)
                   if wal_path is not None else Journal())
    result = RecoveryResult(db=db, rows_restored=sum(counts.values()),
                            watermark=watermark,
                            torn_tail=journal.torn_tail)
    replay_wal(db, journal, after_seq=watermark, result=result,
               strict=strict)
    return result


class OutOfCommitOrder(ValueError):
    """The log (or feed) offered an entry at or below the commit seq
    already applied — corrupt history, never something to apply."""


def apply_entries(db: Database, entries: Iterable[JournalEntry], *,
                  clock: Clock, after_commit_seq: int = 0,
                  strict: bool = False, client: str = "recovery"
                  ) -> Iterator[tuple[JournalEntry, Optional[MoiraError]]]:
    """Apply journal *entries* to *db*, yielding ``(entry, conflict)``
    after each one — the one loop behind WAL replay and replica apply.

    Each entry re-executes through the predefined-query layer as its
    original principal and client (*client* when it recorded none) at
    its original timestamp — *clock* follows ``entry.when`` forward —
    with the journaled id bindings scripted.  ``conflict`` is the
    tolerated :class:`MoiraError` when the target already held the
    entry's effect (never under *strict*), else None; an ``_aborted``
    marker applies only its bindings.  Entries are pulled lazily, one
    at a time, so the caller may filter and fire fault points upstream.

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
        # system-table trajectory first: bump id hints past the entry's
        # allocations and pre-seed interned strings (idempotent), so
        # even a conflict-skipped or aborted entry leaves values/strings
        # exactly as the original run did
        apply_bindings(db, entry.bindings, now=entry.when)
        conflict = None
        # an aborted writer rolled back; only its bindings survive
        if entry.query != "_aborted":
            ctx = QueryContext(db=db, clock=clock, caller=entry.who,
                               client=entry.client or client,
                               privileged=True)
            try:
                with db.scripted_ids(entry.bindings):
                    execute_query(ctx, entry.query, list(entry.args))
            except MoiraError as exc:
                if strict or exc.code not in TOLERATED_REPLAY_ERRORS:
                    raise
                conflict = exc
        last_commit_seq = entry.commit_seq or last_commit_seq
        yield entry, conflict


def replay_wal(db: Database, journal: Journal, *, after_seq: int = 0,
               result: Optional[RecoveryResult] = None,
               strict: bool = False) -> RecoveryResult:
    """Re-execute WAL entries past *after_seq* against *db*
    (:func:`apply_entries`).  Conflicts the snapshot already absorbed
    are tolerated and counted (unless *strict*)."""
    if result is None:
        result = RecoveryResult(db=db)
    for entry, conflict in apply_entries(
            db, journal.after_seq(after_seq), clock=Clock(0),
            strict=strict):
        if entry.query == "_aborted":
            result.aborted_applied += 1
        elif conflict is None:
            result.replayed += 1
        else:
            result.skipped_conflicts += 1
            result.log.append(
                f"replay seq {entry.seq} {entry.query}: tolerated "
                f"{conflict.symbol}")
    return result
