"""Change-data-capture propagation: the WAL as a change stream.

The paper's DCM runs on a cron cadence — a managed host sees a mutation
only when the next cycle extracts, regenerates, and pushes.  This
module closes that latency wall: the journal every committed mutation
already lands in *is* a change stream, and the :class:`CdcExtractor`
consumes it to drive the incremental generators per-change instead of
per-cycle.

The pipeline, end to end:

1. **Subscribe** — the extractor tails the primary's journal
   in-process (``Journal.tail``); a notify-only commit listener flags
   pending work, so an idle pump is a flag check.
2. **Cursor** — the extractor owns a durable named cursor (a min-seq
   token persisted like the checkpoint watermark: tmp + fsync +
   rename).  The cursor is registered with the journal, and
   ``Journal.compact`` treats it as a pin with the same discipline as
   replica applied-seq watermarks.  Forced compaction past the cursor
   makes the next poll return the resync signal; the extractor then
   resets the cursor to the stream head and marks *every* service
   dirty — a full reconvergence cycle that self-heals the gap, because
   generation always extracts from current database state (journal
   entries only decide *which* services are dirty, never what the
   files contain).
3. **Map** — each committed entry maps to dirty services through the
   registered query's declared relation footprint (``Query.tables``,
   which nothing else reads: every write takes the one writer lock)
   intersected with each generator's ``depends``.  Undeclared
   footprints conservatively dirty everything.  The DCM's own
   bookkeeping writes (``set_server_internal_flags`` /
   ``set_server_host_internal``) are journaled but version-neutral;
   ignoring them here is what breaks the push -> bookkeeping ->
   dirty -> push feedback loop.
4. **Debounce / coalesce** — a dirty service converges once
   ``debounce_seconds`` have passed since it first went dirty (0 =
   immediately on the next pump) or once ``max_coalesce`` mutations
   have piled up.  Every mutation that lands in an existing window
   rides the same regeneration and push — a registration storm becomes
   a handful of batched pushes.
5. **Converge** — :meth:`~repro.dcm.dcm.DCM.converge_service` runs
   the DCM's one classify step and one deliver step, the same two the
   cron ``run_once`` runs: regenerate incrementally (version vectors +
   changed-row logs) and push *delta payloads* — only files whose
   bytes changed — to hosts holding the previous generation (per-host
   locks, §5.9 update protocol, governor admission, one serverhosts
   scan).  The reference for the installed bytes is a
   full build every due cycle (``TestRegenerateOracle``).  The
   round's bookkeeping writes are fsync'd together, once, by
   :meth:`~repro.dcm.dcm.DCM.sync` before the cursor moves.
6. **Retry** — an outcome that left a host behind (soft failure,
   governor deferral, held lock) re-opens the service's window, not
   due before the governor's ``retry_at``; the re-entry finds the
   version vector unchanged and pushes the recorded generation to the
   hosts still owed it, so a healed host converges on the extractor's
   schedule, not cron's.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Optional, Union

from repro.db.journal import Journal, JournalEntry
from repro.dcm.generators.base import all_generators

__all__ = ["CDC_BOOKKEEPING_QUERIES", "CdcCursor", "CdcExtractor"]

# Journaled writes the CDC must NOT treat as data changes: the DCM's
# own flag bookkeeping (version-neutral by design — touch_stats=False)
# and aborted-writer binding markers.  Without this set, every push
# would journal flag writes that re-dirty the serverhosts-dependent
# generators: a feedback loop.
CDC_BOOKKEEPING_QUERIES = frozenset({
    "set_server_internal_flags",
    "set_server_host_internal",
    "_aborted",
})


class CdcCursor:
    """A durable named min-seq token, persisted like the checkpoint
    watermark: written to a sidecar JSON file via tmp + fsync + atomic
    rename, reloaded on construction.  ``path=None`` keeps it in
    memory only (tests, throwaway deployments)."""

    def __init__(self, name: str = "cdc",
                 path: Optional[Union[str, Path]] = None):
        self.name = name
        self.path = Path(path) if path is not None else None
        self.seq = 0
        self.loaded = False
        if self.path is not None and self.path.exists():
            try:
                data = json.loads(self.path.read_text(encoding="utf-8"))
                self.seq = int(data["seq"])
                self.loaded = True
            except (ValueError, KeyError, OSError):
                self.seq = 0    # unreadable token: start from the head

    def _save(self) -> None:
        if self.path is None:
            return
        tmp = Path(str(self.path) + ".tmp")
        payload = json.dumps({"name": self.name, "seq": self.seq},
                             separators=(",", ":"))
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    def advance_to(self, seq: int) -> None:
        """Move the cursor forward (monotonic; persisted when moved)."""
        if seq > self.seq:
            self.seq = int(seq)
            self._save()

    def reset(self, seq: int) -> None:
        """Force the cursor to *seq* (the resync path; persisted)."""
        self.seq = int(seq)
        self._save()


class CdcExtractor:
    """Consumes the change stream and drives targeted convergence.

    One instance per deployment; :meth:`pump` is the unit of work (the
    deployment crons it every ``CDC_PUMP_SECONDS``, tests call it
    directly after mutating).  Thread-safe: pumps serialise on an
    internal lock, and the journal commit listener only sets a flag.
    """

    def __init__(
        self,
        dcm,
        journal: Journal,
        clock,
        *,
        cursor_path: Optional[Union[str, Path]] = None,
        name: str = "cdc",
    ):
        self.dcm = dcm
        self.journal = journal
        self.clock = clock
        self.name = name
        # coalescing window (set on the built extractor): a dirty
        # service converges once its window is this old, or earlier
        # past this many mutations
        self.debounce_seconds = 0
        self.max_coalesce = 256
        self.cursor = CdcCursor(name, cursor_path)
        # dirty-service windows: service -> {first_seq, last_seq,
        # first_at, count}
        self._pending: dict[str, dict] = {}
        self._pump_lock = threading.Lock()
        self._dirty = threading.Event()     # commit-listener flag
        # processed-stream watermark (cursor = min unconverged floor)
        if self.cursor.loaded:
            self._seen_seq = self.cursor.seq
        else:
            self._seen_seq = journal.current_seq()
            self.cursor.reset(self._seen_seq)
        self.stats = {
            "pumps": 0,
            "entries_seen": 0,
            "entries_ignored": 0,
            "mutations_mapped": 0,
            "mutations_coalesced": 0,
            "pushes_coalesced": 0,
            "converges": 0,
            "converges_incremental": 0,
            "converges_no_change": 0,
            "converges_skipped": 0,
            "resyncs": 0,
            "host_pushes": 0,
            "delta_pushes": 0,
            "full_pushes": 0,
            "marked_converged": 0,
            "soft_failures": 0,
            "hard_failures": 0,
            "bytes_pushed": 0,
        }
        # service -> {"last_converged_seq", "converges", "pushes",
        #             "pending", "coalesced"}
        self.service_stats: dict[str, dict] = {}
        self._table_map = self._build_table_map()
        journal.set_cursor(self.name, self.cursor.seq)
        journal.add_commit_listener(self._on_commit)

    def close(self) -> None:
        """Detach from the journal (pin dropped, listener removed)."""
        self.journal.remove_commit_listener(self._on_commit)
        self.journal.clear_cursor(self.name)

    # -- mapping committed entries to dirty services -------------------------

    @staticmethod
    def _build_table_map() -> dict[str, set[str]]:
        """table name -> services whose generator depends on it."""
        table_map: dict[str, set[str]] = {}
        for service, generator in all_generators().items():
            for table in generator.depends:
                table_map.setdefault(table, set()).add(service)
        return table_map

    def _all_services(self) -> set[str]:
        return set(all_generators())

    def _services_for(self, entry: JournalEntry) -> set[str]:
        """Dirty services for one committed entry.

        Resolution: registered query -> declared relation footprint ->
        generator dependency intersection.  Unknown queries and
        undeclared footprints dirty everything — correctness over
        precision; generation from current state makes over-marking
        merely a wasted no-change check.
        """
        from repro.queries.base import get_query
        query = get_query(entry.query)
        if query is None:
            return self._all_services()
        tables = query.tables
        if callable(tables):
            try:
                tables = tables(list(entry.args))
            except Exception:
                tables = None
        if tables is None:
            return self._all_services()
        dirty: set[str] = set()
        for table in tables:
            dirty |= self._table_map.get(table, set())
        return dirty

    # -- the stream ----------------------------------------------------------

    def _on_commit(self, _entry) -> None:
        self._dirty.set()

    @property
    def has_work(self) -> bool:
        """True when a commit landed since the last pump, or an open
        window has reached its not-before time — the cheap
        should-I-pump probe."""
        if self._dirty.is_set():
            return True
        now = self.clock.now()
        return any(now >= slot.get("not_before", 0)
                   for slot in list(self._pending.values()))

    def poll(self, now: Optional[int] = None) -> int:
        """Drain the change stream into dirty-service windows.

        Returns the number of entries consumed.  A resync signal
        (compaction or a checkpoint truncated past the cursor) resets
        the cursor to the stream head and dirties every service — the
        full-reconvergence self-heal.
        """
        now = self.clock.now() if now is None else now
        _oldest, current, entries = self.journal.tail(self._seen_seq)
        if entries is None:
            self._resync(current, now)
            return 0
        for entry in entries:
            self._ingest(entry, now)
        self._seen_seq = current
        return len(entries)

    def _resync(self, current: int, now: int) -> None:
        self.stats["resyncs"] += 1
        self._seen_seq = current
        for service in sorted(self._all_services()):
            slot = self._pending.get(service)
            if slot is None:
                self._pending[service] = {
                    "first_seq": current, "last_seq": current,
                    "first_at": now, "count": 1, "forced": True}
            else:
                # keep the window age, but the old pins are meaningless
                # now — the gap is unservable; reconverge from state
                slot["first_seq"] = current
                slot["last_seq"] = current
                slot["forced"] = True
                slot.pop("not_before", None)
        self.cursor.reset(current)
        self.journal.set_cursor(self.name, self.cursor.seq)

    def _ingest(self, entry: JournalEntry, now: int) -> None:
        self.stats["entries_seen"] += 1
        if entry.query in CDC_BOOKKEEPING_QUERIES:
            self.stats["entries_ignored"] += 1
            return
        services = self._services_for(entry)
        if not services:
            self.stats["entries_ignored"] += 1
            return
        self.stats["mutations_mapped"] += 1
        for service in services:
            slot = self._pending.get(service)
            if slot is None:
                self._pending[service] = {
                    "first_seq": entry.seq, "last_seq": entry.seq,
                    "first_at": now, "count": 1, "forced": False}
            else:
                # new data never waits on a retry's not-before: the
                # healthy hosts are owed it now
                slot.pop("not_before", None)
                slot["last_seq"] = entry.seq
                slot["count"] += 1
                self.stats["mutations_coalesced"] += 1

    def _due(self, now: int) -> list[str]:
        due = []
        for service, slot in self._pending.items():
            if now < slot.get("not_before", 0):
                continue    # a retry the governor would only defer
            if slot.get("forced") or slot["count"] >= self.max_coalesce \
                    or now - slot["first_at"] >= self.debounce_seconds:
                due.append(service)
        return sorted(due)

    # -- convergence ---------------------------------------------------------

    def pump(self, now: Optional[int] = None) -> dict:
        """One extraction round: poll, converge due services, advance
        the durable cursor.  Returns a summary dict."""
        with self._pump_lock:
            now = self.clock.now() if now is None else now
            self._dirty.clear()
            self.stats["pumps"] += 1
            self.poll(now)
            due = self._due(now)
            outcomes = []
            if due:
                self.dcm.governor.begin_cycle()
            for service in due:
                slot = self._pending.pop(service)
                outcome = self.dcm.converge_service(
                    service, now, origin_seq=slot["last_seq"])
                self._account(service, slot, outcome, now)
                outcomes.append(outcome)
            if due:
                # one fsync makes the round's bookkeeping durable, and
                # it comes before the cursor moves
                self.dcm.sync()
                # absorb our own bookkeeping writes so cursor lag
                # settles back to zero instead of trailing every push;
                # clear the flag first — our pushes raised it, and any
                # commit racing the clear simply raises it again
                self._dirty.clear()
                self.poll(now)
            self._advance_cursor()
            return {
                "now": now,
                "converged": [o["service"] for o in outcomes
                              if o["status"] in ("converged",
                                                 "no_change")],
                "pending": sorted(self._pending),
                "cursor": self.cursor.seq,
                "outcomes": outcomes,
            }

    def _account(self, service: str, slot: dict, outcome: dict,
                 now: int) -> None:
        svc = self.service_stats.setdefault(service, {
            "last_converged_seq": 0, "converges": 0, "pushes": 0,
            "coalesced": 0})
        status = outcome["status"]
        if status == "locked":
            # generation never ran: keep the window (and its pins) open
            self._pending.setdefault(service, slot)
            return
        if status in ("converged", "no_change"):
            self.stats["converges"] += 1
            svc["converges"] += 1
            svc["last_converged_seq"] = max(svc["last_converged_seq"],
                                            slot["last_seq"])
            if status == "no_change":
                self.stats["converges_no_change"] += 1
            if outcome["incremental"]:
                self.stats["converges_incremental"] += 1
            batched = slot["count"] - 1
            if batched > 0:
                self.stats["pushes_coalesced"] += batched
                svc["coalesced"] += batched
            self.stats["host_pushes"] += outcome["pushes"]
            self.stats["delta_pushes"] += outcome["delta_pushes"]
            self.stats["full_pushes"] += outcome["full_pushes"]
            self.stats["marked_converged"] += outcome["marked_converged"]
            self.stats["soft_failures"] += outcome["soft_failures"]
            self.stats["hard_failures"] += outcome["hard_failures"]
            self.stats["bytes_pushed"] += outcome["bytes"]
            svc["pushes"] += outcome["pushes"]
            if outcome["retry"]:
                # data captured; host delivery deferred (soft failure /
                # governor backoff).  Re-open a window pinned at the
                # stream head — the retry needs current state, not the
                # original entries — and not due before the governor
                # would admit a host.
                self._pending.setdefault(service, {
                    "first_seq": self._seen_seq,
                    "last_seq": self._seen_seq,
                    "first_at": now, "count": 1, "forced": False,
                    "not_before": outcome["retry_at"]})
            return
        # skipped / harderror: the cron path (and the operator who
        # clears the error) own this service until further mutations
        self.stats["converges_skipped"] += 1
        if status == "harderror":
            self.stats["hard_failures"] += outcome["hard_failures"]

    def _advance_cursor(self) -> None:
        floor = self._seen_seq
        for slot in self._pending.values():
            floor = min(floor, slot["first_seq"] - 1)
        self.cursor.advance_to(floor)
        self.journal.set_cursor(self.name, self.cursor.seq)

    # -- observability -------------------------------------------------------

    def cursor_lag(self) -> int:
        """Committed entries the durable cursor has not yet covered."""
        return max(0, self.journal.current_seq() - self.cursor.seq)

    def debounce_occupancy(self) -> int:
        """Services currently sitting in an open debounce window."""
        return len(self._pending)

    def stats_tuples(self) -> list[tuple[str, ...]]:
        """``_dcm_stats`` rows: extractor-level ``(_cdc, key, value)``
        then per-service ``(_cdc.service, name, last_converged_seq,
        converges, pushes, coalesced, pending)`` rows."""
        rows: list[tuple[str, ...]] = [
            ("_cdc", "cursor", str(self.cursor.seq)),
            ("_cdc", "cursor_lag", str(self.cursor_lag())),
            ("_cdc", "debounce_occupancy",
             str(self.debounce_occupancy())),
        ]
        for key in sorted(self.stats):
            rows.append(("_cdc", key, str(self.stats[key])))
        for service in sorted(set(self.service_stats) |
                              set(self._pending)):
            svc = self.service_stats.get(service, {})
            pending = self._pending.get(service)
            rows.append((
                "_cdc.service", service,
                str(svc.get("last_converged_seq", 0)),
                str(svc.get("converges", 0)),
                str(svc.get("pushes", 0)),
                str(svc.get("coalesced", 0)),
                str(pending["count"] if pending else 0),
            ))
        return rows
