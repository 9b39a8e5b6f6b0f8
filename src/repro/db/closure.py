"""The incrementally maintained membership-closure index.

Recursive list membership ("sub-lists expanded", §7.0.3) sits on the
access-control path of *every* authenticated call: capability checks,
ACE checks, and the R-typed retrievals all ask "which lists transitively
contain this entity?".  The seed answered by walking the ``members``
graph from scratch per call; this index answers from precomputed state.

Representation
--------------

Only ``member_type == "LIST"`` rows shape the closure: they are the
edges of the list-containment graph (row ``(P, LIST, C)`` means list P
directly contains list C).  The index keeps that graph as parent/child
adjacency sets, maintained *incrementally* from the table's bounded
changed-row log, plus a memo of **ancestor sets**::

    ancestors(C) = every list_id from which C is reachable downward

Lists transitively containing a member (USER/LIST/STRING) are then::

    direct(member) ∪ ⋃ ancestors(d) for d in direct(member)

where ``direct`` is one composite-index lookup on ``members``.  USER and
STRING membership churn — the overwhelmingly common mutation — never
touches the adjacency or the memo at all.

Consistency
-----------

Synchronisation is pull-based: every lookup first replays the table
changes since the last seen data version.  When the changed-row log has
overflowed (or the table was wholesale ``clear()``-ed) the adjacency is
rebuilt from a full scan — cycle-safe, since ancestor computation is an
iterative BFS with a visited set.  Edge replay is idempotent (set
discard/add), so replaying a change the rebuild already observed cannot
corrupt the graph.  All state changes happen under one internal mutex;
concurrent readers share it safely.

The index is an *optimisation with a safety valve*: callers
(:class:`repro.queries.base.QueryContext`) fall back to the seed's
recursive walk whenever the closure is disabled or raises — stale or
wrong answers are never served in exchange for speed.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

__all__ = ["MembershipClosure"]

# Memoised ancestor sets kept before the memo is wholesale dropped
# (bounds worst-case memory on pathological list graphs; correctness is
# untouched — the next lookup just recomputes).
_DEFAULT_MAX_CACHED = 65_536


class MembershipClosure:
    """member (type, id) -> the set of transitively containing lists."""

    def __init__(self, members_table, *,
                 max_cached: int = _DEFAULT_MAX_CACHED):
        self._members = members_table
        self._mutex = threading.Lock()
        self._max_cached = max_cached
        self._synced_version: Optional[int] = None  # None = never built
        # list-containment adjacency: child list_id -> parent list_ids
        self._parents: dict[int, set[int]] = {}
        self._children: dict[int, set[int]] = {}
        # ancestor-set memo, dropped per affected subtree on edge churn
        self._up: dict[int, frozenset[int]] = {}
        # observability counters (read without the mutex; approximate)
        self.lookups = 0
        self.syncs = 0
        self.rebuilds = 0
        self.memo_overflows = 0

    # -- public API ---------------------------------------------------------

    def lists_containing(self, member_type: str,
                         member_id: int) -> set[int]:
        """Every list_id transitively containing (member_type, member_id).

        For a LIST member this is exactly its ancestor set; for USER and
        STRING members it is the direct lists plus their ancestors.
        """
        with self._mutex:
            self.lookups += 1
            self._sync()
            out: set[int] = set()
            for lid in self._direct(member_type, member_id):
                out.add(lid)
                out |= self._ancestors(lid)
            return out

    def contains(self, list_id: int, member_type: str,
                 member_id: int) -> bool:
        """Is (member_type, member_id) on *list_id*, sub-lists expanded?"""
        target = int(list_id)
        with self._mutex:
            self.lookups += 1
            self._sync()
            for lid in self._direct(member_type, member_id):
                if lid == target or target in self._ancestors(lid):
                    return True
            return False

    def poke(self) -> None:
        """Sync now (e.g. right after a members mutation) so the replay
        cost lands off the next lookup's critical path.  Cheap no-op
        when already current."""
        with self._mutex:
            self._sync()

    def stats(self) -> dict[str, int]:
        """Counters + sizes for benchmarks and the metrics surface."""
        return {
            "lookups": self.lookups,
            "syncs": self.syncs,
            "rebuilds": self.rebuilds,
            "memo_overflows": self.memo_overflows,
            "list_edges": sum(len(p) for p in self._parents.values()),
            "cached_ancestor_sets": len(self._up),
        }

    # -- synchronisation ----------------------------------------------------

    def _sync(self) -> None:
        """Replay table changes since the last seen data version.

        The version is read *before* the log/scan so a concurrent
        mutation can only cause a harmless (idempotent) replay on the
        next sync, never a skipped change.
        """
        version = self._members.version
        if version == self._synced_version:
            return
        self.syncs += 1
        changes = (None if self._synced_version is None
                   else self._members.changes_since(self._synced_version))
        if changes is None:
            # first build, log overflow, or wholesale clear(): rebuild
            self._rebuild()
        else:
            for change in changes:
                if change.before is not None:
                    self._drop_edge(change.before)
                if change.after is not None:
                    self._add_edge(change.after)
        self._synced_version = version

    def _rebuild(self) -> None:
        """Recompute the adjacency from a full scan (cycle-safe)."""
        self.rebuilds += 1
        self._parents = {}
        self._children = {}
        self._up = {}
        for row in list(self._members.rows):
            self._add_edge(row, invalidate=False)

    def _add_edge(self, row: dict, *, invalidate: bool = True) -> None:
        if row.get("member_type") != "LIST":
            return
        parent = int(row["list_id"])
        child = int(row["member_id"])
        self._parents.setdefault(child, set()).add(parent)
        self._children.setdefault(parent, set()).add(child)
        if invalidate:
            self._invalidate_down(child)

    def _drop_edge(self, row: dict) -> None:
        if row.get("member_type") != "LIST":
            return
        parent = int(row["list_id"])
        child = int(row["member_id"])
        # idempotent: replaying a change the rebuild already saw is a no-op
        self._parents.get(child, set()).discard(parent)
        self._children.get(parent, set()).discard(child)
        self._invalidate_down(child)

    def _invalidate_down(self, list_id: int) -> None:
        """Drop memoised ancestor sets for *list_id* and everything
        reachable below it (their ancestors may have changed)."""
        if not self._up:
            return
        seen: set[int] = set()
        stack = [list_id]
        while stack:
            lid = stack.pop()
            if lid in seen:
                continue
            seen.add(lid)
            self._up.pop(lid, None)
            stack.extend(self._children.get(lid, ()))

    # -- lookups ------------------------------------------------------------

    def _direct(self, member_type: str, member_id: int) -> Iterable[int]:
        """list_ids directly containing the member (one index probe)."""
        rows = self._members.select({"member_type": member_type,
                                     "member_id": int(member_id)})
        return [int(r["list_id"]) for r in rows]

    def _ancestors(self, list_id: int) -> frozenset[int]:
        """Every list from which *list_id* is reachable (memoised,
        iterative — cycles terminate via the visited set)."""
        cached = self._up.get(list_id)
        if cached is not None:
            return cached
        result: set[int] = set()
        stack = list(self._parents.get(list_id, ()))
        while stack:
            lid = stack.pop()
            if lid in result:
                continue
            result.add(lid)
            stack.extend(self._parents.get(lid, ()))
        frozen = frozenset(result)
        if len(self._up) >= self._max_cached:
            # memo overflow: drop everything rather than serve from an
            # unbounded cache; correctness is recomputation, not state
            self._up.clear()
            self.memo_overflows += 1
        self._up[list_id] = frozen
        return frozen
