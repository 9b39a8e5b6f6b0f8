"""Access control support: capability ACL seeding and the access cache.

§5.5: "the server performs access control on all queries which might
side-effect the database ... it is expected that many access checks
will have to be performed twice ... some form of access caching will
eventually be worked into the server for performance reasons."  The
cache here is that anticipated optimisation, made toggleable so the E8
benchmark can measure its effect.

Invalidation is generation-based but **scoped by mutated relation**:
the server diffs the engine's per-table data versions around each
mutating query and passes the touched tables in; only mutations that
touch an ACL-relevant relation (membership, capability, or ACE state)
bump the generation, so a read-mostly workload no longer loses the
whole cache to every quota update or string interning.  The cache is
thread-safe: client threads and transport loops look up, store, and
invalidate concurrently.

This cache memoises whole access *decisions*; the membership-closure
index (``repro.db.closure``, see docs/QUERY_ENGINE.md) accelerates the
recursive-membership primitive underneath them, so cold checks after an
invalidation are cheap too — the two layers compose.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

from repro.db.engine import Database
from repro.queries.base import all_queries

__all__ = ["AccessCache", "ACL_TABLES", "seed_capacls"]

# Relations whose contents can change an access decision: capability
# lists and membership (capacls/list/members/users), plus every table
# carrying an ACE that per-query relaxations consult ("someone on the
# ACE of the target service", filesystem owners, host access).
ACL_TABLES = frozenset({
    "users", "list", "members", "capacls",
    "servers", "filesys", "machine", "hostaccess",
})


class AccessCache:
    """Memoises (principal, query, args) -> allowed decisions."""

    def __init__(self, enabled: bool = True, max_entries: int = 4096,
                 acl_tables: Optional[frozenset[str]] = ACL_TABLES):
        self.enabled = enabled
        self.max_entries = max_entries
        self.acl_tables = acl_tables  # None = every mutation invalidates
        self._cache: dict[tuple, bool] = {}
        self._lock = threading.Lock()
        self.generation = 0
        self.hits = 0
        self.misses = 0

    def lookup(self, principal: str, query: str,
               args: tuple[str, ...]) -> bool | None:
        """Cached decision for (principal, query, args), or None."""
        if not self.enabled:
            return None
        with self._lock:
            key = (self.generation, principal, query, args)
            found = self._cache.get(key)
            if found is None:
                self.misses += 1
            else:
                self.hits += 1
            return found

    def generation_now(self) -> int:
        """The current generation, for :meth:`store`'s guard."""
        with self._lock:
            return self.generation

    def store(self, principal: str, query: str, args: tuple[str, ...],
              allowed: bool, *, generation: Optional[int] = None) -> None:
        """Remember a decision for the current generation.

        *generation* is the value of :meth:`generation_now` captured
        **before** the access check ran.  If an invalidation landed in
        between, the decision was computed against dead ACL state and
        the store is discarded — otherwise a pre-mutation allow/deny
        would be cached under the new generation and served until the
        next ACL-relevant mutation.
        """
        if not self.enabled:
            return
        with self._lock:
            if generation is not None and generation != self.generation:
                return
            # FIFO eviction: dict order is insertion order, so popping
            # the first key drops the oldest entry (oldest generation
            # first) — no wholesale clear, no thundering-herd refill
            while len(self._cache) >= self.max_entries:
                self._cache.pop(next(iter(self._cache)))
            self._cache[(self.generation, principal, query, args)] = allowed

    def invalidate(self,
                   mutated: Optional[Iterable[str]] = None) -> bool:
        """Drop cached decisions after a mutation.

        *mutated* names the relations whose data versions moved; when
        given and none of them is ACL-relevant the cache survives
        untouched.  ``invalidate()`` with no argument keeps the old
        contract: everything goes.  Returns True if the generation
        bumped.
        """
        if mutated is not None and self.acl_tables is not None:
            if self.acl_tables.isdisjoint(mutated):
                return False
        with self._lock:
            self.generation += 1
            # every existing entry is keyed to a dead generation now;
            # dropping them eagerly keeps lookups from walking garbage
            self._cache.clear()
        return True

    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters for benchmarks and ``_query_stats``
        companions."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "generation": self.generation,
                "entries": len(self._cache),
            }


def seed_capacls(db: Database, admin_list: str = "moira-admins",
                 *, now: int = 0) -> int:
    """Point every registered query's capability at *admin_list*.

    The production database gave each query a capability row; here the
    deployment bootstrap points them all at one administrators list
    (callers refine individual capabilities afterwards with ordinary
    queries).  Returns the list_id used.
    """
    lists = db.table("list")
    existing = lists.select({"name": admin_list})
    if existing:
        list_id = existing[0]["list_id"]
    else:
        list_id = db.next_id("list_id", now=now)
        lists.insert(
            dict(name=admin_list, list_id=list_id, active=1, public=0,
                 hidden=0, maillist=0, grouplist=0, gid=0,
                 desc="Moira administrators", acl_type="LIST",
                 acl_id=list_id, modtime=now, modby="bootstrap",
                 modwith="seed_capacls"),
            now=now)
    capacls = db.table("capacls")
    for query in all_queries().values():
        if capacls.select({"capability": query.name}):
            continue
        capacls.insert({"capability": query.name, "tag": query.shortname,
                        "list_id": list_id}, now=now)
    # the pseudo-query guarding the Trigger_DCM major request
    if not capacls.select({"capability": "trigger_dcm"}):
        capacls.insert({"capability": "trigger_dcm", "tag": "tdcm",
                        "list_id": list_id}, now=now)
    return list_id
