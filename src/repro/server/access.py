"""Access control support: capability ACL seeding and the access cache.

§5.5: "the server performs access control on all queries which might
side-effect the database ... it is expected that many access checks
will have to be performed twice ... some form of access caching will
eventually be worked into the server for performance reasons."  The
cache here is that anticipated optimisation, made toggleable so the E8
benchmark can measure its effect.

Two key shapes share one dict and one ``max_entries`` bound:

- ``(principal, query)`` holds a grant that read no argument: the
  ``public`` rule or the capability list
  (:func:`~repro.queries.base.check_query_access` says which rule
  granted).  One entry serves the caller's calls with any arguments,
  so an administrator's reads over ten thousand logins hit.
- ``(principal, query, args)`` holds a grant made by a per-query
  relaxation, which reads the arguments, and every denial.

:meth:`AccessCache.lookup` probes both under one lock; a hit pins no
``read_view()``.

Invalidation is generation-based and **scoped by column**: the server
registers :meth:`AccessCache.invalidate` as a commit listener of its
backend, so every committed write — through the server or not — hands
it its ``txn.mutated`` (table -> the columns it set) once its seq has
published, and only a write that sets one of :data:`ACL_COLUMNS` — the
columns the capability check, the membership closure and the
relaxations read — bumps the generation.  A shell or finger change
keeps the cache.  A
backend that stamps every column of a moved table (SQLite) degrades
this to table grain, which is still sound.  The cache is thread-safe:
client threads and transport loops look up, store, and invalidate
concurrently.

This cache memoises whole access *decisions*; the membership-closure
index (``repro.db.closure``, see docs/QUERY_ENGINE.md) accelerates the
recursive-membership primitive underneath them, so cold checks after an
invalidation are cheap too — the two layers compose.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping, Optional, Union

from repro.db.engine import Database
from repro.queries.base import all_queries

__all__ = ["AccessCache", "ACL_COLUMNS", "seed_capacls"]

# The columns an access decision reads, per relation: the capability
# list (capacls), the caller's row (users), list flags and ACEs, all of
# membership (the closure), and the ACEs the relaxations consult on
# filesystems and services.  No relaxation reads machine or hostaccess.
# tests/test_access_soundness.py checks this list against the writes.
ACL_COLUMNS: dict[str, frozenset[str]] = {
    "capacls": frozenset({"capability", "list_id"}),
    "users": frozenset({"login", "users_id", "uid"}),
    "list": frozenset({"name", "list_id", "hidden", "public", "acl_type",
                       "acl_id"}),
    "members": frozenset({"list_id", "member_type", "member_id"}),
    "filesys": frozenset({"label", "owner", "owners"}),
    "servers": frozenset({"name", "acl_type", "acl_id"}),
}

# the rules of check_query_access whose grant reads no argument
ARGS_FREE_RULES = frozenset({"public", "capability"})


class AccessCache:
    """Memoises access decisions, keyed as the module docstring says."""

    def __init__(self, enabled: bool = True, max_entries: int = 4096):
        self.enabled = enabled
        self.max_entries = max_entries
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
            found = self._cache.get((principal, query))
            if found is None:
                found = self._cache.get((principal, query, args))
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
              allowed: bool, *, generation: Optional[int] = None,
              rule: Optional[str] = None) -> None:
        """Remember a decision for the current generation.

        *rule* is the rule that granted (:func:`check_query_access`'s
        result); a grant by one of :data:`ARGS_FREE_RULES` is kept per
        (principal, query), anything else per (principal, query, args).

        *generation* is the value of :meth:`generation_now` captured
        **before** the access check ran.  If an invalidation landed in
        between, the decision was computed against dead ACL state and
        the store is discarded — otherwise a pre-mutation allow/deny
        would be cached under the new generation and served until the
        next ACL-relevant mutation.
        """
        if not self.enabled:
            return
        key = ((principal, query) if allowed and rule in ARGS_FREE_RULES
               else (principal, query, args))
        with self._lock:
            if generation is not None and generation != self.generation:
                return
            # FIFO eviction: dict order is insertion order, so popping
            # the first key drops the oldest entry — no wholesale
            # clear, no thundering-herd refill
            while len(self._cache) >= self.max_entries:
                self._cache.pop(next(iter(self._cache)))
            self._cache[key] = allowed

    def invalidate(self, mutated: Union[Mapping[str, Iterable[str]],
                                        Iterable[str], None] = None
                   ) -> bool:
        """Drop cached decisions after a mutation.

        *mutated* is a write's ``txn.mutated`` (table -> columns), or
        bare table names meaning every column; when it meets no
        :data:`ACL_COLUMNS` the cache survives untouched.
        ``invalidate()`` with no argument drops everything.  Returns
        True if the generation bumped.
        """
        if isinstance(mutated, Mapping):
            if all(table not in ACL_COLUMNS
                   or ACL_COLUMNS[table].isdisjoint(columns)
                   for table, columns in mutated.items()):
                return False
        elif mutated is not None and ACL_COLUMNS.keys().isdisjoint(mutated):
            return False
        with self._lock:
            self.generation += 1
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
