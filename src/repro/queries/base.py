"""Query registry, execution context, and shared validation helpers.

Execution model
---------------

A :class:`QueryContext` carries everything a handler needs: the
database, the virtual clock, the journal, the authenticated caller, and
the client-program name (which becomes ``modwith`` in audit fields).

A :class:`Query` couples the paper's metadata (long name, 4-char short
name, argument and return signatures) with two callables:

``check_access(ctx, args)``
    Returns True if the caller may run the query with these arguments.
    This implements both the capacls capability lists and the paper's
    per-query relaxations ("the target user may retrieve his own
    information", "anyone adding themselves to a public list", "someone
    on the ACE of the target service", ...).

``handler(ctx, args)``
    Performs the query, returning a list of result tuples (possibly
    empty) for retrievals or ``[]`` for mutations.  Raises
    :class:`MoiraError` on any failure.

Side-effecting queries are journaled on success.  Retrieval queries that
produce no rows raise ``MR_NO_MATCH`` exactly as the paper specifies.

Every handler call in the system is made by one of two executors here —
:func:`run_read` (on a backend ``read_view()``) and :func:`run_write`
(inside a backend ``write_txn()``, which is also the one place a
journal entry is built).  The server, its commit windows, the direct
library, WAL replay and replica apply all go through them
(DESIGN.md §17).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _replace
from typing import Callable, Iterator, Optional, Sequence

from repro.db.engine import Database, Row, WildcardPattern
from repro.db.journal import Journal
from repro.errors import (
    MoiraError,
    MR_ACE,
    MR_ARGS,
    MR_CLUSTER,
    MR_LIST,
    MR_MACHINE,
    MR_NO_HANDLE,
    MR_NO_MATCH,
    MR_NOT_UNIQUE,
    MR_PERM,
    MR_TYPE,
    MR_USER,
    MR_WILDCARD,
)
from repro.sim.clock import Clock

__all__ = [
    "Query",
    "QueryContext",
    "register",
    "get_query",
    "all_queries",
    "exactly_one",
    "no_wildcards",
    "check_argc",
    "run_read",
    "run_write",
]

_REGISTRY: dict[str, "Query"] = {}
_BY_SHORT: dict[str, "Query"] = {}

Handler = Callable[["QueryContext", Sequence[str]], list[tuple]]
AccessCheck = Callable[["QueryContext", Sequence[str]], bool]


@dataclass
class Query:
    """One predefined query: metadata + handler + access policy."""
    name: str
    shortname: str
    args: tuple[str, ...]
    returns: tuple[str, ...]
    handler: Handler
    side_effects: bool
    check_access: Optional[AccessCheck] = None
    public: bool = False           # "safe for the ACL to be everybody"
    variable_args: bool = False    # e.g. none currently; reserved
    # §5.1 D: "the ultimate capability of Moira supporting multiple
    # databases through the same query mechanism" — each handle names
    # the database it resolves against; "moira" is the primary.
    database: str = "moira"
    # Full relation footprint (reads AND writes) of a mutation, used to
    # map it onto writer shards: a tuple of table names, or a callable
    # ``(args) -> Sequence[str]`` when the footprint is data-dependent.
    # None means undeclared — the executor falls back to full exclusion.
    # System tables (values/strings) need not be listed; they are
    # shard-free.
    tables: Optional[object] = None

    def help_text(self) -> str:
        """The _help line for this query."""
        args = ", ".join(self.args) or "none"
        rets = ", ".join(self.returns) or "none"
        return f"{self.name} ({self.shortname}): args: {args}; returns: {rets}"


_UNSET = object()  # caller-row memo sentinel (None is a valid cached miss)


@dataclass
class QueryContext:
    """Everything a query handler needs to run on behalf of a caller."""

    db: Database
    clock: Clock
    caller: str = ""                 # authenticated principal ("" = unauth)
    client: str = "unknown"          # program name -> modwith
    journal: Optional[Journal] = None
    privileged: bool = False         # direct "glue" library / DCM as root
    # additional databases reachable through the same query mechanism
    # (§5.1 D); keys are database names referenced by Query.database.
    extra_databases: Optional[dict[str, Database]] = None
    # caller-row memo, validated against the users table data version so
    # a long-lived context (DirectClient) never serves a stale row;
    # init=False keeps dataclasses.replace() from carrying it across
    # databases
    _caller_row_cache: object = field(default=_UNSET, init=False,
                                      repr=False, compare=False)
    _caller_row_version: object = field(default=None, init=False,
                                        repr=False, compare=False)

    def database_for(self, query: "Query") -> Database:
        """Resolve the database a query handle runs against."""
        if query.database == "moira":
            return self.db
        try:
            return (self.extra_databases or {})[query.database]
        except KeyError:
            raise MoiraError(
                MR_NO_HANDLE, f"database {query.database!r}") from None

    @property
    def now(self) -> int:
        """Current virtual time."""
        return self.clock.now()

    # -- identity helpers -------------------------------------------------

    def caller_row(self) -> Optional[Row]:
        """The caller's users row, or None (memoised per data version).

        The access path used to re-select this row on every capability
        and ACE check; the memo is validated against the users table's
        data version, so it is exact even on a long-lived context that
        spans mutations.
        """
        if not self.caller:
            return None
        users = self.db.table("users")
        version = users.version
        if (self._caller_row_cache is not _UNSET
                and self._caller_row_version == version):
            return self._caller_row_cache  # type: ignore[return-value]
        rows = users.select({"login": self.caller})
        row = rows[0] if rows else None
        self._caller_row_cache = row
        self._caller_row_version = version
        return row

    def is_caller(self, login: str) -> bool:
        """Is *login* the authenticated caller?"""
        return bool(self.caller) and self.caller == login

    # -- capability ACLs (capacls relation) --------------------------------

    def on_capability(self, query_name: str) -> bool:
        """True if the caller is on the capability list for *query_name*.

        ``privileged`` contexts (the DCM and backup programs going
        through the direct glue library, which "does not use Kerberos
        authentication") and the root principal bypass ACL checks.
        """
        if self.privileged or self.caller == "root":
            return True
        if not self.caller:
            return False
        rows = self.db.table("capacls").select({"capability": query_name})
        if not rows:
            return False
        return self.user_on_list_id(rows[0]["list_id"], self.caller)

    def _login_users_id(self, login: str) -> Optional[int]:
        """users_id for *login* (via the caller-row memo when it is
        the caller being resolved), or None."""
        if self.caller and login == self.caller:
            row = self.caller_row()
            return None if row is None else row["users_id"]
        rows = self.db.table("users").select({"login": login})
        return rows[0]["users_id"] if rows else None

    def user_on_list_id(self, list_id: int, login: str) -> bool:
        """Recursive list membership check (sub-lists expanded).

        Answered from the membership-closure index when available —
        O(direct lists of the user) instead of a per-call graph walk —
        with the seed's recursive walk as the fallback, so the
        optimisation can never change an answer.
        """
        users_id = self._login_users_id(login)
        if users_id is None:
            return False
        closure = self.db.membership_closure()
        if closure is not None:
            try:
                return closure.contains(int(list_id), "USER", users_id)
            except Exception:
                pass  # fall back to the walk rather than fail the check
        return self._user_on_list_walk(int(list_id), users_id)

    def _user_on_list_walk(self, list_id: int, users_id: int) -> bool:
        """The seed's downward graph walk (closure fallback/oracle)."""
        seen: set[int] = set()
        stack = [int(list_id)]
        members = self.db.table("members")
        while stack:
            lid = stack.pop()
            if lid in seen:
                continue
            seen.add(lid)
            for row in members.select({"list_id": lid}):
                if row["member_type"] == "USER" and row["member_id"] == users_id:
                    return True
                if row["member_type"] == "LIST":
                    stack.append(int(row["member_id"]))
        return False

    def lists_containing(self, member_type: str, member_id: int) -> set[int]:
        """Every list_id transitively containing (member_type, member_id).

        The R-typed retrievals (``get_lists_of_member``,
        ``get_ace_use``) build on this; closure-indexed when available,
        upward walk otherwise.
        """
        closure = self.db.membership_closure()
        if closure is not None:
            try:
                return closure.lists_containing(member_type, int(member_id))
            except Exception:
                pass
        return self._lists_containing_walk(member_type, int(member_id))

    def _lists_containing_walk(self, member_type: str,
                               member_id: int) -> set[int]:
        """Upward breadth-first walk over ``members`` (closure oracle)."""
        members = self.db.table("members")
        found: set[int] = set()
        frontier = [m["list_id"] for m in members.select(
            {"member_type": member_type, "member_id": member_id})]
        while frontier:
            lid = frontier.pop()
            if lid in found:
                continue
            found.add(lid)
            frontier.extend(m["list_id"] for m in members.select(
                {"member_type": "LIST", "member_id": lid}))
        return found

    def caller_satisfies_ace(self, ace_type: str, ace_id: int) -> bool:
        """True if the caller matches an (acl_type, acl_id) entity."""
        if self.privileged or self.caller == "root":
            return True
        if not self.caller:
            return False
        if ace_type == "USER":
            row = self.caller_row()
            return row is not None and row["users_id"] == ace_id
        if ace_type == "LIST":
            return self.user_on_list_id(ace_id, self.caller)
        return False

    # -- type checking against the alias relation ---------------------------

    def check_type(self, type_name: str, value: str,
                   errcode: int = MR_TYPE) -> str:
        """Validate *value* as a legal TYPE alias for *type_name*.

        Returns the canonical (stored) spelling.  Raises *errcode* if the
        value is not registered — e.g. ``MR_BAD_CLASS`` for user classes.
        """
        alias = self.db.table("alias")
        for row in alias.select({"name": type_name, "type": "TYPE"}):
            if row["trans"].upper() == str(value).upper():
                return row["trans"]
        raise MoiraError(errcode, f"{type_name}={value!r}")

    # -- object resolution ---------------------------------------------------

    def find_user(self, login: str, *, errcode: int = MR_USER) -> Row:
        """Exactly one user by login, or raise."""
        rows = self.db.table("users").select({"login": login})
        return exactly_one(rows, errcode, f"user {login!r}")

    def find_machine(self, name: str) -> Row:
        """Exactly one machine by name, or raise."""
        rows = self.db.table("machine").select({"name": name.upper()})
        return exactly_one(rows, MR_MACHINE, f"machine {name!r}")

    def find_cluster(self, name: str) -> Row:
        """Exactly one cluster by name, or raise."""
        rows = self.db.table("cluster").select({"name": name})
        return exactly_one(rows, MR_CLUSTER, f"cluster {name!r}")

    def find_list(self, name: str) -> Row:
        """Exactly one list by name, or raise."""
        rows = self.db.table("list").select({"name": name})
        return exactly_one(rows, MR_LIST, f"list {name!r}")

    def resolve_ace(self, ace_type: str, ace_name: str) -> tuple[str, int]:
        """Resolve an access-control entity to (type, id).

        Types are USER, LIST, or NONE; MR_ACE on anything unresolvable.
        """
        ace_type = str(ace_type).upper()
        if ace_type == "NONE":
            return "NONE", 0
        if ace_type == "USER":
            rows = self.db.table("users").select({"login": ace_name})
            if len(rows) != 1:
                raise MoiraError(MR_ACE, f"user {ace_name!r}")
            return "USER", rows[0]["users_id"]
        if ace_type == "LIST":
            rows = self.db.table("list").select({"name": ace_name})
            if len(rows) != 1:
                raise MoiraError(MR_ACE, f"list {ace_name!r}")
            return "LIST", rows[0]["list_id"]
        raise MoiraError(MR_ACE, f"type {ace_type!r}")

    def ace_name(self, ace_type: str, ace_id: int) -> str:
        """Inverse of resolve_ace, for query return values."""
        if ace_type == "USER":
            rows = self.db.table("users").select({"users_id": ace_id})
            return rows[0]["login"] if rows else "???"
        if ace_type == "LIST":
            rows = self.db.table("list").select({"list_id": ace_id})
            return rows[0]["name"] if rows else "???"
        return "NONE"

    # -- string interning (the strings relation) -----------------------------

    def intern_string(self, text: str) -> int:
        """The string_id for *text*, creating it if new (the backend
        serialises the strings heap and records replay bindings)."""
        return self.db.intern_string(text, now=self.now)

    def string_by_id(self, string_id: int) -> str:
        """The text for a string_id."""
        rows = self.db.table("strings").select({"string_id": string_id})
        return rows[0]["string"] if rows else "???"

    # -- audit fields ---------------------------------------------------------

    def audit(self, prefix: str = "") -> dict:
        """modtime/modby/modwith triple (optionally prefixed: f..., p...)."""
        return {
            f"{prefix}modtime": self.now,
            f"{prefix}modby": self.caller or "unauthenticated",
            f"{prefix}modwith": self.client,
        }

    # -- boolean tri-state for qualified_get_* --------------------------------

    def tristate(self, value: str) -> Optional[bool]:
        """Parse TRUE/FALSE/DONTCARE to bool/None."""
        v = str(value).upper()
        if v == "TRUE":
            return True
        if v == "FALSE":
            return False
        if v == "DONTCARE":
            return None
        raise MoiraError(MR_TYPE, f"expected TRUE/FALSE/DONTCARE, got {value!r}")


def exactly_one(rows: list[Row], errcode: int, what: str) -> Row:
    """The paper's "must match exactly one" rule.

    No match raises *errcode* ("No such user" / "Unknown machine"...);
    more than one raises MR_NOT_UNIQUE.
    """
    if not rows:
        raise MoiraError(errcode, what)
    if len(rows) > 1:
        raise MoiraError(MR_NOT_UNIQUE, what)
    return rows[0]


def no_wildcards(value: str) -> str:
    """Reject wildcard characters where the paper forbids them."""
    if WildcardPattern.is_wild(value):
        raise MoiraError(MR_WILDCARD, value)
    return value


def register(
    name: str,
    shortname: str,
    args: Sequence[str],
    returns: Sequence[str],
    *,
    side_effects: bool,
    access: Optional[AccessCheck] = None,
    public: bool = False,
    database: str = "moira",
    tables: Optional[object] = None,
) -> Callable[[Handler], Handler]:
    """Decorator registering a predefined query."""

    def wrap(handler: Handler) -> Handler:
        """Register *handler* and return it unchanged."""
        if name in _REGISTRY:
            raise ValueError(f"duplicate query {name}")
        if shortname in _BY_SHORT:
            raise ValueError(f"duplicate short name {shortname}")
        query = Query(
            name=name,
            shortname=shortname,
            args=tuple(args),
            returns=tuple(returns),
            handler=handler,
            side_effects=side_effects,
            check_access=access,
            public=public,
            database=database,
            tables=tuple(tables) if isinstance(tables, (list, tuple, set))
            else tables,
        )
        _REGISTRY[name] = query
        _BY_SHORT[shortname] = query
        return handler

    return wrap


def unregister(name: str) -> None:
    """Remove a query handle (supports tests and site extensions)."""
    query = _REGISTRY.pop(name, None)
    if query is not None:
        _BY_SHORT.pop(query.shortname, None)


def get_query(name: str) -> Optional[Query]:
    """Look up a query by long or short name."""
    return _REGISTRY.get(name) or _BY_SHORT.get(name)


def all_queries() -> dict[str, Query]:
    """The registry, keyed by long name."""
    return dict(_REGISTRY)


def check_query_access(ctx: QueryContext, query: Query,
                       args: Sequence[str]) -> None:
    """Raise MR_PERM unless the caller may execute *query* with *args*.

    Policy, per §5.5 and §7: public retrieval queries are open; a query
    whose per-query relaxation (``check_access``) grants access is
    allowed; otherwise the caller must be on the capability ACL.
    """
    if query.public and not query.side_effects:
        return
    if ctx.on_capability(query.name):
        return
    if query.check_access is not None and query.check_access(ctx, args):
        return
    raise MoiraError(MR_PERM, query.name)


def check_argc(query: Query, args: Sequence[str]) -> None:
    """Raise MR_ARGS unless *args* fits the handle's signature.

    Runs before any access relaxation: those index ``args`` and must
    never see a short list.
    """
    if not query.variable_args and len(args) != len(query.args):
        raise MoiraError(
            MR_ARGS, f"{query.name} wants {len(query.args)}, got {len(args)}"
        )


def run_read(ctx: QueryContext, query: Query, args: Sequence[str],
             timing: Optional[dict] = None) -> Iterator[tuple]:
    """Run a retrieval on one consistent committed cut, yielding tuples.

    The handler sees the backend's ``read_view()`` as its database.  A
    ``list`` result releases the view *before* it is streamed; a lazy
    result streams under it, and closing this generator early
    (``GeneratorExit``) releases it too.  No rows is ``MR_NO_MATCH``.
    *timing*, when given, receives the view's ``read_stats()``.
    """
    with ctx.db.read_view() as view:
        try:
            result = query.handler(_replace(ctx, db=view), args)
            if not isinstance(result, list):
                iterator = iter(result)
                try:
                    first = next(iterator)
                except StopIteration:
                    raise MoiraError(MR_NO_MATCH, query.name) from None
                yield first
                yield from iterator
                return
        finally:
            if timing is not None:
                timing.update(view.read_stats())
    if not result:
        raise MoiraError(MR_NO_MATCH, query.name)
    yield from result


def run_write(ctx: QueryContext, query: Query, args: Sequence[str], *,
              shards=None, fsync: bool = True) -> tuple[list, set]:
    """Run a mutation as one backend transaction and journal it.

    Returns ``(result tuples, names of tables whose data version
    moved)``.  The journal append happens inside ``write_txn``'s commit
    hook — before the writer locks drop, in commit-seq order — and is
    the only place an entry is built: query name + stringified args on
    commit; on an abort that consumed id/string bindings (which survive
    the rollback), an ``_aborted`` marker carrying them.  *shards*
    narrows writer exclusion (None = every shard); ``fsync=False``
    leaves durability to the caller's one ``journal.sync()``.
    """
    record = record_abort = None
    if ctx.journal is not None:
        journal = ctx.journal

        def record(txn, name=query.name, entry_args=args):
            journal.record(ctx.now, ctx.caller or "unauthenticated", name,
                           tuple(str(a) for a in entry_args),
                           client=ctx.client, commit_seq=txn.seq,
                           bindings=txn.bindings, fsync=fsync)

        def record_abort(txn):
            if txn.bindings:
                record(txn, "_aborted", ())

    with ctx.db.write_txn(shards, commit_hook=record,
                          abort_hook=record_abort) as txn:
        result = query.handler(ctx, args)
        if not isinstance(result, list):
            result = list(result)
    return result, txn.mutated


def execute_query(ctx: QueryContext, name: str,
                  args: Sequence[str]) -> list[tuple]:
    """Resolve, validate, access-check, run, and journal one query."""
    query = get_query(name)
    if query is None:
        raise MoiraError(MR_NO_HANDLE, name)
    check_argc(query, args)
    check_query_access(ctx, query, args)
    target_db = ctx.database_for(query)
    if target_db is not ctx.db:
        # §5.1 D: "the application merely passes a query handle to a
        # function, which then resolves the database and query"
        ctx = _replace(ctx, db=target_db)
    if query.side_effects:
        result, _ = run_write(ctx, query, args)
        # version GC takes every shard, so it runs here, with none held
        ctx.db.gc_if_due()
        return result
    return list(run_read(ctx, query, args))
