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
    Performs the query, returning result tuples of text (built by a
    :class:`Reply`) for retrievals or ``[]`` for mutations.  Raises
    :class:`MoiraError` on any failure.

Each argument is declared with a type (:class:`Int`, :class:`Name`...);
the executors parse a call's arguments through them once, after the
argc and access checks, and hand the parsed tuple to the handler.

Side-effecting queries are journaled on success.  Retrieval queries that
produce no rows raise ``MR_NO_MATCH`` exactly as the paper specifies.

Every handler call in the system is made by one of two executors here —
:func:`run_read` (on a backend ``read_view()``) and :func:`run_write`
(inside a backend ``write_txn()``, which is also the one place a
journal entry is built).  The server, the direct library, WAL replay
and replica apply all go through them (DESIGN.md §17).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace as _replace
from itertools import chain, islice
from typing import (Any, Callable, Iterable, Iterator, Optional, Sequence,
                    Union)

from repro.db.engine import Database, Row, WildcardPattern
from repro.db.schema import ACE_TARGETS, KEYS, MEMBER_TARGETS, referencing
from repro.db.journal import Journal
from repro.protocol.wire import str_row
from repro.errors import (
    MoiraError,
    MR_ACE,
    MR_ARGS,
    MR_CLUSTER,
    MR_IN_USE,
    MR_INTEGER,
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
    "Text", "Int", "Bool01", "Name", "Upper", "Alias", "Tristate", "OneOf",
    "Reply", "Join", "name_of", "ace", "MACHINE_NAME",
    "check_argc",
    "run_read",
    "run_write",
]

_REGISTRY: dict[str, "Query"] = {}
_BY_SHORT: dict[str, "Query"] = {}

# most tuples in one run of a retrieval's reply stream
RUN_ROWS = 256

Handler = Callable[["QueryContext", Sequence[str]], list[tuple]]
AccessCheck = Callable[["QueryContext", Sequence[str]], bool]


# -- declared argument types -------------------------------------------------
# Each names one argument of a register() call; ``parse(ctx, value)``
# returns what the handler sees, or raises the paper's error code.


@dataclass(frozen=True)
class Text:
    """Free text (or a wildcard pattern), handed over as given."""
    name: str

    def parse(self, ctx: "QueryContext", value: str) -> Any:
        return value

    def kind(self) -> str:        # as docs/QUERIES.md shows the type
        return type(self).__name__


@dataclass(frozen=True)
class Int(Text):
    """An integer a backend column stores (``MR_INTEGER`` otherwise).
    *bool01*: a flag, stored as ``1 if value else 0`` (:func:`Bool01`)."""
    bool01: bool = False

    def parse(self, ctx: "QueryContext", value: str) -> int:
        try:
            if -(1 << 63) <= (number := int(value)) < 1 << 63:
                return (1 if number else 0) if self.bool01 else number
        except ValueError:
            pass
        raise MoiraError(MR_INTEGER, f"{self.name}={value!r}")

    def kind(self) -> str:
        return "Bool01" if self.bool01 else "Int"


def Bool01(name: str) -> Int:
    """A 0/1 flag: an :class:`Int` (a malformed value is still
    ``MR_INTEGER``) stored as ``1 if value else 0``, so an exact
    ``where`` on the column finds every row the flag is set on.  It is
    an ``Int``, not a subclass of it: code that tells argument types
    apart by ``type(spec)`` treats a flag as the integer it is."""
    return Int(name, bool01=True)


@dataclass(frozen=True)
class Name(Text):
    """A name being created or renamed: a wildcard in it would poison
    every later exact-match lookup (``MR_WILDCARD``).  ``UNIQUE_LOGIN``
    (``#``) is not one.  *upper*: stored upper case (machine names)."""
    upper: bool = False

    def parse(self, ctx: "QueryContext", value: str) -> str:
        if WildcardPattern.is_wild(value):
            raise MoiraError(MR_WILDCARD, value)
        return value.upper() if self.upper else value

    def kind(self) -> str:
        return "Name(upper)" if self.upper else "Name"


@dataclass(frozen=True)
class Upper(Text):
    """A machine or service name or pattern, upper-cased."""

    def parse(self, ctx: "QueryContext", value: str) -> str:
        return value.upper()


@dataclass(frozen=True)
class Alias(Text):
    """A TYPE alias registered for *of* (default: the argument's name),
    parsed to its stored spelling; *errcode* otherwise."""
    of: str = ""
    errcode: int = MR_TYPE

    def parse(self, ctx: "QueryContext", value: str) -> str:
        for row in ctx.db.table("alias").select(
                {"name": self.of or self.name, "type": "TYPE"}):
            if row["trans"].upper() == value.upper():
                return row["trans"]
        raise MoiraError(self.errcode, f"{self.of or self.name}={value!r}")

    def kind(self) -> str:
        return f"Alias({self.of or self.name})"


@dataclass(frozen=True)
class Tristate(Text):
    """TRUE / FALSE / DONTCARE, parsed to True / False / None."""
    words = {"TRUE": True, "FALSE": False, "DONTCARE": None}

    def parse(self, ctx: "QueryContext", value: str) -> Optional[bool]:
        if value.upper() not in self.words:
            raise MoiraError(MR_TYPE, f"{self.name}={value!r}")
        return self.words[value.upper()]

    @staticmethod
    def where(flags: Sequence[str],
              wants: Sequence[Optional[bool]]) -> dict:
        """The exact ``where`` on :func:`Bool01` columns *flags*: each
        whose parsed value is not DONTCARE, as 1 or 0."""
        return {flag: 1 if want else 0
                for flag, want in zip(flags, wants) if want is not None}

    @staticmethod
    def matcher(flags: Sequence[str], wants: Sequence[Optional[bool]]):
        """The qualified_get_server* row predicate, for flags not
        stored 0/1: each of *flags* whose parsed value is not DONTCARE
        holds as wanted."""
        wanted = [(flag, want) for flag, want in zip(flags, wants)
                  if want is not None]

        def matches(row) -> bool:
            for flag, want in wanted:
                if bool(row[flag]) != want:
                    return False
            return True
        return matches


@dataclass(frozen=True)
class OneOf(Text):
    """One of *choices* in any case, parsed upper case; *errcode*
    otherwise.  *recursive* admits each choice ``R``-prefixed too and
    parses to ``(choice, is_recursive)``."""
    choices: tuple[str, ...] = ()
    errcode: int = MR_TYPE
    recursive: bool = False

    def parse(self, ctx: "QueryContext", value: str) -> Any:
        value = value.upper()
        if value in self.choices:
            return (value, False) if self.recursive else value
        if self.recursive and value[:1] == "R" and value[1:] in self.choices:
            return value[1:], True
        raise MoiraError(self.errcode, value)

    def kind(self) -> str:
        forms = (f"{c}/R{c}" if self.recursive else c for c in self.choices)
        return f"OneOf({'/'.join(forms)})"


ACE_TYPES = tuple(ACE_TARGETS)


def keyword(value: str, *words: str) -> bool:
    """Is *value* one of the upper-case *words*, in any case?  For the
    access relaxations: they run on the caller's strings, unparsed."""
    return str(value).upper() in words


@dataclass
class Query:
    """One predefined query: metadata + handler + access policy."""
    name: str
    shortname: str
    specs: tuple[Text, ...]        # one declared type per argument
    returns: tuple[str, ...]
    handler: Handler
    side_effects: bool
    check_access: Optional[AccessCheck] = None
    public: bool = False           # "safe for the ACL to be everybody"
    repeat: int = 0    # the last ``repeat`` args may recur, whole groups
    # §5.1 D: "the ultimate capability of Moira supporting multiple
    # databases through the same query mechanism" — each handle names
    # the database it resolves against; "moira" is the primary.
    database: str = "moira"
    args: tuple[str, ...] = field(init=False)      # the specs' names

    def __post_init__(self) -> None:
        self.args = tuple(spec.name for spec in self.specs)

    def parse(self, ctx: "QueryContext", args: Sequence[str]) -> tuple:
        """*args* through the declared types, the last ``repeat``
        recurring in whole groups."""
        specs = self.specs
        if self.repeat:
            specs += specs[-self.repeat:] * (
                (len(args) - len(specs)) // self.repeat)
        return tuple(spec.parse(ctx, value)
                     for spec, value in zip(specs, args))

    def help_text(self) -> str:
        """The _help line for this query."""
        args = ", ".join(self.args) or "none"
        rets = ", ".join(self.returns) or "none"
        return f"{self.name} ({self.shortname}): args: {args}; returns: {rets}"


_UNSET = object()  # caller-row memo sentinel (None is a valid cached miss)
# entity type -> (table, name column, id column), from the schema
_NAMED_BY = {"users": "login", "list": "name", "strings": "string"}
_ENTITIES = {etype: (table, _NAMED_BY[table], key)
             for etype, (table, key) in MEMBER_TARGETS.items()}


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

    # -- object resolution ---------------------------------------------------

    def find_user(self, login: str, *, errcode: int = MR_USER) -> Row:
        """Exactly one user by login, or raise."""
        rows = self.db.table("users").select({"login": login})
        return exactly_one(rows, errcode, f"user {login!r}")

    def find_machine(self, name: str) -> Row:
        """Exactly one machine by (upper-case) name, or raise."""
        rows = self.db.table("machine").select({"name": name})
        return exactly_one(rows, MR_MACHINE, f"machine {name!r}")

    def find_cluster(self, name: str) -> Row:
        """Exactly one cluster by name, or raise."""
        rows = self.db.table("cluster").select({"name": name})
        return exactly_one(rows, MR_CLUSTER, f"cluster {name!r}")

    def find_list(self, name: str) -> Row:
        """Exactly one list by name, or raise."""
        rows = self.db.table("list").select({"name": name})
        return exactly_one(rows, MR_LIST, f"list {name!r}")

    def entity_id(self, etype: str, name: str, errcode: int) -> int:
        """The id of a USER (by login), LIST (by name) or STRING
        (interned) entity; *errcode* unless exactly one matches."""
        if etype == "STRING":
            return self.intern_string(name)
        table, key, id_column = _ENTITIES[etype]
        rows = self.db.table(table).select({key: name})
        if len(rows) != 1:
            raise MoiraError(errcode, f"{etype.lower()} {name!r}")
        return rows[0][id_column]

    def resolve_ace(self, ace_type: str, ace_name: str) -> tuple[str, int]:
        """An access-control entity (its type declared
        ``OneOf(ACE_TYPES)``) as (type, id); MR_ACE if it names none."""
        if ace_type == "NONE":
            return "NONE", 0
        return ace_type, self.entity_id(ace_type, ace_name, MR_ACE)

    def ace_names(self) -> Callable[[str, int], str]:
        """Inverse of :meth:`entity_id` / :meth:`resolve_ace` for one
        scan's replies: ``(type, id) ->`` the ACE's or list member's
        name, ``"???"`` for an unknown id, ``"NONE"`` for another type.
        Each type's relation is joined through one :meth:`lookup`."""
        lookups: dict = {}

        def name(ace_type: str, ace_id: int) -> str:
            get = lookups.get(ace_type)
            if get is None:
                if ace_type not in _ENTITIES:
                    return "NONE"
                table, key, id_column = _ENTITIES[ace_type]
                get = lookups[ace_type] = self.lookup(table, id_column, key)
            return get(ace_id)
        return name

    def delete(self, table: str, row: Row, name: str) -> None:
        """Delete *row* of *table* as the schema's ``REFERENCES`` say:
        ``MR_IN_USE`` (for *name*) while a ``refuse`` row other than
        itself names it, else with the ``cascade`` rows naming it."""
        key = KEYS[table]
        cascade = []
        for ref, rows in referencing(self.db, table, row[key]):
            if ref.on_delete == "cascade":
                cascade.append((ref.table, rows))
            elif any(ref.table != table or r[key] != row[key]
                     for r in rows):
                raise MoiraError(MR_IN_USE,
                                 f"{name}: named by {ref.table}.{ref.column}")
        for referrer, rows in cascade:
            self.db.table(referrer).delete_rows(rows, now=self.now)
        self.db.table(table).delete_rows([row], now=self.now)

    # -- string interning (the strings relation) -----------------------------

    def intern_string(self, text: str) -> int:
        """The string_id for *text*, creating it if new."""
        return self.db.intern_string(text, now=self.now)

    def lookup(self, table: str, key: str,
               column: str) -> Callable[[object], object]:
        """A join for one scan: ``value -> row[column]`` of the *table*
        row whose *key* equals *value*, ``"???"`` when there is none
        (``StorageTable.join``: on a snapshot, a dict hit while the
        relation is unchanged)."""
        return self.db.table(table).join(key, column)

    # -- audit fields ---------------------------------------------------------

    def audit(self, prefix: str = "") -> dict:
        """modtime/modby/modwith triple (optionally prefixed: f..., p...)."""
        return {
            f"{prefix}modtime": self.now,
            f"{prefix}modby": self.caller or "unauthenticated",
            f"{prefix}modwith": self.client,
        }


# -- reply tuples -------------------------------------------------------------
# The paper's server answers a retrieval with tuples of strings.  Each
# handler declares its reply once and builds its rows as text, so no
# layer after it converts a field.


@dataclass(frozen=True)
class Join:
    """A reply field read through other relations: ``make(ctx)``,
    called once per scan, returns a function of this row's *columns*
    giving the field's text."""
    columns: tuple[str, ...]
    make: Callable[["QueryContext"], Callable[..., str]]


def name_of(column: str, table: str, key: str, name: str = "name") -> Join:
    """The *name* of the *table* row whose *key* is this row's
    *column* (:meth:`QueryContext.lookup`)."""
    return Join((column,), lambda ctx: ctx.lookup(table, key, name))


# the name of the machine a row's mach_id names
MACHINE_NAME = name_of("mach_id", "machine", "mach_id")


def ace(type_column: str = "acl_type", id_column: str = "acl_id") -> Join:
    """The name of the entity this row's (*type_column*, *id_column*)
    names (:meth:`QueryContext.ace_names`)."""
    return Join((type_column, id_column), lambda ctx: ctx.ace_names())


class Reply:
    """A retrieval's reply tuple: each of *fields* a column of *table*,
    or a :class:`Join`.  :meth:`texts` maps rows to their tuples of
    text, calling ``str()`` only on a column the schema does not
    declare ``str``."""

    def __init__(self, table: str, fields: Sequence[Union[str, Join]]):
        self.table = table
        self.fields = tuple(fields)
        self._columns = [f for f in self.fields if not isinstance(f, Join)]
        self._joins = [f for f in self.fields if isinstance(f, Join)]
        self._build: Optional[Callable] = None  # compiled at first use

    def texts(self, ctx: "QueryContext",
              rows: Iterable[Row]) -> Iterator[tuple[str, ...]]:
        """The reply tuple of each of *rows*, as the rows come."""
        build = self._build
        if build is None:
            # every backend takes its column kinds from the one schema
            columns = ctx.db.table(self.table).columns
            build = self._build = self._compile(
                tuple(columns[name].kind for name in self._columns))
        if self._joins:
            build = build(*[join.make(ctx) for join in self._joins])
        return map(build, rows)

    def _compile(self, kinds: tuple) -> Callable:
        """``row -> tuple``, or ``(*joins) -> (row -> tuple)`` when the
        reply has joins: one generated expression per row, as
        ``collections.namedtuple`` generates its methods."""
        kind_of = iter(kinds)
        parts, joins = [], []
        for field in self.fields:
            if isinstance(field, Join):
                joins.append(f"j{len(joins)}")
                parts.append(f"{joins[-1]}("
                             + ", ".join(f"r[{c!r}]" for c in field.columns)
                             + ")")
            elif next(kind_of) is str:
                parts.append(f"r[{field!r}]")
            else:
                parts.append(f"str(r[{field!r}])")
        row = f"lambda r: ({', '.join(parts)},)"
        return eval(f"lambda {', '.join(joins)}: {row}" if joins else row,
                    {"str": str})


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


def register(
    name: str,
    shortname: str,
    args: Sequence[Union[str, Text]],
    returns: Sequence[str],
    *,
    side_effects: bool,
    access: Optional[AccessCheck] = None,
    public: bool = False,
    database: str = "moira",
    repeat: int = 0,
) -> Callable[[Handler], Handler]:
    """Decorator registering a predefined query; each of *args* is a
    declared type, or a bare name for :class:`Text`."""

    def wrap(handler: Handler) -> Handler:
        """Register *handler* and return it unchanged."""
        if name in _REGISTRY:
            raise ValueError(f"duplicate query {name}")
        if shortname in _BY_SHORT:
            raise ValueError(f"duplicate short name {shortname}")
        query = Query(
            name=name,
            shortname=shortname,
            specs=tuple(Text(a) if isinstance(a, str) else a
                        for a in args),
            returns=tuple(returns),
            handler=handler,
            side_effects=side_effects,
            check_access=access,
            public=public,
            database=database,
            repeat=repeat,
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
                       args: Sequence[str]) -> str:
    """Raise MR_PERM unless the caller may execute *query* with *args*.

    Policy, per §5.5 and §7: public retrieval queries are open; a
    caller on the query's capability ACL is allowed; otherwise the
    query's per-query relaxation (``check_access``) must grant access.
    Returns the rule that granted: ``"public"`` or ``"capability"``,
    which read no argument, or ``"relaxation"``, which does.
    """
    if query.public and not query.side_effects:
        return "public"
    if ctx.on_capability(query.name):
        return "capability"
    if query.check_access is not None and query.check_access(ctx, args):
        return "relaxation"
    raise MoiraError(MR_PERM, query.name)


def check_argc(query: Query, args: Sequence[str]) -> None:
    """Raise MR_ARGS unless *args* fits the handle's signature (and,
    with ``repeat``, whole further groups of its last ``repeat`` args).

    Runs before any access relaxation: those index ``args`` and must
    never see a short list.
    """
    extra = len(args) - len(query.args)
    if extra < 0 or (extra % query.repeat if query.repeat else extra):
        raise MoiraError(
            MR_ARGS, f"{query.name} wants {len(query.args)}, got {len(args)}"
        )


def run_read(ctx: QueryContext, query: Query, args: Sequence[str],
             timing: Optional[dict] = None) -> Iterator[list]:
    """Run a retrieval on one consistent committed cut, yielding runs
    (lists) of at most ``RUN_ROWS`` tuples — a caller framing a run at
    a time holds one run of reply bytes, however large the result.
    The handler builds its tuples as text (:class:`Reply`); nothing
    here converts them.

    The handler sees the backend's ``read_view()`` as its database.  A
    ``list`` result releases the view *before* it is streamed; a lazy
    result streams under it, and closing this generator early
    (``GeneratorExit``) releases it too.  No rows is ``MR_NO_MATCH``.
    *timing*, when given, receives the view's ``read_stats()``.  The
    handler gets the arguments parsed through the query's declared types.
    """
    with ctx.db.read_view() as view:
        try:
            ctx = _replace(ctx, db=view)
            result = query.handler(ctx, query.parse(ctx, args))
            if not isinstance(result, list):
                iterator = iter(result)
                run = list(islice(iterator, RUN_ROWS))
                if not run:
                    raise MoiraError(MR_NO_MATCH, query.name)
                while run:
                    yield run
                    run = list(islice(iterator, RUN_ROWS))
                return
        finally:
            if timing is not None:
                timing.update(view.read_stats())
    if not result:
        raise MoiraError(MR_NO_MATCH, query.name)
    for start in range(0, len(result), RUN_ROWS):
        yield result[start:start + RUN_ROWS]


def run_write(ctx: QueryContext, query: Query, args: Sequence[str], *,
              fsync: bool = True,
              timing: Optional[dict] = None) -> tuple[list, dict]:
    """Run a mutation as one backend transaction and journal it.

    Returns ``(result tuples as text, table -> columns whose data
    version moved)``.  The journal append happens inside
    ``write_txn``'s commit hook — before the writer locks drop, in
    commit-seq order — and is the only place an entry is built:
    query name + stringified args
    and the transaction's ``mutated`` as the entry's ``changed``.  A
    write that raises rolls back whole — its ids and strings too — and
    journals nothing.
    ``fsync=False`` leaves durability to the caller's one
    ``journal.sync()``.  A fenced journal refuses the write with
    ``MR_FENCED`` before its handler runs, whichever way it is made
    durable.  *timing*, when given, receives ``lock_wait_s``.  The
    handler gets the arguments parsed through the query's declared
    types, inside the transaction; the journal keeps the caller's.
    """
    record = None
    if ctx.journal is not None:
        journal = ctx.journal
        journal.refuse_if_fenced()

        def record(txn):
            journal.record(ctx.now, ctx.caller or "unauthenticated",
                           query.name, tuple(str(a) for a in args),
                           client=ctx.client, commit_seq=txn.seq,
                           changed=txn.mutated, fsync=fsync)

    waited = time.perf_counter()
    with ctx.db.write_txn(commit_hook=record) as txn:
        if timing is not None:
            timing["lock_wait_s"] = time.perf_counter() - waited
        result = query.handler(ctx, query.parse(ctx, args))
        result = list(map(str_row, result))
    return result, txn.mutated


def execute_query(ctx: QueryContext, name: str, args: Sequence[str], *,
                  fsync: bool = True) -> list[tuple]:
    """Resolve, validate, access-check, run, and journal one query;
    ``fsync=False`` is :func:`run_write`'s (a read ignores it)."""
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
        result, _ = run_write(ctx, query, args, fsync=fsync)
        ctx.db.gc_if_due()
        return result
    return list(chain.from_iterable(run_read(ctx, query, args)))
