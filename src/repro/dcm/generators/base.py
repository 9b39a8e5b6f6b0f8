"""Generator plumbing and the shared data-extraction snapshot.

Generators run on the Moira host with direct database access — the
paper's DCM uses the direct "glue" library precisely because extraction
touches most of the database and must not clog the server.  The
:class:`GenContext` builds the cross-relation maps every generator
needs (active users, group membership closures, machine names) once per
DCM cycle; ``for_service`` hands each generator a view carrying its own
serverhosts rows while sharing the cycle's memoised extracts, so the
five generators never re-derive the same map.

Each generator declares, per output, which columns of which relation it
reads (``reads``); its input relations (``depends``) follow.  The DCM
compares the per-table data versions of those relations (an exact
version vector, see ``Database.versions()``) instead of scanning
modtimes, drops changed-row-log entries that touch no column the
generator reads, and generators may implement ``generate_incremental``
to patch a previous :class:`GeneratorResult` from what is left: an
output the changes do not reach keeps its bytes, a :class:`Keyed`
output re-renders only the lines whose rows moved, anything else is
rebuilt.  A change in a lookup relation (``machine``) reaches an output
only when an index probe finds a row of it naming the changed one.  A
patch records the byte splices it made, and a result assembled from
patched parts (:meth:`GeneratorResult.from_parts`) carries them per
file as a :class:`FileDelta` — what a host holding the previous
generation is sent instead of the whole file.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable, Optional

from repro.db.engine import Database, Row, TableChange
from repro.db.schema import USER_STATE_ACTIVE
from repro.hosts.update_daemon import FileDelta, Splice, checksum, splice

__all__ = [
    "GenContext",
    "Generator",
    "GeneratorResult",
    "Keyed",
    "changed_rows",
    "users_keyed",
    "register_generator",
    "get_generator",
    "all_generators",
]

_GENERATORS: dict[str, "Generator"] = {}


@dataclass
class GeneratorResult:
    """Files produced by one generator run.

    ``files`` go to every host of the service; ``host_files`` adds or
    overrides per-machine content (NFS partitions differ per server;
    a serverhost's value3 selects a restricted credentials file).
    ``meta`` is scratch space for incremental generators (each
    output's bytes and sorted keys) — it never reaches a host.
    ``deltas`` holds, for a file of ``files`` patched from the previous
    generation, the splices that made it, named by both versions'
    SHA-256 (:meth:`digest`, computed at most once per file).
    """

    files: dict[str, bytes] = field(default_factory=dict)
    host_files: dict[str, dict[str, bytes]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict, repr=False, compare=False)
    deltas: dict[str, FileDelta] = field(default_factory=dict, repr=False,
                                         compare=False)
    _digests: dict[str, str] = field(default_factory=dict, repr=False,
                                     compare=False)

    @classmethod
    def from_parts(cls, layout: dict[str, tuple], parts: dict, meta: dict,
                   previous: Optional["GeneratorResult"] = None
                   ) -> "GeneratorResult":
        """The result whose file *path* is ``layout[path]`` joined: the
        named outputs of :meth:`Generator.build_parts` and literal
        bytes.  Against *previous* (what the parts were patched from) a
        file whose parts all kept their bytes keeps its bytes and
        digest, and one whose changed parts were all patched gets a
        :class:`FileDelta`: each part's splices shifted by the part's
        offset in the previous file."""
        result = cls(meta=meta)
        old_parts = previous.meta.get("parts", {}) if previous else {}
        cuts = meta.get("splices", {})
        for path, pieces in layout.items():
            named = [isinstance(piece, str) for piece in pieces]
            news = [parts[p] if n else p for p, n in zip(pieces, named)]
            olds = [old_parts.get(p) if n else p
                    for p, n in zip(pieces, named)]
            old_file = previous.files.get(path) if previous else None
            if old_file is not None and all(
                    new is old for new, old in zip(news, olds)):
                result.files[path] = old_file
                if path in previous._digests:
                    result._digests[path] = previous._digests[path]
                continue
            result.files[path] = news[0] if len(news) == 1 \
                else b"".join(news)
            if old_file is None or None in olds:
                continue
            splices: list[Splice] = []
            at = 0
            for piece, new, old in zip(pieces, news, olds):
                if new is not old and new != old:
                    if piece not in cuts:
                        break       # rebuilt whole: no delta
                    splices += [(at + start, at + end, data)
                                for start, end, data in cuts[piece]]
                at += len(old)
            else:
                if splices:
                    result.deltas[path] = FileDelta(
                        previous.digest(path), result.digest(path),
                        tuple(splices))
        return result

    def digest(self, path: str) -> str:
        """SHA-256 of ``files[path]``, memoised."""
        try:
            return self._digests[path]
        except KeyError:
            value = self._digests[path] = checksum(self.files[path])
            return value

    def payload_for(self, machine: str) -> dict[str, bytes]:
        """The files one machine should receive."""
        merged = dict(self.files)
        merged.update(self.host_files.get(machine.upper(), {}))
        return merged

    def payload_key(self, machine: str) -> str:
        """Cache key for a machine's payload: machines without per-host
        overrides all share the ``*`` payload (the paper's "prepare only
        one set of files and then ... propagate to several targets")."""
        upper = machine.upper()
        return upper if upper in self.host_files else "*"

    def delta_for(self, machine: str,
                  previous: Optional["GeneratorResult"]
                  ) -> dict[str, bytes | FileDelta]:
        """What *machine*, holding *previous*, must receive to hold this
        result — the push payload of a host at the ``dfgen`` generation.

        Install scripts stage and install members individually, so a
        payload carrying only the changed files leaves the rest of the
        host's tree intact.  A changed file this result patched from
        *previous*'s shared bytes travels as its :class:`FileDelta`; any
        other changed file whole.  With no *previous* the full payload
        is the delta.  Deleted files cannot be expressed (the update
        protocol only installs members); generators keep file *sets*
        stable across runs, so a vanished name only happens on a
        service redefinition — callers fall back to a full push if
        they care.
        """
        mine = self.payload_for(machine)
        if previous is None:
            return mine
        old = previous.payload_for(machine)
        out: dict[str, bytes | FileDelta] = {}
        for name, data in mine.items():
            was = old.get(name)
            if was is data or was == data:
                continue
            delta = self.deltas.get(name)
            if (delta is not None and data is self.files[name]
                    and was is previous.files.get(name)
                    and previous.digest(name) == delta.base):
                out[name] = delta
            else:
                out[name] = data
        return out

    def total_bytes(self) -> int:
        """Total size of every produced file."""
        total = sum(len(v) for v in self.files.values())
        for extra in self.host_files.values():
            total += sum(len(v) for v in extra.values())
        return total

    def file_count(self) -> int:
        """Number of files produced (per-host files counted)."""
        return len(self.files) + sum(len(v)
                                     for v in self.host_files.values())


class GenContext:
    """One DCM cycle's view of the database, with memoised extracts.

    Views created with :meth:`for_service` share one memo dictionary,
    so whichever generator first touches ``active_users`` (or any other
    cross-relation map) pays for it exactly once per cycle.
    """

    def __init__(self, db: Database, now: int,
                 hosts: Optional[list[Row]] = None,
                 _memo: Optional[dict] = None):
        self.db = db
        self.now = now
        # serverhosts rows for the service being generated (value1..3)
        self.hosts = hosts or []
        self._memo = _memo if _memo is not None else {}

    def for_service(self, hosts: Optional[list[Row]]) -> "GenContext":
        """A per-service view sharing this cycle's memoised extracts."""
        return GenContext(self.db, self.now, hosts=hosts,
                          _memo=self._memo)

    def _memoised(self, key: str, build):
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    @property
    def versions(self) -> dict[str, int]:
        """The database's data-version vector, read once per snapshot —
        the DCM reads it before any extract, so a change landing
        mid-cycle is re-detected by the next one."""
        return self._memoised("versions", self.db.versions)

    # -- memoised cross-relation maps ------------------------------------------

    @property
    def active_users(self) -> list[Row]:
        """Users with status 1, memoised."""
        return self._memoised(
            "active_users",
            lambda: self.db.table("users").select(
                {"status": USER_STATE_ACTIVE}))

    @property
    def users_by_id(self) -> dict[int, Row]:
        """users_id -> user row, memoised."""
        return self._memoised(
            "users_by_id",
            lambda: {u["users_id"]: u
                     for u in self.db.table("users").rows})

    @property
    def machine_names(self) -> dict[int, str]:
        """mach_id -> canonical name, memoised."""
        return self._memoised(
            "machine_names",
            lambda: {m["mach_id"]: m["name"]
                     for m in self.db.table("machine").rows})

    @property
    def active_groups(self) -> list[Row]:
        """Active unix-group lists, memoised."""
        return self._memoised(
            "active_groups",
            lambda: self.db.table("list").select(
                predicate=lambda r: r["grouplist"] and r["active"]))

    @property
    def lists_by_id(self) -> dict[int, Row]:
        """list_id -> list row, memoised."""
        return self._memoised(
            "lists_by_id",
            lambda: {l["list_id"]: l
                     for l in self.db.table("list").rows})

    @property
    def members_by_list(self) -> dict[int, list[Row]]:
        """list_id -> member rows, memoised."""

        def build() -> dict[int, list[Row]]:
            out: dict[int, list[Row]] = {}
            for row in self.db.table("members").rows:
                out.setdefault(row["list_id"], []).append(row)
            return out

        return self._memoised("members_by_list", build)

    @property
    def strings_by_id(self) -> dict[int, str]:
        """string_id -> text, memoised."""
        return self._memoised(
            "strings_by_id",
            lambda: {s["string_id"]: s["string"]
                     for s in self.db.table("strings").rows})

    def expand_list_users(self, list_id: int) -> set[int]:
        """Recursive closure of USER members (sub-lists expanded), from
        :attr:`members_by_list` when a full extract built it, else from
        the ``members.list_id`` index."""
        memo = self._memo.get("members_by_list")
        members = (self.list_members if memo is None
                   else lambda lid: memo.get(lid, ()))
        found: set[int] = set()
        seen: set[int] = set()
        stack = [list_id]
        while stack:
            lid = stack.pop()
            if lid in seen:
                continue
            seen.add(lid)
            for member in members(lid):
                if member["member_type"] == "USER":
                    found.add(member["member_id"])
                elif member["member_type"] == "LIST":
                    stack.append(member["member_id"])
        return found

    @property
    def groups_of_user(self) -> dict[int, list[Row]]:
        """users_id -> active group rows (direct membership only, as in
        the grplist extract), memoised."""

        def build() -> dict[int, list[Row]]:
            out: dict[int, list[Row]] = {}
            active_ids = {g["list_id"]: g for g in self.active_groups}
            for row in self.db.table("members").rows:
                if row["member_type"] != "USER":
                    continue
                group = active_ids.get(row["list_id"])
                if group is not None:
                    out.setdefault(row["member_id"], []).append(group)
            return out

        return self._memoised("groups_of_user", build)

    def short_host(self, mach_id: int) -> str:
        """Lowercase unqualified hostname for a mach_id."""
        name = self.machine_names.get(mach_id, "???")
        return name.split(".")[0].lower()

    @property
    def home_dirs(self) -> dict[int, str]:
        """users_id -> home directory: the mount point of the user's
        HOMEDIR locker (the lowest filsys_id, should there be several),
        memoised."""

        def build() -> dict[int, str]:
            best: dict[int, Row] = {}
            for fs in self.db.table("filesys").rows:
                if fs["lockertype"] == "HOMEDIR":
                    held = best.get(fs["owner"])
                    if held is None or fs["filsys_id"] < held["filsys_id"]:
                        best[fs["owner"]] = fs
            return {owner: fs["mount"] for owner, fs in best.items()}

        return self._memoised("home_dirs", build)

    # -- point lookups: the patch path -----------------------------------------
    #
    # Each answers from the cycle's memoised map when a full extract has
    # already built it, else with one index probe, so a patch touching
    # a handful of rows never pays for a whole-relation map.  Both ways
    # give the same answer — that is what keeps a patched file
    # byte-identical to a full generate.

    def find(self, table: str, where: dict) -> Optional[Row]:
        """The row of *table* whose columns equal *where* — literally:
        a value that looks like a wildcard matches only itself."""
        for row in self.db.table(table).select(where):
            if all(row[name] == value for name, value in where.items()):
                return row
        return None

    def user(self, users_id: int) -> Optional[Row]:
        """The users row with *users_id*, or None."""
        memo = self._memo.get("users_by_id")
        if memo is not None:
            return memo.get(users_id)
        return self.find("users", {"users_id": users_id})

    def user_by_login(self, login: str) -> Optional[Row]:
        """The users row with *login*, or None."""
        return self.find("users", {"login": login})

    def machine_name(self, mach_id: int) -> str:
        """Canonical name of *mach_id* ("???" when there is none)."""
        memo = self._memo.get("machine_names")
        if memo is not None:
            return memo.get(mach_id, "???")
        row = self.find("machine", {"mach_id": mach_id})
        return row["name"] if row else "???"

    def list_row(self, list_id: int) -> Optional[Row]:
        """The list row with *list_id*, or None."""
        memo = self._memo.get("lists_by_id")
        if memo is not None:
            return memo.get(list_id)
        return self.find("list", {"list_id": list_id})

    def string(self, string_id: int) -> Optional[str]:
        """The text of *string_id*, or None."""
        memo = self._memo.get("strings_by_id")
        if memo is not None:
            return memo.get(string_id)
        row = self.find("strings", {"string_id": string_id})
        return row["string"] if row else None

    def home_dir(self, users_id: int) -> Optional[str]:
        """One user's entry of :attr:`home_dirs`."""
        memo = self._memo.get("home_dirs")
        if memo is not None:
            return memo.get(users_id)
        best = None
        for fs in self.db.table("filesys").select({"owner": users_id}):
            if fs["lockertype"] == "HOMEDIR" and (
                    best is None or fs["filsys_id"] < best["filsys_id"]):
                best = fs
        return best["mount"] if best else None

    def user_groups(self, users_id: int) -> list[Row]:
        """One user's entry of :attr:`groups_of_user` (in no particular
        order — every consumer sorts)."""
        memo = self._memo.get("groups_of_user")
        if memo is not None:
            return memo.get(users_id, [])
        groups = []
        for member in self.db.table("members").select(
                {"member_type": "USER", "member_id": users_id}):
            group = self.list_row(member["list_id"])
            if group is not None and group["grouplist"] and group["active"]:
                groups.append(group)
        return groups

    def list_members(self, list_id: int) -> list[Row]:
        """*list_id*'s member rows, always from the list_id index —
        the order a rendered member list follows on every path."""
        return self.db.table("members").select({"list_id": list_id})

    def lists_holding(self, member_type: str,
                      member_ids: Iterable[int]) -> set[int]:
        """Lists with a direct *member_type* member among *member_ids*."""
        members = self.db.table("members")
        return {m["list_id"] for member_id in member_ids
                for m in members.select({"member_type": member_type,
                                         "member_id": member_id})}

    def lists_above(self, list_ids: Iterable[int]) -> set[int]:
        """*list_ids* and every list holding one of them, directly or
        through sub-lists — the lists whose :meth:`expand_list_users`
        a membership change in *list_ids* can move."""
        found: set[int] = set()
        stack = list(list_ids)
        while stack:
            list_id = stack.pop()
            if list_id not in found:
                found.add(list_id)
                stack.extend(self.lists_holding("LIST", (list_id,)))
        return found


# -- keyed outputs -------------------------------------------------------------

# columns several generators read
MACHINE = ("mach_id", "name")
GROUP = ("list_id", "name", "gid", "grouplist", "active")
MEMBER = ("list_id", "member_type", "member_id")
HOME = ("filsys_id", "owner", "lockertype", "mount")


def users_with_ids(ctx: GenContext, users_ids: Iterable[int]) -> list[Row]:
    """The users rows with *users_ids* (gone ones skipped)."""
    return [user for user in map(ctx.user, users_ids) if user is not None]


def changed_rows(change: TableChange) -> list[Row]:
    """The row images around one change (before and/or after)."""
    return [row for row in (change.before, change.after) if row is not None]


def via_member(ctx: GenContext, change: TableChange) -> list[Row]:
    """members change -> a USER member."""
    return users_with_ids(ctx, {row["member_id"]
                                for row in changed_rows(change)
                                if row["member_type"] == "USER"})


def via_group(ctx: GenContext, change: TableChange) -> list[Row]:
    """list change -> the list's USER members."""
    return users_with_ids(ctx, {
        member["member_id"]
        for row in changed_rows(change)
        for member in ctx.list_members(row["list_id"])
        if member["member_type"] == "USER"})


def referenced(table: str, column: str, key: Optional[str] = None
               ) -> Callable[[GenContext, TableChange], list[Row]]:
    """A reach: the rows of *table* whose indexed *column* holds the
    changed row's *key* (default: *column*) in its before or after
    image — how a lookup relation (``machine``) reaches what names it."""
    key = key or column

    def reach(ctx: GenContext, change: TableChange) -> list[Row]:
        rows = ctx.db.table(table)
        values = {image[key] for image in changed_rows(change)}
        return [row for value in values
                for row in rows.select({column: value})]

    return reach


# machine change -> the users whose POP box it serves
POP_USERS = referenced("users", "pop_id", "mach_id")
# filesys change -> the owner, whose passwd line shows a HOMEDIR's mount
HOME_OWNER = referenced("users", "users_id", "owner")


@dataclass(frozen=True)
class Keyed:
    """An output with one entry per row of *table*, in key order, that
    a patch re-renders entry by entry.

    ``key(row)`` names and orders a row's entry; ``lookup(ctx, key)``
    is the current row for a key (None once gone); ``render(ctx, row)``
    is its text (None = no entry; usually one line, but it may span
    several); ``rows(ctx)`` feeds a full build, which first builds the
    memoised :class:`GenContext` maps named in ``maps`` so that
    ``render``'s point lookups hit them.  ``via`` maps each other
    relation the output reads to ``reach(ctx, change)``, the current
    rows of *table* a change there reaches (through an index), and may
    name *table* itself to reach entries beyond the changed row's own.
    A change in a relation with no ``via`` entry rebuilds the output.

    The rendered bytes stay the only copy of the text: the state a
    patch needs is the sorted key list and each entry's encoded size
    (its trailing newline not counted), from which a patch finds an
    entry's byte offset with C-level sums instead of splitting the
    file.
    """

    table: str
    key: Callable[[Row], Any]
    lookup: Callable[[GenContext, Any], Optional[Row]]
    render: Callable[[GenContext, Row], Optional[str]]
    rows: Callable[[GenContext], Iterable[Row]]
    via: dict = field(default_factory=dict)
    maps: tuple[str, ...] = ()

    def build(self, ctx: GenContext) -> tuple[bytes, tuple]:
        """(bytes, patch state) from every row."""
        for name in self.maps:
            getattr(ctx, name)
        key, render = self.key, self.render
        by_key = {}
        for row in self.rows(ctx):
            text = render(ctx, row)
            if text is not None:
                by_key[key(row)] = text
        if not by_key:
            return b"", ([], [])
        keys = sorted(by_key)
        texts = [by_key[k] for k in keys]
        body = ("\n".join(texts) + "\n").encode("utf-8")
        sizes = (list(map(len, texts)) if body.isascii()
                 else [len(text.encode("utf-8")) for text in texts])
        return body, (keys, sizes)

    def patch(self, ctx: GenContext, data: bytes, state: tuple,
              dirty: dict) -> Optional[tuple[bytes, tuple, bool, tuple]]:
        """(bytes, state, whether any entry was reached, the splices
        against *data*) after the changes in *dirty* (relation -> log),
        or None when one of them can only rebuild the output.

        Each reached entry is re-rendered in key order; its offset in
        *data* is the sizes before it plus one newline each, summed in
        C from the previous reached entry on.  An entry whose bytes moved is
        one splice, and the new bytes are *data* with the splices
        applied (*data* itself when none moved)."""
        reached: set = set()
        for table, log in dirty.items():
            reach = self.via.get(table)
            if log is None or (reach is None and table != self.table):
                return None
            for change in log:
                if table == self.table:
                    reached.update(self.key(row)
                                   for row in changed_rows(change))
                if reach is not None:
                    reached.update(map(self.key, reach(ctx, change)))
        if not reached:
            return data, state, False, ()
        keys, sizes = state
        new_keys: list = []
        new_sizes: list[int] = []
        splices: list[Splice] = []
        done = offset = 0   # old entries passed so far, and their bytes
        for key in sorted(reached):
            row = self.lookup(ctx, key)
            text = None if row is None else self.render(ctx, row)
            i = bisect_left(keys, key)
            here = i < len(keys) and keys[i] == key
            new_keys += keys[done:i]
            new_sizes += sizes[done:i]
            offset += sum(sizes[done:i]) + i - done
            end = offset + sizes[i] + 1 if here else offset
            new = b""
            if text is not None:
                new = text.encode("utf-8") + b"\n"
                new_keys.append(key)
                new_sizes.append(len(new) - 1)
            if data[offset:end] != new:
                splices.append((offset, end, new))
            offset, done = end, i + here
        new_keys += keys[done:]
        new_sizes += sizes[done:]
        if splices:
            data = splice(data, splices)
        return data, (new_keys, new_sizes), True, tuple(splices)


def users_keyed(render: Callable[[GenContext, Row], Optional[str]],
                maps: tuple[str, ...] = (), **via) -> Keyed:
    """A :class:`Keyed` output with one line per active user, by login
    — Hesiod's passwd, uid, pobox and grplist files, the NFS master
    credentials, the mail hub's passwd and pobox aliases."""

    def line(ctx: GenContext, user: Row) -> Optional[str]:
        if user["status"] != USER_STATE_ACTIVE:
            return None
        return render(ctx, user)

    return Keyed("users", key=itemgetter("login"),
                 lookup=GenContext.user_by_login, render=line,
                 rows=lambda ctx: ctx.active_users, via=via, maps=maps)


def touches(change: TableChange, columns: Iterable[str]) -> bool:
    """Does *change* alter any of *columns*?  Inserts and deletes
    (and a wholesale ``clear``) touch every column."""
    before, after = change.before, change.after
    if before is None or after is None:
        return True
    return any(before[name] != after[name] for name in columns)


class Generator:
    """One service's extract sub-program (the *.gen of §5.7.1)."""

    #: service name in the servers relation
    service: str = ""
    #: output -> {relation: columns it reads}.  An output is a shipped
    #: file or an independently built part of one; the declaration is
    #: the patch/rebuild granularity of incremental generation, and a
    #: changed-row-log entry touching none of a generator's columns
    #: never reaches it.  Row filters (``status``, ``active``...) count
    #: as read.
    reads: dict[str, dict[str, tuple[str, ...]]] = {}
    #: outputs patchable entry by entry (:class:`Keyed`)
    keyed: dict[str, Keyed] = {}
    #: outputs rebuilt whole -> {lookup relation: reach(ctx, change)}:
    #: a change there reaches the output only when ``reach`` finds a row
    #: naming the changed one (:func:`referenced`) — as a
    #: :class:`Keyed` output's ``via`` names the entries a change reaches
    via: dict[str, dict[str, Callable]] = {}
    #: input relations whose modification requires regeneration —
    #: derived from ``reads`` when a generator declares it, set directly
    #: by site-local generators that do not
    depends: tuple[str, ...] = ()
    #: relation -> every column any output reads (from ``reads``)
    _columns: dict[str, frozenset] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "reads" in cls.__dict__:
            columns: dict[str, set[str]] = {}
            for relations in cls.reads.values():
                for table, names in relations.items():
                    columns.setdefault(table, set()).update(names)
            cls.depends = tuple(columns)
            cls._columns = {table: frozenset(names)
                            for table, names in columns.items()}

    def generate(self, ctx: GenContext) -> GeneratorResult:
        """Produce this service's files from the database."""
        raise NotImplementedError

    def generate_incremental(
        self,
        ctx: GenContext,
        previous: GeneratorResult,
        changes: dict[str, Optional[list[TableChange]]],
    ) -> Optional[GeneratorResult]:
        """Patch *previous* given *changes* (changed table ->
        changed-row log, or None when the log is unavailable).

        Returning None asks the DCM to fall back to a full
        :meth:`generate`; the default implementation always does.
        """
        return None

    def reads_any(self, table: str, columns: Iterable[str]) -> bool:
        """Does this generator read one of *columns* of *table*?  (Any
        column of a ``depends`` relation when it declares no
        ``reads``.)"""
        if table not in self.depends:
            return False
        read = self._columns.get(table)
        return read is None or not read.isdisjoint(columns)

    def relevant(self, table: str,
                 log: list[TableChange]) -> list[TableChange]:
        """The entries of *table*'s log that touch a column this
        generator reads (every entry when it declares no ``reads``)."""
        columns = self._columns.get(table)
        if columns is None:
            return log
        return [change for change in log if touches(change, columns)]

    def dirty(self, output: str,
              changes: dict[str, Optional[list[TableChange]]],
              ctx: GenContext) -> dict:
        """The changes that reach *output*: relation -> the log entries
        touching a column it reads and, through a lookup relation in
        ``via``, naming a row the output shows (None = log
        unavailable)."""
        via = self.via.get(output, {})
        reached = {}
        for table, columns in self.reads[output].items():
            if table not in changes:
                continue
            log = changes[table]
            if log is not None:
                reach = via.get(table)
                log = [change for change in log
                       if touches(change, columns)
                       and (reach is None or reach(ctx, change))]
                if not log:
                    continue
            reached[table] = log
        return reached

    def build_parts(self, ctx: GenContext, names: Iterable[str],
                    previous: Optional[GeneratorResult] = None,
                    changes: Optional[dict] = None) -> tuple[dict, dict]:
        """(name -> bytes, meta) for the outputs *names*.

        With no *previous* every output is built in full.  Otherwise an
        output the changes do not reach (:meth:`dirty`) keeps its bytes,
        a keyed one is patched, and the rest are rebuilt; ``files_patched`` /
        ``files_rebuilt`` in the meta say which (an output the changes
        reached but whose entries did not move is neither), and
        ``splices`` holds each patched output's splices against its
        previous bytes.  The meta carries ``parts`` and ``keys`` forward
        for the next patch — the bytes are shared with the result's
        files, not copied.
        """
        old_parts = previous.meta.get("parts", {}) if previous else {}
        old_keys = previous.meta.get("keys", {}) if previous else {}
        parts: dict[str, bytes] = {}
        keys: dict[str, tuple] = {}
        splices: dict[str, tuple] = {}
        patched: list[str] = []
        rebuilt: list[str] = []
        for name in names:
            spec = self.keyed.get(name)
            if name in old_parts:
                dirty = self.dirty(name, changes, ctx)
                if not dirty:
                    parts[name] = old_parts[name]
                    if name in old_keys:
                        keys[name] = old_keys[name]
                    continue
                done = None
                if spec is not None and name in old_keys:
                    done = spec.patch(ctx, old_parts[name], old_keys[name],
                                      dirty)
                if done is not None:
                    parts[name], keys[name], moved, cut = done
                    if moved:
                        patched.append(name)
                    if cut:
                        splices[name] = cut
                    continue
                rebuilt.append(name)
            if spec is not None:
                parts[name], keys[name] = spec.build(ctx)
            else:
                parts[name] = self.build_output(ctx, name)
        return parts, {"parts": parts, "keys": keys, "splices": splices,
                       "files_patched": patched, "files_rebuilt": rebuilt}

    def build_output(self, ctx: GenContext, name: str) -> bytes:
        """Build output *name* that is not :class:`Keyed`."""
        raise NotImplementedError(name)

    def vector_for(self, versions: dict[str, int]) -> dict[str, int]:
        """This generator's slice of a database version vector."""
        return {t: versions[t] for t in self.depends if t in versions}

    def changed_since(self, db: Database, since: int) -> bool:
        """Has any dependent relation changed since *since*?

        This is the paper's modtime form of the check behind
        MR_NO_CHANGE — the fallback for services whose generation
        predates this DCM process.
        The version-vector comparison (:meth:`vector_for`) is exact
        and is what the DCM uses when it has a recorded vector.
        """
        return any(db.table(t).stats.modtime > since
                   for t in self.depends if t in db)


def register_generator(gen: Generator) -> Generator:
    """Install a generator under its service name."""
    _GENERATORS[gen.service.upper()] = gen
    return gen


def get_generator(service: str) -> Optional[Generator]:
    """The generator for *service*, or None."""
    return _GENERATORS.get(service.upper())


def all_generators() -> dict[str, Generator]:
    """Every registered generator by service name (a copy) — the CDC
    extractor derives its table -> dirty-services map from this."""
    return dict(_GENERATORS)
