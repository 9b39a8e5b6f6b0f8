"""List and membership queries (paper §7.0.3).

Lists are Moira's general grouping mechanism (mailing lists, unix
groups, and access control lists all in one relation).  Membership is
(type, id) pairs — USER, LIST (sub-list), or STRING (interned text,
e.g. external mail addresses).  Access control entities (ACEs) guard
each list; the paper's per-query relaxations (public lists allow
self-add/remove, ACE members manage the list) are implemented here.
"""

from __future__ import annotations

from typing import Sequence

from repro.db.schema import (ACE_TARGETS, REFERENCES, UNIQUE_GID,
                             referencing)
from repro.errors import (
    MoiraError,
    MR_ACE,
    MR_EXISTS,
    MR_LIST,
    MR_NO_MATCH,
)
from repro.queries.base import (ACE_TYPES, Bool01, Int, Name, OneOf,
                                QueryContext, Reply, Tristate, ace,
                                exactly_one, keyword, register)

_LIST_INFO_FIELDS = ("list", "active", "public", "hidden", "maillist",
                     "group", "gid", "ace_type", "ace_name", "description",
                     "modtime", "modby", "modwith")
# the five flags, as the list relation names them (each stored 0/1)
_FLAGS = ("active", "public", "hidden", "maillist", "grouplist")
_LIST_INFO = Reply("list", ("name", *_FLAGS, "gid", "acl_type", ace(),
                            "desc", "modtime", "modby", "modwith"))
_LIST_FLAGS = Reply("list", ("name", *_FLAGS))


def _caller_on_list_ace(ctx: QueryContext, row) -> bool:
    return ctx.caller_satisfies_ace(row["acl_type"], row["acl_id"])


def _ace_of_named_list(ctx: QueryContext, args: Sequence[str]) -> bool:
    """Access relaxation: caller is on the ACE of the list named in args[0]."""
    rows = ctx.db.table("list").select({"name": str(args[0])})
    return len(rows) == 1 and _caller_on_list_ace(ctx, rows[0])


def _visible_or_ace(ctx: QueryContext, args: Sequence[str]) -> bool:
    """Access relaxation: list is not hidden, or caller is on its ACE."""
    rows = ctx.db.table("list").select({"name": str(args[0])})
    if len(rows) != 1:
        # wildcards or unknown names require the capability ACL
        return False
    return not rows[0]["hidden"] or _caller_on_list_ace(ctx, rows[0])


@register("get_list_info", "glin", ("list",), _LIST_INFO_FIELDS,
          side_effects=False, access=_visible_or_ace)
def get_list_info(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Full list attributes; hidden lists need ACE or capability."""
    rows = ctx.db.table("list").select({"name": args[0]})
    return list(_LIST_INFO.texts(ctx, (
        row for row in rows
        if not row["hidden"] or ctx.on_capability("get_list_info")
        or _caller_on_list_ace(ctx, row))))


@register("expand_list_names", "exln", ("list",), ("list",),
          side_effects=False, public=True)
def expand_list_names(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Expand a wildcard pattern to visible list names."""
    return [(r["name"],)
            for r in ctx.db.table("list").select({"name": args[0]})
            if not r["hidden"]]


_LIST_ARGS = (Bool01("active"), Bool01("public"), Bool01("hidden"),
              Bool01("maillist"), Bool01("group"), Int("gid"),
              OneOf("ace_type", ACE_TYPES, MR_ACE), "ace_name", "description")


def _list_fields(ctx: QueryContext, args: Sequence, list_id: int,
                 names: tuple) -> dict:
    """The columns add_list and update_list set from their arguments
    after the name(s): UNIQUE_GID allocates a group's gid, and "the
    access list may be the list that is being created (self-referential)",
    named by any of *names*."""
    (active, public, hidden, maillist, group, gid, ace_type, ace_name,
     desc) = args
    if group and gid == UNIQUE_GID:
        gid = ctx.db.next_id("gid", now=ctx.now)
    if ace_type == "LIST" and ace_name in names:
        acl_type, acl_id = "LIST", list_id
    else:
        acl_type, acl_id = ctx.resolve_ace(ace_type, ace_name)
    return dict(active=active, public=public, hidden=hidden,
                maillist=maillist, grouplist=group, gid=gid, desc=desc,
                acl_type=acl_type, acl_id=acl_id, **ctx.audit())


@register("add_list", "alis", (Name("list"), *_LIST_ARGS),
          (), side_effects=True)
def add_list(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Create a list; UNIQUE_GID allocates, the ACE may be itself."""
    name = args[0]
    lists = ctx.db.table("list")
    if lists.select({"name": name}):
        raise MoiraError(MR_EXISTS, name)
    list_id = ctx.db.next_id("list_id", now=ctx.now)
    lists.insert(dict(name=name, list_id=list_id,
                      **_list_fields(ctx, args[1:], list_id, (name,))),
                 now=ctx.now)
    return []


@register("update_list", "ulis", ("list", Name("newname"), *_LIST_ARGS),
          (), side_effects=True, access=_ace_of_named_list)
def update_list(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Change list attributes; references follow a rename."""
    name, newname = args[:2]
    lists = ctx.db.table("list")
    row = exactly_one(lists.select({"name": name}), MR_LIST, name)
    if newname != name and lists.select({"name": newname}):
        raise MoiraError(MR_EXISTS, newname)
    lists.update_rows([row], dict(name=newname, **_list_fields(
        ctx, args[2:], row["list_id"], (name, newname))), now=ctx.now)
    return []


@register("delete_list", "dlis", ("list",), (), side_effects=True,
          access=_ace_of_named_list)
def delete_list(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Delete an empty, unreferenced list."""
    ctx.delete("list", ctx.find_list(args[0]), args[0])
    return []


# -- members ---------------------------------------------------------------


_MEMBER_TYPES = ("USER", "LIST", "STRING")


def _self_on_public_list(ctx: QueryContext, args: Sequence[str]) -> bool:
    """Anyone may add/delete *themselves* as USER on a public list."""
    list_name, mtype, member = str(args[0]), str(args[1]), str(args[2])
    if not keyword(mtype, "USER") or not ctx.is_caller(member):
        return _ace_of_named_list(ctx, args)
    rows = ctx.db.table("list").select({"name": list_name})
    if len(rows) != 1:
        return False
    return bool(rows[0]["public"]) or _caller_on_list_ace(ctx, rows[0])


@register("add_member_to_list", "amtl",
          ("list", OneOf("type", _MEMBER_TYPES), "member"), (),
          side_effects=True, access=_self_on_public_list)
def add_member_to_list(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Add a USER/LIST/STRING member (self-add on public lists)."""
    row = ctx.find_list(args[0])
    mtype, member_id = args[1], ctx.entity_id(args[1], args[2], MR_NO_MATCH)
    members = ctx.db.table("members")
    if members.select({"list_id": row["list_id"], "member_type": mtype,
                       "member_id": member_id}):
        raise MoiraError(MR_EXISTS, f"{args[2]} already on {args[0]}")
    members.insert({"list_id": row["list_id"], "member_type": mtype,
                    "member_id": member_id}, now=ctx.now)
    ctx.db.table("list").update_rows([row], ctx.audit(), now=ctx.now)
    return []


@register("delete_member_from_list", "dmfl",
          ("list", OneOf("type", _MEMBER_TYPES), "member"), (),
          side_effects=True, access=_self_on_public_list)
def delete_member_from_list(ctx: QueryContext,
                            args: Sequence[str]) -> list[tuple]:
    """Remove a member (self-remove on public lists)."""
    row = ctx.find_list(args[0])
    mtype, member_id = args[1], ctx.entity_id(args[1], args[2], MR_NO_MATCH)
    members = ctx.db.table("members")
    found = members.select({"list_id": row["list_id"], "member_type": mtype,
                            "member_id": member_id})
    if not found:
        raise MoiraError(MR_NO_MATCH, f"{args[2]} not on {args[0]}")
    members.delete_rows(found, now=ctx.now)
    ctx.db.table("list").update_rows([row], ctx.audit(), now=ctx.now)
    return []


_MEMBER = Reply("members", ("member_type", ace("member_type", "member_id")))


@register("get_members_of_list", "gmol", ("list",), ("type", "value"),
          side_effects=False, access=_visible_or_ace)
def get_members_of_list(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """All (type, name) members of one list."""
    row = ctx.find_list(args[0])
    return list(_MEMBER.texts(
        ctx, ctx.db.table("members").select({"list_id": row["list_id"]})))


@register("count_members_of_list", "cmol", ("list",), ("count",),
          side_effects=False, access=_visible_or_ace)
def count_members_of_list(ctx: QueryContext,
                          args: Sequence[str]) -> list[tuple]:
    """How many members are on one list."""
    row = ctx.find_list(args[0])
    return [(str(ctx.db.table("members").count(
        {"list_id": row["list_id"]})),)]


@register("get_lists_of_member", "glom",
          (OneOf("type", _MEMBER_TYPES, recursive=True), "value"),
          ("list", "active", "public", "hidden", "maillist", "group"),
          side_effects=False,
          access=lambda ctx, args: (keyword(args[0], "USER", "RUSER")
                                    and ctx.is_caller(str(args[1]))))
def get_lists_of_member(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Lists containing a member; R-types recurse sub-lists."""
    (base_type, recursive), value = args
    member_id = ctx.entity_id(base_type, value, MR_NO_MATCH)

    if recursive:
        # closure-indexed: direct lists plus every ancestor, no walk
        found = ctx.lists_containing(base_type, member_id)
    else:
        found = {m["list_id"] for m in ctx.db.table("members").select(
            {"member_type": base_type, "member_id": member_id})}

    probe = ctx.db.table("list").probe("list_id")
    return list(_LIST_FLAGS.texts(
        ctx, filter(None, map(probe, sorted(found)))))


@register("qualified_get_lists", "qgli",
          tuple(map(Tristate, ("active", "public", "hidden", "maillist",
                               "group"))), ("list",),
          side_effects=False,
          access=lambda ctx, args: (keyword(args[0], "TRUE")
                                    and keyword(args[2], "FALSE")))
def qualified_get_lists(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """List names matching five TRUE/FALSE/DONTCARE flags: an exact
    ``where``, so the planner answers from the smallest flag bucket."""
    return [(r["name"],) for r in ctx.db.table("list").iter_select(
        Tristate.where(_FLAGS, args))]


# what get_ace_use reports, in reply order: each relation whose rows
# an ACE guards -> (reply kind, the row's unique key, its name column)
_ACE_USE = {"list": ("LIST", "list_id", "name"),
            "servers": ("SERVICE", "name", "name"),
            "filesys": ("FILESYS", "filsys_id", "label"),
            "capacls": ("QUERY", "capability", "capability"),
            "hostaccess": ("HOSTACCESS", "mach_id", None),
            "zephyr": ("ZEPHYR", "class", "class")}
# Zephyr's declared ACL slots: its few classes cost less as one scan
# than as four composite probes an entity; the rest are probed
_ZEPHYR_SLOTS = [ref for ref in REFERENCES if ref.table == "zephyr"]
_PROBED = _ACE_USE.keys() - {"zephyr"}


@register("get_ace_use", "gaus",
          (OneOf("ace_type", ("USER", "LIST"), recursive=True), "ace_name"),
          ("object_type", "object_name"), side_effects=False,
          access=lambda ctx, args: (
              keyword(args[0], "USER", "RUSER")
              and ctx.is_caller(str(args[1]))))
def get_ace_use(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Objects guarded by an entity as ACE; R-types check sub-lists."""
    (base_type, recursive), ace_name = args
    target_id = ctx.entity_id(base_type, ace_name, MR_NO_MATCH)

    # Candidate ACE entities: the target itself, plus (recursively) every
    # list the target is a member of when the R-type is used — one
    # closure-index lookup instead of a per-call graph walk.
    entities: set[tuple[str, int]] = {(base_type, target_id)}
    if recursive:
        entities |= {("LIST", lid)
                     for lid in ctx.lists_containing(base_type, target_id)}

    # Per-entity *reverse* probes, one per declared reference from a
    # relation in _PROBED (each served by an index), instead of table
    # scans: O(entities + results), not O(database).  Each category is
    # emitted name-sorted, so the answer is a function of the data alone.
    found: dict[str, dict] = {table: {} for table in _ACE_USE}
    for ace_type, ace_id in entities:
        for ref, rows in referencing(ctx.db, ACE_TARGETS[ace_type][0],
                                     ace_id, _PROBED):
            _kind, key, name = _ACE_USE[ref.table]
            found[ref.table].update((row[key], row[name or key])
                                    for row in rows)
    found["zephyr"] = {
        row["class"]: row["class"] for row in ctx.db.table("zephyr").rows
        if any((row[ref.type_column], row[ref.column]) in entities
               for ref in _ZEPHYR_SLOTS)}
    machine = ctx.lookup("machine", "mach_id", "name")
    out: list[tuple[str, str]] = []
    for table, (kind, _key, name) in _ACE_USE.items():
        names = found[table].values()
        if name is None:    # a hostaccess row is named by its machine
            names = [n for n in map(machine, names) if n != "???"]
        out.extend((kind, n) for n in sorted(names))
    return out
