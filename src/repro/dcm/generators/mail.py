"""mail.gen — /usr/lib/aliases and the mailhub /etc/passwd (§5.8.2).

"This file contains both mailing lists and post office boxes.  Mailing
lists are output only if the list is marked active ...  Poboxes are
only output if the user's account is active."  List owners get an
``owner-<list>`` alias as in the paper's example.  A complete password
file rides along "so that the finger server on the mailhub will know
about everybody".
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from repro.db.engine import Row, TableChange
from repro.db.schema import USER_STATE_ACTIVE
from repro.dcm.generators.base import (
    HOME,
    HOME_OWNER,
    MACHINE,
    MEMBER,
    POP_USERS,
    GenContext,
    Generator,
    GeneratorResult,
    Keyed,
    changed_rows,
    register_generator,
    users_keyed,
)
from repro.dcm.generators.hesiod import passwd_fields

__all__ = ["MailGenerator"]

ALIASES_HEADER = b"# Generated by Moira; do not edit by hand.\n"
STRING = ("string_id", "string")


# -- the mailing-list half of /usr/lib/aliases: one block per maillist --------


def _is_maillist(lst: Optional[Row]) -> bool:
    return lst is not None and bool(lst["maillist"] and lst["active"])


def _block(ctx: GenContext, lst: Row) -> Optional[str]:
    """A maillist's comment, owner and member lines."""
    if not _is_maillist(lst):
        return None
    lines = [f"# {lst['desc']}" if lst["desc"] else f"# {lst['name']}"]
    owner = _owner_alias(ctx, lst)
    if owner:
        lines.append(f"owner-{lst['name']}: {owner}")
    members = _expand_members(ctx, lst["list_id"], seen={lst["list_id"]})
    if members:
        lines.append(f"{lst['name']}: {', '.join(members)}")
    return "\n".join(lines)


def _owner_alias(ctx: GenContext, lst: Row) -> str:
    if lst["acl_type"] == "USER":
        owner = ctx.user(lst["acl_id"])
        return owner["login"] if owner else ""
    if lst["acl_type"] == "LIST" and lst["acl_id"] != lst["list_id"]:
        owner = ctx.list_row(lst["acl_id"])
        return owner["name"] if owner else ""
    return ""


def _expand_members(ctx: GenContext, list_id: int,
                    seen: set[int]) -> list[str]:
    """Members as sendmail addresses.

    Sub-lists that are themselves active maillists are referenced by
    name (sendmail expands the alias); other sub-lists are expanded
    recursively.  STRING members pass through verbatim (external
    addresses like rubin@media-lab.mit.edu).
    """
    out: list[str] = []
    for member in ctx.list_members(list_id):
        mtype, mid = member["member_type"], member["member_id"]
        if mtype == "USER":
            user = ctx.user(mid)
            if user is not None and user["status"] == USER_STATE_ACTIVE:
                out.append(user["login"])
        elif mtype == "STRING":
            text = ctx.string(mid)
            out.append("???" if text is None else text)
        elif mtype == "LIST":
            sub = ctx.list_row(mid)
            if _is_maillist(sub):
                out.append(sub["name"])
            elif mid not in seen:
                seen.add(mid)
                out.extend(_expand_members(ctx, mid, seen))
    return out


def _blocks_rendering(ctx: GenContext, list_ids) -> list[Row]:
    """The maillists whose block renders the members of any of
    *list_ids*: the list itself when it is a maillist (its parents
    name it), else — it is expanded inline — whatever renders its
    parents, transitively."""
    blocks: list[Row] = []
    seen: set[int] = set()
    stack = list(list_ids)
    while stack:
        list_id = stack.pop()
        if list_id in seen:
            continue
        seen.add(list_id)
        lst = ctx.list_row(list_id)
        if _is_maillist(lst):
            blocks.append(lst)
        else:
            stack.extend(ctx.lists_holding("LIST", (list_id,)))
    return blocks


def _lists_owned_by(ctx: GenContext, acl_type: str, ids) -> list[Row]:
    lists = ctx.db.table("list")
    return [lst for acl_id in ids for lst in lists.select(
        {"acl_type": acl_type, "acl_id": acl_id})]


def _via_members(ctx: GenContext, change: TableChange) -> list[Row]:
    return _blocks_rendering(
        ctx, {row["list_id"] for row in changed_rows(change)})


def _via_users(ctx: GenContext, change: TableChange) -> list[Row]:
    ids = {row["users_id"] for row in changed_rows(change)}
    return (_blocks_rendering(ctx, ctx.lists_holding("USER", ids))
            + _lists_owned_by(ctx, "USER", ids))


def _via_strings(ctx: GenContext, change: TableChange) -> list[Row]:
    ids = {row["string_id"] for row in changed_rows(change)}
    return _blocks_rendering(ctx, ctx.lists_holding("STRING", ids))


def _via_lists(ctx: GenContext, change: TableChange) -> list[Row]:
    """A list's own block is its key; beyond it a list change reaches
    the blocks that name or expand it and those it owns."""
    ids = {row["list_id"] for row in changed_rows(change)}
    return (_blocks_rendering(ctx, ctx.lists_holding("LIST", ids))
            + _lists_owned_by(ctx, "LIST", ids))


# -- the pobox half of /usr/lib/aliases: one line per active user -------------


def _pobox_alias(ctx: GenContext, user: Row) -> Optional[str]:
    if user["potype"] == "POP":
        short = ctx.machine_name(user["pop_id"]).split(".")[0]
        box = f"{user['login']}@{short}.LOCAL"
    elif user["potype"] == "SMTP":
        box = ctx.string(user["box_id"]) or ""
    else:
        box = ""
    return f"{user['login']}: {box}" if box else None


def _via_boxes(ctx: GenContext, change: TableChange) -> list[Row]:
    """strings change -> the users whose SMTP box it holds (a probe of
    the ``box_id`` index per changed string)."""
    ids = {row["string_id"] for row in changed_rows(change)}
    users = ctx.db.table("users")
    return [user for string_id in ids
            for user in users.select({"box_id": string_id})]


class MailGenerator(Generator):
    """/usr/lib/aliases plus the mailhub /etc/passwd.

    Three independently patched outputs: the passwd file and the pobox
    half of the aliases file hold a line per active user, the
    mailing-list half a block per maillist — so a membership change
    re-renders just the blocks that show the member (the list's own,
    and those expanding it inline).
    """
    service = "MAIL"
    reads = {
        "passwd": {"users": ("login", "users_id", "uid", "fullname",
                             "shell", "status"),
                   "filesys": HOME},
        "aliases.lists": {"list": ("list_id", "name", "maillist", "active",
                                   "desc", "acl_type", "acl_id"),
                          "members": MEMBER,
                          "users": ("users_id", "login", "status"),
                          "strings": STRING},
        "aliases.poboxes": {"users": ("login", "potype", "pop_id", "box_id",
                                      "status"),
                            "machine": MACHINE, "strings": STRING},
    }
    keyed = {
        "passwd": users_keyed(
            lambda ctx, user: passwd_fields(ctx, user, ",,,"),
            ("home_dirs",), filesys=HOME_OWNER),
        "aliases.lists": Keyed(
            "list", key=itemgetter("name"),
            lookup=lambda ctx, name: ctx.find("list", {"name": name}),
            render=_block, rows=lambda ctx: ctx.db.table("list").rows,
            via={"list": _via_lists, "members": _via_members,
                 "users": _via_users, "strings": _via_strings},
            maps=("users_by_id", "lists_by_id", "strings_by_id")),
        "aliases.poboxes": users_keyed(
            _pobox_alias, ("machine_names", "strings_by_id"),
            strings=_via_boxes, machine=POP_USERS),
    }

    def generate(self, ctx: GenContext) -> GeneratorResult:
        """Extract the aliases and passwd files."""
        return self._result(*self.build_parts(ctx, self.reads))

    def generate_incremental(
        self,
        ctx: GenContext,
        previous: GeneratorResult,
        changes: dict[str, Optional[list[TableChange]]],
    ) -> Optional[GeneratorResult]:
        """Patch the passwd lines, pobox lines and list blocks the
        changes reach."""
        if not previous.files:
            return None
        return self._result(*self.build_parts(ctx, self.reads, previous,
                                              changes), previous)

    @staticmethod
    def _result(parts: dict, meta: dict,
                previous: Optional[GeneratorResult] = None
                ) -> GeneratorResult:
        return GeneratorResult.from_parts({
            "/usr/lib/aliases": (ALIASES_HEADER, "aliases.lists", b"\n",
                                 "aliases.poboxes"),
            "/etc/passwd": ("passwd",),
        }, parts, meta, previous)


register_generator(MailGenerator())
