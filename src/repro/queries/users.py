"""Users, finger, and post office box queries (paper §7.0.1)."""

from __future__ import annotations

from typing import Sequence

from repro.db.schema import (
    UNIQUE_LOGIN,
    UNIQUE_UID,
    USER_STATE_HALF_REGISTERED,
    USER_STATE_REGISTERABLE,
)
from repro.errors import (
    MoiraError,
    MR_BAD_CLASS,
    MR_IN_USE,
    MR_MACHINE,
    MR_NO_FILESYS,
    MR_NO_MATCH,
    MR_NO_POBOX,
    MR_NOT_UNIQUE,
    MR_TYPE,
    MR_USER,
)
from repro.queries.base import (QueryContext, exactly_one,
                                no_wildcards, register)

_USER_FIELDS = ("login", "uid", "shell", "last", "first", "middle",
                "status", "mit_id", "mit_year", "modtime", "modby",
                "modwith")


def _user_tuple(row) -> tuple:
    return tuple(row[f] for f in _USER_FIELDS)


def _summary_tuple(row) -> tuple:
    return (row["login"], row["uid"], row["shell"], row["last"],
            row["first"], row["middle"])


def _self_only(ctx: QueryContext, args: Sequence[str]) -> bool:
    """Relaxation: the query names the caller's own login exactly."""
    return ctx.is_caller(str(args[0]))


@register("get_all_logins", "galo", (), _USER_FIELDS[:6], side_effects=False)
def get_all_logins(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Summary info for every account in the database."""
    return [_summary_tuple(r) for r in ctx.db.table("users").rows]


@register("get_all_active_logins", "gaal", (), _USER_FIELDS[:6],
          side_effects=False)
def get_all_active_logins(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Summary info for accounts with non-zero status."""
    return [_summary_tuple(r)
            for r in ctx.db.table("users").iter_select(
                predicate=lambda r: r["status"] != 0)]


@register("get_user_by_login", "gubl", ("login",), _USER_FIELDS,
          side_effects=False, access=_self_only)
def get_user_by_login(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Complete account info by login; wildcards allowed.

    Non-ACL callers may only retrieve their own record."""
    return [_user_tuple(r)
            for r in ctx.db.table("users").select({"login": args[0]})]


@register("get_user_by_uid", "gubu", ("uid",), _USER_FIELDS,
          side_effects=False,
          access=lambda ctx, args: (
              (row := ctx.caller_row()) is not None
              and str(row["uid"]) == str(args[0])))
def get_user_by_uid(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Complete account info for the account with this uid."""
    return [_user_tuple(r)
            for r in ctx.db.table("users").select({"uid": args[0]})]


@register("get_user_by_name", "gubn", ("first", "last"), _USER_FIELDS,
          side_effects=False)
def get_user_by_name(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Account info matching first and last name (wildcards ok)."""
    first, last = args
    return [_user_tuple(r)
            for r in ctx.db.table("users").select(
                {"first": first, "last": last})]


@register("get_user_by_class", "gubc", ("class",), _USER_FIELDS,
          side_effects=False)
def get_user_by_class(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Account info for every account in an academic class."""
    return [_user_tuple(r)
            for r in ctx.db.table("users").select({"mit_year": args[0]})]


@register("get_user_by_mitid", "gubm", ("mitid",), _USER_FIELDS,
          side_effects=False)
def get_user_by_mitid(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Account info matching an encrypted MIT ID."""
    return [_user_tuple(r)
            for r in ctx.db.table("users").select({"mit_id": args[0]})]


@register("add_user", "ausr",
          ("login", "uid", "shell", "last", "first", "middle", "status",
           "mitid", "class"),
          (), side_effects=True, tables=("users", "alias"))
def add_user(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Add a new user; UNIQUE_UID/UNIQUE_LOGIN sentinels supported.

    Initializes the finger record and sets the pobox to NONE."""
    login, uid, shell, last, first, middle, status, mitid, year = args
    users = ctx.db.table("users")
    uid = int(uid)
    if uid == UNIQUE_UID:
        uid = ctx.db.next_id("uid", now=ctx.now)
    if login == UNIQUE_LOGIN:
        login = f"#{uid}"
    else:
        no_wildcards(login)
    if users.select({"login": login}):
        raise MoiraError(MR_NOT_UNIQUE, f"login {login!r}")
    year = ctx.check_type("class", year, MR_BAD_CLASS)
    users_id = ctx.db.next_id("users_id", now=ctx.now)
    fullname = " ".join(p for p in (first, middle, last) if p)
    users.insert(
        dict(
            login=login, users_id=users_id, uid=uid, shell=shell,
            last=last, first=first, middle=middle, status=int(status),
            mit_id=mitid, mit_year=year, fullname=fullname, potype="NONE",
            **ctx.audit(), **ctx.audit("f"), **ctx.audit("p"),
        ),
        now=ctx.now,
    )
    return []


@register("register_user", "rusr", ("uid", "login", "fstype"), (),
          side_effects=True,
          tables=("users", "list", "members", "serverhosts", "machine",
                  "nfsphys", "filesys", "nfsquota"))
def register_user(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Register a status-0 user: assign the login, a POP pobox on
    the least-loaded post office, a personal group, a home filesystem
    on the least-loaded matching partition, and the default quota."""
    uid, login, fstype = args
    users = ctx.db.table("users")
    no_wildcards(login)
    row = exactly_one(users.select({"uid": uid}), MR_NO_MATCH, f"uid {uid}")
    if row["status"] != USER_STATE_REGISTERABLE:
        raise MoiraError(MR_IN_USE, f"uid {uid} has status {row['status']}")
    if users.select({"login": login}):
        raise MoiraError(MR_IN_USE, f"login {login!r}")

    pop_machine = _least_loaded_pop(ctx)
    group_gid = _create_user_group(ctx, login, row["users_id"])
    _create_home_filesystem(ctx, login, row, int(fstype), group_gid)

    users.update_rows(
        [row],
        dict(
            login=login,
            status=USER_STATE_HALF_REGISTERED,
            potype="POP",
            pop_id=pop_machine["mach_id"],
            **ctx.audit(), **ctx.audit("p"),
        ),
        now=ctx.now,
    )
    return []


def _least_loaded_pop(ctx: QueryContext):
    """Pick the POP serverhost with the most headroom (value1 < value2)."""
    hosts = ctx.db.table("serverhosts").select({"service": "POP"})
    candidates = [h for h in hosts
                  if h["enable"] and (h["value2"] == 0
                                      or h["value1"] < h["value2"])]
    if not candidates:
        raise MoiraError(MR_NO_POBOX, "no POP server with space")
    best = min(candidates, key=lambda h: h["value1"])
    ctx.db.table("serverhosts").update_rows(
        [best], {"value1": best["value1"] + 1}, now=ctx.now)
    machines = ctx.db.table("machine").select({"mach_id": best["mach_id"]})
    return machines[0]


def _create_user_group(ctx: QueryContext, login: str, users_id: int) -> int:
    gid = ctx.db.next_id("gid", now=ctx.now)
    list_id = ctx.db.next_id("list_id", now=ctx.now)
    ctx.db.table("list").insert(
        dict(
            name=login, list_id=list_id, active=1, public=0, hidden=0,
            maillist=0, grouplist=1, gid=gid,
            desc=f"personal group for {login}",
            acl_type="USER", acl_id=users_id, **ctx.audit(),
        ),
        now=ctx.now,
    )
    ctx.db.table("members").insert(
        {"list_id": list_id, "member_type": "USER", "member_id": users_id},
        now=ctx.now,
    )
    return gid


def _create_home_filesystem(ctx: QueryContext, login: str, user_row,
                            fstype: int, gid: int) -> None:
    quota = ctx.db.get_value("def_quota")
    partitions = ctx.db.table("nfsphys").select(
        predicate=lambda p: (p["status"] & fstype)
        and p["allocated"] + quota <= p["size"])
    if not partitions:
        raise MoiraError(MR_NO_FILESYS, f"no partition for fstype {fstype}")
    best = max(partitions, key=lambda p: p["size"] - p["allocated"])
    filsys_id = ctx.db.next_id("filsys_id", now=ctx.now)
    group_rows = ctx.db.table("list").select({"name": login})
    owners = group_rows[0]["list_id"] if group_rows else 0
    ctx.db.table("filesys").insert(
        dict(
            label=login, filsys_id=filsys_id, phys_id=best["nfsphys_id"],
            type="NFS", mach_id=best["mach_id"],
            name=f"{best['dir']}/{login}", mount=f"/mit/{login}",
            access="w", comments="", owner=user_row["users_id"],
            owners=owners, createflg=1, lockertype="HOMEDIR", fsorder=1,
            **ctx.audit(),
        ),
        now=ctx.now,
    )
    ctx.db.table("nfsquota").insert(
        dict(users_id=user_row["users_id"], filsys_id=filsys_id,
             phys_id=best["nfsphys_id"], quota=quota, **ctx.audit()),
        now=ctx.now,
    )
    ctx.db.table("nfsphys").update_rows(
        [best], {"allocated": best["allocated"] + quota}, now=ctx.now)


@register("update_user", "uusr",
          ("login", "newlogin", "uid", "shell", "last", "first", "middle",
           "status", "mitid", "class"),
          (), side_effects=True, tables=("users", "alias"))
def update_user(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Replace every account field; references follow a rename."""
    login, newlogin, uid, shell, last, first, middle, status, mitid, year = args
    users = ctx.db.table("users")
    row = exactly_one(users.select({"login": login}), MR_USER, login)
    if newlogin != login:
        no_wildcards(newlogin)
    if newlogin != login and users.select({"login": newlogin}):
        raise MoiraError(MR_NOT_UNIQUE, f"login {newlogin!r}")
    year = ctx.check_type("class", year, MR_BAD_CLASS)
    users.update_rows(
        [row],
        dict(login=newlogin, uid=int(uid), shell=shell, last=last,
             first=first, middle=middle, status=int(status), mit_id=mitid,
             mit_year=year, **ctx.audit()),
        now=ctx.now,
    )
    return []


@register("update_user_shell", "uush", ("login", "shell"), (),
          side_effects=True, access=_self_only, tables=("users",))
def update_user_shell(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Change a user's login shell (self-service allowed)."""
    login, shell = args
    users = ctx.db.table("users")
    row = exactly_one(users.select({"login": login}), MR_USER, login)
    users.update_rows([row], dict(shell=shell, **ctx.audit()), now=ctx.now)
    return []


@register("update_user_status", "uust", ("login", "status"), (),
          side_effects=True, tables=("users",))
def update_user_status(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Change a user's account status code."""
    login, status = args
    users = ctx.db.table("users")
    row = exactly_one(users.select({"login": login}), MR_USER, login)
    users.update_rows([row], dict(status=int(status), **ctx.audit()),
                      now=ctx.now)
    return []


def _user_references(ctx: QueryContext, users_id: int) -> bool:
    """Is the user a list member, quota holder, or owner/ACE of anything?"""
    if ctx.db.table("members").select(
            {"member_type": "USER", "member_id": users_id}):
        return True
    if ctx.db.table("nfsquota").select({"users_id": users_id}):
        return True
    if ctx.db.table("filesys").select({"owner": users_id}):
        return True
    for table, type_col, id_col in [
        ("list", "acl_type", "acl_id"),
        ("servers", "acl_type", "acl_id"),
        ("hostaccess", "acl_type", "acl_id"),
    ]:
        if ctx.db.table(table).select({type_col: "USER", id_col: users_id}):
            return True
    return False


def _delete_user_row(ctx: QueryContext, row) -> None:
    if row["status"] != USER_STATE_REGISTERABLE:
        raise MoiraError(MR_IN_USE,
                         f"{row['login']} has status {row['status']}")
    if _user_references(ctx, row["users_id"]):
        raise MoiraError(MR_IN_USE, row["login"])
    ctx.db.table("users").delete_rows([row], now=ctx.now)


@register("delete_user", "dusr", ("login",), (), side_effects=True,
          tables=("users", "members", "nfsquota", "filesys", "list",
                  "servers", "hostaccess"))
def delete_user(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Delete a status-0 user with no remaining references."""
    row = exactly_one(ctx.db.table("users").select({"login": args[0]}),
                      MR_USER, args[0])
    _delete_user_row(ctx, row)
    return []


@register("delete_user_by_uid", "dubu", ("uid",), (), side_effects=True,
          tables=("users", "members", "nfsquota", "filesys", "list",
                  "servers", "hostaccess"))
def delete_user_by_uid(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Delete a user located by uid (same constraints)."""
    row = exactly_one(ctx.db.table("users").select({"uid": args[0]}),
                      MR_USER, f"uid {args[0]}")
    _delete_user_row(ctx, row)
    return []


# -- finger ------------------------------------------------------------------

_FINGER_FIELDS = ("login", "fullname", "nickname", "home_addr", "home_phone",
                  "office_addr", "office_phone", "mit_dept", "mit_affil",
                  "fmodtime", "fmodby", "fmodwith")


@register("get_finger_by_login", "gfbl", ("login",), _FINGER_FIELDS,
          side_effects=False, access=_self_only)
def get_finger_by_login(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """All finger information for one user."""
    row = exactly_one(ctx.db.table("users").select({"login": args[0]}),
                      MR_USER, args[0])
    return [tuple(row[f] for f in _FINGER_FIELDS)]


@register("update_finger_by_login", "ufbl",
          ("login", "fullname", "nickname", "home_addr", "home_phone",
           "office_addr", "office_phone", "department", "affiliation"),
          (), side_effects=True, access=_self_only, tables=("users",))
def update_finger_by_login(ctx: QueryContext,
                           args: Sequence[str]) -> list[tuple]:
    """Replace the (free-form) finger fields for one user."""
    login = args[0]
    users = ctx.db.table("users")
    row = exactly_one(users.select({"login": login}), MR_USER, login)
    users.update_rows(
        [row],
        dict(fullname=args[1], nickname=args[2], home_addr=args[3],
             home_phone=args[4], office_addr=args[5], office_phone=args[6],
             mit_dept=args[7], mit_affil=args[8], **ctx.audit("f")),
        now=ctx.now,
    )
    return []


# -- post office boxes ---------------------------------------------------------


def _adjust_pop_load(ctx: QueryContext, mach_id: int, delta: int) -> None:
    """Maintain the POP serverhost's value1 ("the number of poboxes
    assigned to this server") as boxes move around."""
    if not mach_id:
        return
    rows = ctx.db.table("serverhosts").select(
        {"service": "POP", "mach_id": mach_id})
    if rows:
        ctx.db.table("serverhosts").update_rows(
            rows, {"value1": max(0, rows[0]["value1"] + delta)},
            now=ctx.now, touch_stats=False)


def _pobox_value(ctx: QueryContext, row) -> str:
    if row["potype"] == "POP":
        machines = ctx.db.table("machine").select({"mach_id": row["pop_id"]})
        return machines[0]["name"] if machines else "???"
    if row["potype"] == "SMTP":
        return ctx.string_by_id(row["box_id"])
    return "NONE"


@register("get_pobox", "gpob", ("login",),
          ("login", "type", "box", "modtime", "modby", "modwith"),
          side_effects=False, access=_self_only)
def get_pobox(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """A user's post office box assignment."""
    row = exactly_one(ctx.db.table("users").select({"login": args[0]}),
                      MR_USER, args[0])
    return [(row["login"], row["potype"], _pobox_value(ctx, row),
             row["pmodtime"], row["pmodby"], row["pmodwith"])]


@register("get_all_poboxes", "gapo", (), ("login", "type", "box"),
          side_effects=False)
def get_all_poboxes(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Every pobox in the database (type != NONE)."""
    return [(r["login"], r["potype"], _pobox_value(ctx, r))
            for r in ctx.db.table("users").rows if r["potype"] != "NONE"]


@register("get_poboxes_pop", "gpop", (), ("login", "type", "box"),
          side_effects=False)
def get_poboxes_pop(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """All POP-type poboxes."""
    return [(r["login"], "POP", _pobox_value(ctx, r))
            for r in ctx.db.table("users").select({"potype": "POP"})]


@register("get_poboxes_smtp", "gpos", (), ("login", "type", "box"),
          side_effects=False)
def get_poboxes_smtp(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """All SMTP-type poboxes."""
    return [(r["login"], "SMTP", _pobox_value(ctx, r))
            for r in ctx.db.table("users").select({"potype": "SMTP"})]


@register("set_pobox", "spob", ("login", "type", "box"), (),
          side_effects=True, access=_self_only,
          tables=("users", "alias", "machine", "serverhosts"))
def set_pobox(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Set a pobox: POP needs a known machine, SMTP a string."""
    login, potype, box = args
    users = ctx.db.table("users")
    row = exactly_one(users.select({"login": login}), MR_USER, login)
    potype = ctx.check_type("pobox", potype, MR_TYPE)
    changes: dict = {"potype": potype}
    if potype == "POP":
        machines = ctx.db.table("machine").select({"name": box.upper()})
        if len(machines) != 1:
            raise MoiraError(MR_MACHINE, box)
        changes["pop_id"] = machines[0]["mach_id"]
    elif potype == "SMTP":
        changes["box_id"] = ctx.intern_string(box)
    changes.update(ctx.audit("p"))
    was_pop = row["potype"] == "POP"
    old_pop_id = row["pop_id"]
    users.update_rows([row], changes, now=ctx.now)
    if was_pop and not (potype == "POP"
                        and changes.get("pop_id") == old_pop_id):
        _adjust_pop_load(ctx, old_pop_id, -1)
    if potype == "POP" and not (was_pop
                                and changes["pop_id"] == old_pop_id):
        _adjust_pop_load(ctx, changes["pop_id"], +1)
    return []


@register("set_pobox_pop", "spop", ("login",), (), side_effects=True,
          access=_self_only, tables=("users", "serverhosts"))
def set_pobox_pop(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Restore the previous POP assignment (MR_MACHINE if none)."""
    login = args[0]
    users = ctx.db.table("users")
    row = exactly_one(users.select({"login": login}), MR_USER, login)
    if row["potype"] == "POP":
        return []
    if not row["pop_id"]:
        raise MoiraError(MR_MACHINE, "no previous POP assignment")
    users.update_rows([row], dict(potype="POP", **ctx.audit("p")),
                      now=ctx.now)
    _adjust_pop_load(ctx, row["pop_id"], +1)
    return []


@register("delete_pobox", "dpob", ("login",), (), side_effects=True,
          access=_self_only, tables=("users", "serverhosts"))
def delete_pobox(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Remove a pobox by setting its type to NONE."""
    login = args[0]
    users = ctx.db.table("users")
    row = exactly_one(users.select({"login": login}), MR_USER, login)
    was_pop = row["potype"] == "POP"
    users.update_rows([row], dict(potype="NONE", **ctx.audit("p")),
                      now=ctx.now)
    if was_pop:
        _adjust_pop_load(ctx, row["pop_id"], -1)
    return []
