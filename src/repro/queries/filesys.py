"""Filesystem, NFS physical partition, and quota queries (paper §7.0.5)."""

from __future__ import annotations

from typing import Sequence

from repro.errors import (
    MoiraError,
    MR_FILESYS,
    MR_FILESYS_ACCESS,
    MR_FSTYPE,
    MR_NFS,
    MR_NFSPHYS,
    MR_NO_MATCH,
    MR_NOT_UNIQUE,
    MR_QUOTA,
    MR_USER,
)
from repro.queries.base import (MACHINE_NAME, Alias, Int, Join,
                                QueryContext, Reply, Upper, exactly_one,
                                name_of, register)

_FS_FIELDS = ("name", "fstype", "machine", "packname", "mountpoint",
              "access", "comments", "owner", "owners", "create",
              "lockertype", "modtime", "modby", "modwith")
_FS = Reply("filesys", (
    "label", "type", MACHINE_NAME, "name", "mount", "access", "comments",
    name_of("owner", "users", "users_id", "login"),
    name_of("owners", "list", "list_id"), "createflg", "lockertype",
    "modtime", "modby", "modwith"))


@register("get_filesys_by_label", "gfsl", ("name",), _FS_FIELDS,
          side_effects=False, public=True)
def get_filesys_by_label(ctx: QueryContext, args: Sequence[str]):
    """Filesystem info by (wildcardable) label.

    Lazy: yields tuples as the scan produces them, so the server can
    stream MR_MORE_DATA replies before a large wildcard scan finishes.
    """
    return _FS.texts(
        ctx, ctx.db.table("filesys").iter_select({"label": args[0]}))


_MACHINE = Upper("machine")


@register("get_filesys_by_machine", "gfsm", (_MACHINE,), _FS_FIELDS,
          side_effects=False)
def get_filesys_by_machine(ctx: QueryContext,
                           args: Sequence[str]) -> list[tuple]:
    """All filesystems served by one machine."""
    mach = ctx.find_machine(args[0])
    return list(_FS.texts(ctx, ctx.db.table("filesys").select(
        {"mach_id": mach["mach_id"]})))


@register("get_filesys_by_nfsphys", "gfsn", (_MACHINE, "partition"),
          _FS_FIELDS, side_effects=False)
def get_filesys_by_nfsphys(ctx: QueryContext,
                           args: Sequence[str]) -> list[tuple]:
    """Filesystems on one exported partition."""
    mach = ctx.find_machine(args[0])
    phys = ctx.db.table("nfsphys").select(
        {"mach_id": mach["mach_id"], "dir": args[1]})
    if not phys:
        raise MoiraError(MR_NO_MATCH, args[1])
    filesys = ctx.db.table("filesys")
    return list(_FS.texts(ctx, (
        r for p in phys
        for r in filesys.select({"phys_id": p["nfsphys_id"]}))))


@register("get_filesys_by_group", "gfsg", ("list",), _FS_FIELDS,
          side_effects=False,
          access=lambda ctx, args: (
              (rows := ctx.db.table("list").select({"name": str(args[0])}))
              and len(rows) == 1
              and ctx.user_on_list_id(rows[0]["list_id"], ctx.caller)))
def get_filesys_by_group(ctx: QueryContext,
                         args: Sequence[str]) -> list[tuple]:
    """Filesystems owned by a list (members may ask)."""
    lst = ctx.find_list(args[0])
    return list(_FS.texts(ctx, ctx.db.table("filesys").select(
        {"owners": lst["list_id"]})))


_FS_ARGS = (Alias("fstype", "filesys", MR_FSTYPE), _MACHINE, "packname",
            "mountpoint", "access", "comments", "owner", "owners",
            Int("create"), Alias("lockertype"))


def _filesys_fields(ctx: QueryContext, args: Sequence) -> dict:
    """The columns add_filesys and update_filesys set from their
    arguments after the name(s): NFS packnames must be exported, and
    NFS access r or w."""
    (fstype, machine, packname, mountpoint, access, comments, owner,
     owners, create, lockertype) = args
    mach = ctx.find_machine(machine)
    phys_id = 0
    if fstype == "NFS":
        if access not in ("r", "w"):
            raise MoiraError(MR_FILESYS_ACCESS, access)
        # the packname must name an exported NFS physical partition:
        # either the partition dir itself or a directory under it.
        phys_rows = ctx.db.table("nfsphys").select(
            {"mach_id": mach["mach_id"]})
        for p in phys_rows:
            if packname == p["dir"] or packname.startswith(p["dir"] + "/"):
                phys_id = p["nfsphys_id"]
                break
        else:
            raise MoiraError(MR_NFS, f"{machine}:{packname}")
    return dict(phys_id=phys_id, type=fstype, mach_id=mach["mach_id"],
                name=packname, mount=mountpoint, access=access,
                comments=comments, owner=ctx.find_user(owner)["users_id"],
                owners=ctx.find_list(owners)["list_id"], createflg=create,
                lockertype=lockertype, **ctx.audit())


@register("add_filesys", "afil", ("name", *_FS_ARGS), (), side_effects=True)
def add_filesys(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Add a filesystem; it goes last in its label's mount order."""
    filesys = ctx.db.table("filesys")
    existing = filesys.select({"label": args[0]})
    fields = _filesys_fields(ctx, args[1:])
    filesys.insert(
        dict(label=args[0], filsys_id=ctx.db.next_id("filsys_id", now=ctx.now),
             fsorder=len(existing) + 1, **fields),
        now=ctx.now)
    return []


@register("update_filesys", "ufil", ("name", "newname", *_FS_ARGS), (),
          side_effects=True)
def update_filesys(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Change filesystem attributes; same checks as add.  Its quotas,
    and their blocks, move with it to a new partition."""
    name, newname = args[:2]
    filesys = ctx.db.table("filesys")
    row = exactly_one(filesys.select({"label": name}), MR_FILESYS, name)
    if newname != name and filesys.select({"label": newname}):
        raise MoiraError(MR_NOT_UNIQUE, newname)
    fields = _filesys_fields(ctx, args[2:])
    if fields["phys_id"] != row["phys_id"]:
        quotas = ctx.db.table("nfsquota").select(
            {"filsys_id": row["filsys_id"]})
        total = sum(q["quota"] for q in quotas)
        _adjust_phys_allocation(ctx, row["phys_id"], -total)
        _adjust_phys_allocation(ctx, fields["phys_id"], total)
        ctx.db.table("nfsquota").update_rows(
            quotas, {"phys_id": fields["phys_id"]}, now=ctx.now)
    filesys.update_rows([row], dict(label=newname, **fields), now=ctx.now)
    return []


@register("delete_filesys", "dfil", ("name",), (), side_effects=True)
def delete_filesys(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Delete a filesystem and its quotas, returning their allocation
    to the partition."""
    row = exactly_one(ctx.db.table("filesys").select({"label": args[0]}),
                      MR_FILESYS, args[0])
    quotas = ctx.db.table("nfsquota").select({"filsys_id": row["filsys_id"]})
    _adjust_phys_allocation(ctx, row["phys_id"],
                            -sum(q["quota"] for q in quotas))
    ctx.delete("filesys", row, args[0])
    return []


# -- NFS physical partitions -----------------------------------------------------

_NFSPHYS_FIELDS = ("machine", "dir", "device", "status", "allocated",
                   "size", "modtime", "modby", "modwith")


_NFSPHYS = Reply("nfsphys", (MACHINE_NAME, "dir", "device", "status",
                             "allocated", "size", "modtime", "modby",
                             "modwith"))


@register("get_all_nfsphys", "ganf", (), _NFSPHYS_FIELDS,
          side_effects=False)
def get_all_nfsphys(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Every exported NFS physical partition."""
    return list(_NFSPHYS.texts(ctx, ctx.db.table("nfsphys").rows))


@register("get_nfsphys", "gnfp", (_MACHINE, "dir"), _NFSPHYS_FIELDS,
          side_effects=False)
def get_nfsphys(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """One machine's partitions (directory may wildcard)."""
    mach = ctx.find_machine(args[0])
    return list(_NFSPHYS.texts(ctx, ctx.db.table("nfsphys").select(
        {"mach_id": mach["mach_id"], "dir": args[1]})))


# the settable nfsphys columns, named as the arguments are
_PHYS_COLUMNS = ("device", "status", "allocated", "size")
_NFSPHYS_ARGS = (_MACHINE, "dir", "device", *map(Int, _PHYS_COLUMNS[1:]))


@register("add_nfsphys", "anfp", _NFSPHYS_ARGS, (), side_effects=True)
def add_nfsphys(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Export a new physical partition."""
    mach = ctx.find_machine(args[0])
    nfsphys_id = ctx.db.next_id("nfsphys_id", now=ctx.now)
    ctx.db.table("nfsphys").insert(
        dict(zip(_PHYS_COLUMNS, args[2:]), nfsphys_id=nfsphys_id,
             mach_id=mach["mach_id"], dir=args[1], **ctx.audit()),
        now=ctx.now)
    return []


def _find_nfsphys(ctx: QueryContext, machine: str, directory: str):
    mach = ctx.find_machine(machine)
    rows = ctx.db.table("nfsphys").select(
        {"mach_id": mach["mach_id"], "dir": directory})
    return exactly_one(rows, MR_NFSPHYS, f"{machine}:{directory}")


@register("update_nfsphys", "unfp", _NFSPHYS_ARGS, (), side_effects=True)
def update_nfsphys(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Change a partition's device/status/allocation/size."""
    row = _find_nfsphys(ctx, args[0], args[1])
    ctx.db.table("nfsphys").update_rows(
        [row], dict(zip(_PHYS_COLUMNS, args[2:]), **ctx.audit()),
        now=ctx.now)
    return []


@register("adjust_nfsphys_allocation", "ajnf",
          (_MACHINE, "dir", Int("delta")), (), side_effects=True)
def adjust_nfsphys_allocation(ctx: QueryContext,
                              args: Sequence[str]) -> list[tuple]:
    """Add a (signed) delta to a partition's allocation."""
    row = _find_nfsphys(ctx, args[0], args[1])
    ctx.db.table("nfsphys").update_rows(
        [row], dict(allocated=row["allocated"] + args[2], **ctx.audit()),
        now=ctx.now)
    return []


@register("delete_nfsphys", "dnfp", (_MACHINE, "dir"), (),
          side_effects=True)
def delete_nfsphys(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Remove an export with no filesystems on it."""
    ctx.delete("nfsphys", _find_nfsphys(ctx, args[0], args[1]),
               f"{args[0]}:{args[1]}")
    return []


# -- quotas ------------------------------------------------------------------


def _partition_machines(ctx: QueryContext):
    """A partition's machine name, by its nfsphys_id."""
    mach_id = ctx.lookup("nfsphys", "nfsphys_id", "mach_id")
    machine = ctx.lookup("machine", "mach_id", "name")

    def name(phys_id: int) -> str:
        found = mach_id(phys_id)
        return "???" if found == "???" else machine(found)
    return name


# an nfsquota row: filesys, login, quota, directory, machine
_QUOTA_FIELDS = (name_of("filsys_id", "filesys", "filsys_id", "label"),
                 name_of("users_id", "users", "users_id", "login"), "quota",
                 name_of("phys_id", "nfsphys", "nfsphys_id", "dir"),
                 Join(("phys_id",), _partition_machines))
_QUOTA = Reply("nfsquota", (*_QUOTA_FIELDS, "modtime", "modby", "modwith"))
_PARTITION_QUOTA = Reply("nfsquota", _QUOTA_FIELDS)


def _fs_owner_access(ctx: QueryContext, args: Sequence[str]) -> bool:
    """Relaxation: the owner of the target filesystem may run the query."""
    rows = ctx.db.table("filesys").select({"label": str(args[0])})
    if len(rows) != 1:
        return False
    caller = ctx.caller_row()
    if caller is None:
        return False
    if rows[0]["owner"] == caller["users_id"]:
        return True
    return ctx.user_on_list_id(rows[0]["owners"], ctx.caller)


@register("get_nfs_quota", "gnfq", ("filesys", "login"),
          ("filesys", "login", "quota", "directory", "machine", "modtime",
           "modby", "modwith"),
          side_effects=False, access=_fs_owner_access)
def get_nfs_quota(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """A user's quota on matching filesystems."""
    user = ctx.find_user(args[1])
    fs_rows = ctx.db.table("filesys").select({"label": args[0]})
    fs_ids = {f["filsys_id"] for f in fs_rows}
    return list(_QUOTA.texts(ctx, [
        r for r in ctx.db.table("nfsquota").select(
            {"users_id": user["users_id"]})
        if r["filsys_id"] in fs_ids]))


@register("get_nfs_quotas_by_partition", "gnqp", (_MACHINE, "dir"),
          ("filesys", "login", "quota", "directory", "machine"),
          side_effects=False)
def get_nfs_quotas_by_partition(ctx: QueryContext,
                                args: Sequence[str]) -> list[tuple]:
    """Every quota on one partition (partitions in turn, when the
    directory is a wildcard): a probe of the phys_id index each."""
    mach = ctx.find_machine(args[0])
    phys_rows = ctx.db.table("nfsphys").select(
        {"mach_id": mach["mach_id"], "dir": args[1]})
    quotas = ctx.db.table("nfsquota")
    return list(_PARTITION_QUOTA.texts(ctx, (
        r for p in phys_rows
        for r in quotas.select({"phys_id": p["nfsphys_id"]}))))


def _adjust_phys_allocation(ctx: QueryContext, phys_id: int,
                            delta: int) -> None:
    if not phys_id or not delta:
        return
    phys = ctx.db.table("nfsphys").select({"nfsphys_id": phys_id})
    if phys:
        ctx.db.table("nfsphys").update_rows(
            phys, {"allocated": phys[0]["allocated"] + delta}, now=ctx.now)


def _quota_target(ctx: QueryContext, label: str, login: str) -> tuple:
    """The filesystem row and the users row an ``*_nfs_quota`` names."""
    fs = exactly_one(ctx.db.table("filesys").select({"label": label}),
                     MR_FILESYS, label)
    return fs, ctx.find_user(login)


def _find_quota(ctx: QueryContext, label: str, login: str) -> tuple:
    """The filesystem row and *login*'s nfsquota row on it."""
    fs, user = _quota_target(ctx, label, login)
    rows = ctx.db.table("nfsquota").select(
        {"users_id": user["users_id"], "filsys_id": fs["filsys_id"]})
    return fs, exactly_one(rows, MR_USER, f"no quota for {login} on {label}")


@register("add_nfs_quota", "anfq", ("filesys", "login", Int("quota")), (),
          side_effects=True)
def add_nfs_quota(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Grant a quota; partition allocation increases."""
    fs, user = _quota_target(ctx, args[0], args[1])
    quota = args[2]
    if quota < 0:
        raise MoiraError(MR_QUOTA, str(quota))
    ctx.db.table("nfsquota").insert(
        dict(users_id=user["users_id"], filsys_id=fs["filsys_id"],
             phys_id=fs["phys_id"], quota=quota, **ctx.audit()),
        now=ctx.now)
    _adjust_phys_allocation(ctx, fs["phys_id"], quota)
    return []


@register("update_nfs_quota", "unfq", ("filesys", "login", Int("quota")), (),
          side_effects=True)
def update_nfs_quota(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Change a quota; allocation moves by the delta."""
    quota = args[2]
    if quota < 0:
        raise MoiraError(MR_QUOTA, str(quota))
    fs, row = _find_quota(ctx, args[0], args[1])
    _adjust_phys_allocation(ctx, fs["phys_id"], quota - row["quota"])
    ctx.db.table("nfsquota").update_rows(
        [row], dict(quota=quota, **ctx.audit()), now=ctx.now)
    return []


@register("delete_nfs_quota", "dnfq", ("filesys", "login"), (),
          side_effects=True)
def delete_nfs_quota(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Revoke a quota; allocation decreases."""
    fs, row = _find_quota(ctx, args[0], args[1])
    _adjust_phys_allocation(ctx, fs["phys_id"], -row["quota"])
    ctx.db.table("nfsquota").delete_rows([row], now=ctx.now)
    return []
