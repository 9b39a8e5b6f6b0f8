"""nfs.gen — credentials, quotas, and directories files (§5.8.2).

"A master credentials file is generated which contains all active
users.  In addition, smaller credentials files may be produced if
necessary, with their membership taken from an Moira list" — the
serverhost's *value3* field names that list.  The quotas and
directories files are per-host: each contains only the filesystems
residing on that server's partitions.
"""

from __future__ import annotations

from typing import Optional

from repro.db.engine import Row, TableChange
from repro.dcm.generators.base import (
    GROUP,
    MACHINE,
    MEMBER,
    GenContext,
    Generator,
    GeneratorResult,
    changed_rows,
    register_generator,
    users_keyed,
    via_group,
    via_member,
)

__all__ = ["NFSGenerator"]

CREDENTIALS = "/etc/nfs/credentials"
_NO_FILES = {"quotas": b"", "directories": b""}


def _credential(ctx: GenContext, user: Row) -> str:
    """login:uid:gid... — the personal group first, then the others in
    gid order."""
    login = user["login"]
    groups = ctx.user_groups(user["users_id"])
    if len(groups) > 1:
        groups = sorted(groups, key=lambda g: (g["name"] != login,
                                               g["gid"], g["name"]))
    return ":".join([login, str(user["uid"]),
                     *(str(g["gid"]) for g in groups)])


def _own_hosts(ctx: GenContext, change: TableChange) -> list[Row]:
    """machine change -> this service's serverhosts rows on that machine
    (``ctx.hosts``; their per-host files are keyed by its name)."""
    ids = {row["mach_id"] for row in changed_rows(change)}
    return [host for host in ctx.hosts if host["mach_id"] in ids]


class NFSGenerator(Generator):
    """credentials + per-host quotas/directories files.

    The master credentials file is patched per user — the users log,
    and the ``members.member_id`` index for a membership change; the
    per-host files (a value3-restricted credentials file, quotas,
    directories) are rebuilt when a change reaches them — a ``machine``
    change when it renames one of the service's hosts — and otherwise
    carried over.
    """
    service = "NFS"
    reads = {
        "credentials": {"users": ("login", "uid", "users_id", "status"),
                        "list": GROUP, "members": MEMBER},
        # which hosts there are, what they are called, and which list
        # restricts each one
        "hosts": {"serverhosts": ("service", "mach_id", "value3"),
                  "machine": MACHINE},
        "quotas": {"nfsquota": ("users_id", "phys_id", "quota"),
                   "nfsphys": ("nfsphys_id", "mach_id"),
                   "users": ("users_id", "uid", "status")},
        "directories": {"filesys": ("filsys_id", "type", "createflg",
                                    "mach_id", "owner", "owners", "name",
                                    "lockertype"),
                        "users": ("users_id", "uid"),
                        "list": ("list_id", "gid")},
    }
    keyed = {
        "credentials": users_keyed(_credential, ("groups_of_user",),
                                   members=via_member, list=via_group),
    }
    via = {"hosts": {"machine": _own_hosts}}

    def generate(self, ctx: GenContext) -> GeneratorResult:
        """Extract NFS files; value3 restricts credentials."""
        parts, meta = self.build_parts(ctx, ("credentials",))
        return self._result(ctx, parts, meta, None, True, True)

    def generate_incremental(
        self,
        ctx: GenContext,
        previous: GeneratorResult,
        changes: dict[str, Optional[list[TableChange]]],
    ) -> Optional[GeneratorResult]:
        """Patch the master credentials; rebuild per-host files only
        when a change reaches them."""
        if not previous.files:
            return None
        parts, meta = self.build_parts(ctx, ("credentials",), previous,
                                       changes)
        hosts = bool(self.dirty("hosts", changes, ctx))
        return self._result(
            ctx, parts, meta, previous,
            hosts or bool(self.dirty("quotas", changes, ctx)
                          or self.dirty("directories", changes, ctx)),
            hosts or bool(self.dirty("credentials", changes, ctx)))

    def _result(self, ctx: GenContext, parts: dict, meta: dict,
                previous: Optional[GeneratorResult], per_host: bool,
                restricted: bool) -> GeneratorResult:
        result = GeneratorResult.from_parts(
            {CREDENTIALS: ("credentials",)}, parts, meta, previous)
        if previous is not None and not (per_host or restricted):
            result.host_files = previous.host_files
            return result
        fresh = self._per_host_files(ctx) if per_host else None
        for host_row in ctx.hosts:
            machine = ctx.find("machine", {"mach_id": host_row["mach_id"]})
            if machine is None:
                continue
            name = machine["name"].upper()
            old = previous.host_files.get(name, {}) if previous else {}
            if fresh is not None:
                files = {f"/etc/nfs/{kind}": data for kind, data in
                         fresh.get(host_row["mach_id"], _NO_FILES).items()}
            else:
                files = {path: data for path, data in old.items()
                         if path != CREDENTIALS}
            # "Which credentials file is loaded on a particular server is
            # determined by the value3 field of the serverhost relation."
            if host_row["value3"]:
                files[CREDENTIALS] = (
                    self._credentials(ctx, host_row["value3"])
                    if restricted or CREDENTIALS not in old
                    else old[CREDENTIALS])
            result.host_files[name] = files
        return result

    # -- a value3-restricted credentials file ---------------------------------

    def _credentials(self, ctx: GenContext, list_name: str) -> bytes:
        """The master file's lines for the users of *list_name*."""
        lists = ctx.db.table("list").select({"name": list_name})
        allowed = (ctx.expand_list_users(lists[0]["list_id"])
                   if lists else set())
        lines = [_credential(ctx, user)
                 for user in sorted(ctx.active_users,
                                    key=lambda u: u["login"])
                 if user["users_id"] in allowed]
        return ("\n".join(lines) + "\n").encode() if lines else b""

    # -- per-host quotas and directories ----------------------------------------

    def _per_host_files(self, ctx: GenContext) -> dict[int, dict[str, bytes]]:
        phys_host = {p["nfsphys_id"]: p["mach_id"]
                     for p in ctx.db.table("nfsphys").rows}
        fs_by_id = {f["filsys_id"]: f for f in ctx.db.table("filesys").rows}

        quota_lines: dict[int, list[str]] = {}
        for quota in ctx.db.table("nfsquota").rows:
            mach_id = phys_host.get(quota["phys_id"])
            if mach_id is None:
                continue
            user = ctx.users_by_id.get(quota["users_id"])
            if user is None or user["status"] != 1:
                continue
            quota_lines.setdefault(mach_id, []).append(
                f"{user['uid']} {quota['quota']}")

        dir_lines: dict[int, list[str]] = {}
        for fs in fs_by_id.values():
            # "Only lockers with the autocreate flag set will be output."
            if fs["type"] != "NFS" or not fs["createflg"]:
                continue
            mach_id = fs["mach_id"]
            owner = ctx.users_by_id.get(fs["owner"])
            owner_uid = owner["uid"] if owner else 0
            owners = ctx.lists_by_id.get(fs["owners"])
            gid = owners["gid"] if owners else 0
            dir_lines.setdefault(mach_id, []).append(
                f"{fs['name']} {owner_uid} {gid} {fs['lockertype']}")

        out: dict[int, dict[str, bytes]] = {}
        for mach_id in set(quota_lines) | set(dir_lines):
            quotas = sorted(quota_lines.get(mach_id, ()))
            dirs = sorted(dir_lines.get(mach_id, ()))
            out[mach_id] = {
                "quotas": ("\n".join(quotas) + "\n").encode()
                if quotas else b"",
                "directories": ("\n".join(dirs) + "\n").encode()
                if dirs else b"",
            }
        return out


register_generator(NFSGenerator())
