"""hesiod.gen — the eleven BIND-format .db files (§5.8.2).

"With hesiod, all target machines receive identical files.  The DCM
will prepare only one set of files and then will propagate to several
target hosts."  Every record format below copies the paper's example
contents exactly (field orders, ``HS UNSPECA``/``HS CNAME`` records,
the ``.passwd``/``.uid`` CNAME pairing, pseudo-clusters for machines in
more than one cluster, and so on).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from repro.db.engine import Row, TableChange
from repro.dcm.generators.base import (
    GROUP,
    HOME,
    HOME_OWNER,
    MACHINE,
    MEMBER,
    POP_USERS,
    GenContext,
    Generator,
    GeneratorResult,
    referenced,
    register_generator,
    users_keyed,
    via_group,
    via_member,
)

__all__ = ["HesiodGenerator"]

DEFAULT_USERS_GID = 101  # the "users" group in the paper's passwd lines


def _record(name: str, data: str) -> str:
    return f'{name} HS UNSPECA "{data}"'


def _cname(name: str, target: str) -> str:
    return f"{name} HS CNAME {target}"


def _encode(text: str) -> bytes:
    return (text + "\n").encode("utf-8") if text else b""


def passwd_fields(ctx: GenContext, user: Row, gecos: str) -> str:
    """login:*:uid:gid:gecos:home:shell — the passwd line Hesiod and the
    mail hub share (their gecos suffixes differ)."""
    home = ctx.home_dir(user["users_id"])
    if home is None:
        home = f"/mit/{user['login']}"
    return (f"{user['login']}:*:{user['uid']}:{DEFAULT_USERS_GID}:"
            f"{user['fullname']}{gecos}:{home}:{user['shell']}")


def _passwd(ctx: GenContext, user: Row) -> str:
    return _record(f"{user['login']}.passwd",
                   passwd_fields(ctx, user, ",,,,"))


def _uid(ctx: GenContext, user: Row) -> str:
    return _cname(f"{user['uid']}.uid", f"{user['login']}.passwd")


def _pobox(ctx: GenContext, user: Row) -> Optional[str]:
    if user["potype"] != "POP":
        return None
    return _record(f"{user['login']}.pobox",
                   f"POP {ctx.machine_name(user['pop_id'])} "
                   f"{user['login']}")


def _grplist(ctx: GenContext, user: Row) -> Optional[str]:
    groups = ctx.user_groups(user["users_id"])
    if not groups:
        return None
    if len(groups) > 1:
        groups = sorted(groups, key=itemgetter("gid", "name"))
    pairs = ":".join(f"{g['name']}:{g['gid']}" for g in groups)
    return _record(f"{user['login']}.grplist", pairs)


class HesiodGenerator(Generator):
    """The eleven .db files, formats per §5.8.2.

    Each .db file declares the columns it reads, so a change rebuilds
    or patches only the files it reaches and leaves the rest
    byte-identical from the previous run.  The four with one line per
    user (passwd, uid, pobox, grplist) are patched row by row from the
    changed-row logs, grplist also through the ``members.member_id``
    index; the other seven are rebuilt when a change reaches them — a
    ``machine`` change only when a row of the file names that machine.
    """
    service = "HESIOD"
    reads = {
        "cluster.db": {"svc": ("clu_id", "serv_label", "serv_cluster"),
                       "cluster": ("clu_id", "name"),
                       "mcmap": ("mach_id", "clu_id"),
                       "machine": MACHINE},
        "filsys.db": {"filesys": ("label", "fsorder", "type", "name",
                                  "mach_id", "access", "mount"),
                      "machine": MACHINE},
        "gid.db": {"list": GROUP},
        "group.db": {"list": GROUP},
        "grplist.db": {"users": ("login", "users_id", "status"),
                       "list": GROUP, "members": MEMBER},
        "passwd.db": {"users": ("login", "users_id", "uid", "fullname",
                                "shell", "status"),
                      "filesys": HOME},
        "pobox.db": {"users": ("login", "potype", "pop_id", "status"),
                     "machine": MACHINE},
        "printcap.db": {"printcap": ("name", "rp", "mach_id", "dir"),
                        "machine": MACHINE},
        "service.db": {"services": ("name", "protocol", "port")},
        "sloc.db": {"serverhosts": ("service", "mach_id"),
                    "machine": MACHINE},
        "uid.db": {"users": ("login", "uid", "status")},
    }
    keyed = {
        "grplist.db": users_keyed(_grplist, ("groups_of_user",),
                                  members=via_member, list=via_group),
        "passwd.db": users_keyed(_passwd, ("home_dirs",),
                                 filesys=HOME_OWNER),
        "pobox.db": users_keyed(_pobox, ("machine_names",),
                                machine=POP_USERS),
        "uid.db": users_keyed(_uid),
    }
    via = {
        "cluster.db": {"machine": referenced("mcmap", "mach_id")},
        "filsys.db": {"machine": referenced("filesys", "mach_id")},
        "printcap.db": {"machine": referenced("printcap", "mach_id")},
        "sloc.db": {"machine": referenced("serverhosts", "mach_id")},
    }

    def generate(self, ctx: GenContext) -> GeneratorResult:
        """Extract all eleven BIND-format files."""
        return self._result(*self.build_parts(ctx, self.reads))

    def generate_incremental(
        self,
        ctx: GenContext,
        previous: GeneratorResult,
        changes: dict[str, Optional[list[TableChange]]],
    ) -> Optional[GeneratorResult]:
        """Patch or rebuild only the files the changes reach."""
        if not previous.files:
            return None
        return self._result(*self.build_parts(ctx, self.reads, previous,
                                              changes), previous)

    @staticmethod
    def _result(parts: dict, meta: dict,
                previous: Optional[GeneratorResult] = None
                ) -> GeneratorResult:
        # members carry their install path on the target host — the
        # hesiod daemon reads /etc/hesiod/*.db
        return GeneratorResult.from_parts(
            {f"/etc/hesiod/{name}": (name,) for name in parts}, parts,
            meta, previous)

    def build_output(self, ctx: GenContext, name: str) -> bytes:
        return _encode(getattr(self, f"_{name[:-3]}_db")(ctx))

    # -- the files rebuilt whole ----------------------------------------------

    def _cluster_db(self, ctx: GenContext) -> str:
        lines = [
            "; cluster data: per-cluster UNSPECA lines and per-machine",
            "; CNAMEs (machines in several clusters get a pseudo-cluster)",
        ]
        svc_by_cluster: dict[int, list] = {}
        for svc in ctx.db.table("svc").rows:
            svc_by_cluster.setdefault(svc["clu_id"], []).append(svc)
        cluster_names = {c["clu_id"]: c["name"]
                         for c in ctx.db.table("cluster").rows}
        for clu_id, name in sorted(cluster_names.items(),
                                   key=lambda kv: kv[1]):
            for svc in svc_by_cluster.get(clu_id, ()):
                lines.append(_record(
                    f"{name}.cluster",
                    f"{svc['serv_label']} {svc['serv_cluster']}"))
        # machine memberships
        clusters_of: dict[int, list[int]] = {}
        for row in ctx.db.table("mcmap").rows:
            clusters_of.setdefault(row["mach_id"], []).append(row["clu_id"])
        for mach_id, clu_ids in sorted(clusters_of.items()):
            machine = ctx.machine_names.get(mach_id)
            if machine is None:
                continue
            if len(clu_ids) == 1:
                lines.append(_cname(f"{machine}.cluster",
                                    f"{cluster_names[clu_ids[0]]}.cluster"))
            else:
                # pseudo-cluster holding the union of the cluster data
                pseudo = f"{machine.split('.')[0].lower()}-pseudo"
                for clu_id in sorted(clu_ids,
                                     key=lambda c: cluster_names[c]):
                    for svc in svc_by_cluster.get(clu_id, ()):
                        lines.append(_record(
                            f"{pseudo}.cluster",
                            f"{svc['serv_label']} {svc['serv_cluster']}"))
                lines.append(_cname(f"{machine}.cluster",
                                    f"{pseudo}.cluster"))
        return "\n".join(lines)

    def _filsys_db(self, ctx: GenContext) -> str:
        lines = []
        for fs in sorted(ctx.db.table("filesys").rows,
                         key=lambda r: (r["label"], r["fsorder"])):
            server = ctx.short_host(fs["mach_id"])
            lines.append(_record(
                f"{fs['label']}.filsys",
                f"{fs['type']} {fs['name']} {server} {fs['access']} "
                f"{fs['mount']}"))
        return "\n".join(lines)

    def _active_group_rows(self, ctx: GenContext):
        return sorted(ctx.active_groups, key=lambda g: g["gid"])

    def _gid_db(self, ctx: GenContext) -> str:
        return "\n".join(
            _cname(f"{g['gid']}.gid", f"{g['name']}.group")
            for g in self._active_group_rows(ctx))

    def _group_db(self, ctx: GenContext) -> str:
        return "\n".join(
            _record(f"{g['name']}.group", f"{g['name']}:*:{g['gid']}:")
            for g in self._active_group_rows(ctx))

    def _printcap_db(self, ctx: GenContext) -> str:
        lines = []
        for printer in sorted(ctx.db.table("printcap").rows,
                              key=lambda r: r["name"]):
            machine = ctx.machine_names.get(printer["mach_id"], "???")
            lines.append(_record(
                f"{printer['name']}.pcap",
                f"{printer['name']}:rp={printer['rp']}:rm={machine}:"
                f"sd={printer['dir']}"))
        return "\n".join(lines)

    def _service_db(self, ctx: GenContext) -> str:
        lines = []
        for svc in sorted(ctx.db.table("services").rows,
                          key=lambda r: (r["name"], r["protocol"])):
            lines.append(_record(
                f"{svc['name']}.service",
                f"{svc['name']} {svc['protocol'].lower()} {svc['port']}"))
        return "\n".join(lines)

    def _sloc_db(self, ctx: GenContext) -> str:
        lines = []
        for sh in sorted(ctx.db.table("serverhosts").rows,
                         key=lambda r: (r["service"], r["mach_id"])):
            machine = ctx.machine_names.get(sh["mach_id"], "???")
            lines.append(f"{sh['service']}.sloc HS UNSPECA {machine}")
        return "\n".join(lines)


register_generator(HesiodGenerator())
