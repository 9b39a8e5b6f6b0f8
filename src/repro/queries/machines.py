"""Machine and cluster queries (paper §7.0.2)."""

from __future__ import annotations

from typing import Sequence

from repro.errors import (
    MoiraError,
    MR_CLUSTER,
    MR_MACHINE,
    MR_NO_MATCH,
    MR_NOT_UNIQUE,
)
from repro.queries.base import (Alias, Name, QueryContext, Reply, Upper,
                                exactly_one, register)

_MACH_TYPE = Alias("type", "mach_type")
_MACHINE = Upper("machine")
_MACHINE_INFO = Reply("machine", ("name", "type", "modtime", "modby",
                                  "modwith"))
_CLUSTER = Reply("cluster", ("name", "desc", "location", "modtime", "modby",
                             "modwith"))


@register("get_machine", "gmac", (Upper("name"),),
          ("name", "type", "modtime", "modby", "modwith"),
          side_effects=False, public=True)
def get_machine(ctx: QueryContext, args: Sequence[str]):
    """Machine info by (wildcardable, case-insensitive) name.

    Lazy: yields tuples as the scan produces them, so the server can
    stream MR_MORE_DATA replies before a large wildcard scan finishes.
    """
    return _MACHINE_INFO.texts(
        ctx, ctx.db.table("machine").iter_select({"name": args[0]}))


@register("add_machine", "amac", (Name("name", upper=True), _MACH_TYPE), (),
          side_effects=True)
def add_machine(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Add a machine; the name is uppercased, the type checked."""
    name, mtype = args
    machines = ctx.db.table("machine")
    if machines.select({"name": name}):
        raise MoiraError(MR_NOT_UNIQUE, name)
    mach_id = ctx.db.next_id("mach_id", now=ctx.now)
    machines.insert(dict(name=name, mach_id=mach_id, type=mtype,
                         **ctx.audit()), now=ctx.now)
    return []


@register("update_machine", "umac",
          (Upper("name"), Name("newname", upper=True), _MACH_TYPE), (),
          side_effects=True)
def update_machine(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Rename a machine and/or change its type."""
    name, newname, mtype = args
    machines = ctx.db.table("machine")
    row = exactly_one(machines.select({"name": name}), MR_MACHINE, name)
    if newname != row["name"] and machines.select({"name": newname}):
        raise MoiraError(MR_NOT_UNIQUE, newname)
    machines.update_rows([row], dict(name=newname, type=mtype,
                                     **ctx.audit()), now=ctx.now)
    return []


@register("delete_machine", "dmac", (Upper("name"),), (), side_effects=True)
def delete_machine(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Delete a machine that nothing references."""
    ctx.delete("machine", ctx.find_machine(args[0]), args[0])
    return []


# -- clusters -----------------------------------------------------------------


@register("get_cluster", "gclu", ("name",),
          ("name", "description", "location", "modtime", "modby", "modwith"),
          side_effects=False, public=True)
def get_cluster(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Cluster info by (wildcardable, case-sensitive) name."""
    return list(_CLUSTER.texts(
        ctx, ctx.db.table("cluster").select({"name": args[0]})))


@register("add_cluster", "aclu", (Name("name"), "description", "location"),
          (), side_effects=True)
def add_cluster(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Add a cluster; names are case sensitive."""
    name, desc, location = args
    clusters = ctx.db.table("cluster")
    if clusters.select({"name": name}):
        raise MoiraError(MR_NOT_UNIQUE, name)
    clu_id = ctx.db.next_id("clu_id", now=ctx.now)
    clusters.insert(dict(name=name, clu_id=clu_id, desc=desc,
                         location=location, **ctx.audit()), now=ctx.now)
    return []


@register("update_cluster", "uclu",
          ("name", Name("newname"), "description", "location"), (),
          side_effects=True)
def update_cluster(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Rename a cluster and/or change its description/location."""
    name, newname, desc, location = args
    clusters = ctx.db.table("cluster")
    row = exactly_one(clusters.select({"name": name}), MR_CLUSTER, name)
    if newname != name and clusters.select({"name": newname}):
        raise MoiraError(MR_NOT_UNIQUE, newname)
    clusters.update_rows([row], dict(name=newname, desc=desc,
                                     location=location, **ctx.audit()),
                         now=ctx.now)
    return []


@register("delete_cluster", "dclu", ("name",), (), side_effects=True)
def delete_cluster(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Delete a machine-less cluster (service data goes too)."""
    ctx.delete("cluster", ctx.find_cluster(args[0]), args[0])
    return []


# -- machine/cluster map ---------------------------------------------------------


@register("get_machine_to_cluster_map", "gmcm", (_MACHINE, "cluster"),
          ("machine", "cluster"), side_effects=False, public=True)
def get_machine_to_cluster_map(ctx: QueryContext,
                               args: Sequence[str]) -> list[tuple]:
    """Machine/cluster pairs matching both patterns."""
    machine_pat, cluster_pat = args
    machines = {m["mach_id"]: m["name"]
                for m in ctx.db.table("machine").select({"name": machine_pat})}
    clusters = {c["clu_id"]: c["name"]
                for c in ctx.db.table("cluster").select({"name": cluster_pat})}
    out = []
    for row in ctx.db.table("mcmap").rows:
        if row["mach_id"] in machines and row["clu_id"] in clusters:
            out.append((machines[row["mach_id"]], clusters[row["clu_id"]]))
    return out


@register("add_machine_to_cluster", "amtc", (_MACHINE, "cluster"), (),
          side_effects=True)
def add_machine_to_cluster(ctx: QueryContext,
                           args: Sequence[str]) -> list[tuple]:
    """Put a machine in a cluster."""
    machine = ctx.find_machine(args[0])
    cluster = ctx.find_cluster(args[1])
    ctx.db.table("mcmap").insert(
        {"mach_id": machine["mach_id"], "clu_id": cluster["clu_id"]},
        now=ctx.now)
    ctx.db.table("machine").update_rows([machine], ctx.audit(), now=ctx.now)
    return []


@register("delete_machine_from_cluster", "dmfc", (_MACHINE, "cluster"), (),
          side_effects=True)
def delete_machine_from_cluster(ctx: QueryContext,
                                args: Sequence[str]) -> list[tuple]:
    """Take a machine out of a cluster."""
    machine = ctx.find_machine(args[0])
    cluster = ctx.find_cluster(args[1])
    mcmap = ctx.db.table("mcmap")
    rows = mcmap.select({"mach_id": machine["mach_id"],
                         "clu_id": cluster["clu_id"]})
    if not rows:
        raise MoiraError(MR_NO_MATCH, args[0])
    mcmap.delete_rows(rows, now=ctx.now)
    ctx.db.table("machine").update_rows([machine], ctx.audit(), now=ctx.now)
    return []


# -- cluster service data ---------------------------------------------------------


@register("get_cluster_data", "gcld", ("cluster", "label"),
          ("cluster", "label", "data"), side_effects=False, public=True)
def get_cluster_data(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Service (label, data) records for matching clusters."""
    cluster_pat, label_pat = args
    clusters = {c["clu_id"]: c["name"]
                for c in ctx.db.table("cluster").select({"name": cluster_pat})}
    out = []
    for row in ctx.db.table("svc").select({"serv_label": label_pat}):
        if row["clu_id"] in clusters:
            out.append((clusters[row["clu_id"]], row["serv_label"],
                        row["serv_cluster"]))
    return out


@register("add_cluster_data", "acld",
          ("cluster", Alias("label", "slabel"), "data"), (),
          side_effects=True)
def add_cluster_data(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Attach service data to a cluster (label type-checked)."""
    cluster = ctx.find_cluster(args[0])
    ctx.db.table("svc").insert(
        {"clu_id": cluster["clu_id"], "serv_label": args[1],
         "serv_cluster": args[2]},
        now=ctx.now)
    ctx.db.table("cluster").update_rows([cluster], ctx.audit(), now=ctx.now)
    return []


@register("delete_cluster_data", "dcld", ("cluster", "label", "data"), (),
          side_effects=True)
def delete_cluster_data(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Remove one exact piece of cluster service data."""
    cluster = ctx.find_cluster(args[0])
    svc = ctx.db.table("svc")
    rows = svc.select({"clu_id": cluster["clu_id"], "serv_label": args[1],
                       "serv_cluster": args[2]})
    row = exactly_one(rows, MR_NOT_UNIQUE, f"{args[1]}/{args[2]}")
    svc.delete_rows([row], now=ctx.now)
    ctx.db.table("cluster").update_rows([cluster], ctx.audit(), now=ctx.now)
    return []
