"""Miscellaneous queries (paper §7.0.7) and the built-in specials (§7.0.8).

Covers host access, network services, printcaps, aliases, the values
relation, table statistics, and the underscore-prefixed queries
(``_help``, ``_list_queries``; ``_list_users`` is served directly by the
Moira server since it reports live connections, not database rows).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import (
    MoiraError,
    MR_ACE,
    MR_EXISTS,
    MR_NO_HANDLE,
    MR_NO_MATCH,
    MR_NOT_UNIQUE,
)
from repro.protocol.wire import str_row
from repro.queries.base import (ACE_TYPES, MACHINE_NAME, Alias, Int, OneOf,
                                QueryContext, Reply, Upper, ace, exactly_one,
                                register)

_MACHINE = Upper("machine")
_HOST_ACCESS_ARGS = (_MACHINE, OneOf("ace_type", ACE_TYPES, MR_ACE),
                     "ace_name")


# -- host access (/.klogin generation) -------------------------------------------


_HOST_ACCESS = Reply("hostaccess", (MACHINE_NAME, "acl_type", ace(),
                                    "modtime", "modby", "modwith"))


@register("get_server_host_access", "gsha", (_MACHINE,),
          ("machine", "ace_type", "ace_name", "modtime", "modby",
           "modwith"),
          side_effects=False)
def get_server_host_access(ctx: QueryContext,
                           args: Sequence[str]) -> list[tuple]:
    """Who may log in on a machine (feeds /.klogin): one probe of
    ``hostaccess`` (unique on ``mach_id``) per matched machine, in the
    machines' order."""
    access = ctx.db.table("hostaccess").probe("mach_id")
    rows = (access(m["mach_id"])
            for m in ctx.db.table("machine").select({"name": args[0]}))
    return list(_HOST_ACCESS.texts(ctx, filter(None, rows)))


@register("add_server_host_access", "asha", _HOST_ACCESS_ARGS, (),
          side_effects=True)
def add_server_host_access(ctx: QueryContext,
                           args: Sequence[str]) -> list[tuple]:
    """Grant an entity access to a machine."""
    mach = ctx.find_machine(args[0])
    acl_type, acl_id = ctx.resolve_ace(args[1], args[2])
    ctx.db.table("hostaccess").insert(
        dict(mach_id=mach["mach_id"], acl_type=acl_type, acl_id=acl_id,
             **ctx.audit()),
        now=ctx.now)
    return []


@register("update_server_host_access", "usha", _HOST_ACCESS_ARGS, (),
          side_effects=True)
def update_server_host_access(ctx: QueryContext,
                              args: Sequence[str]) -> list[tuple]:
    """Change a machine's access entity."""
    mach = ctx.find_machine(args[0])
    rows = ctx.db.table("hostaccess").select({"mach_id": mach["mach_id"]})
    row = exactly_one(rows, MR_NO_MATCH, args[0])
    acl_type, acl_id = ctx.resolve_ace(args[1], args[2])
    ctx.db.table("hostaccess").update_rows(
        [row], dict(acl_type=acl_type, acl_id=acl_id, **ctx.audit()),
        now=ctx.now)
    return []


@register("delete_server_host_access", "dsha", (_MACHINE,), (),
          side_effects=True)
def delete_server_host_access(ctx: QueryContext,
                              args: Sequence[str]) -> list[tuple]:
    """Remove a machine's access record."""
    mach = ctx.find_machine(args[0])
    rows = ctx.db.table("hostaccess").select({"mach_id": mach["mach_id"]})
    row = exactly_one(rows, MR_NO_MATCH, args[0])
    ctx.db.table("hostaccess").delete_rows([row], now=ctx.now)
    return []


# -- network services (/etc/services) ----------------------------------------------


_SERVICE = Reply("services", ("name", "protocol", "port", "desc", "modtime",
                              "modby", "modwith"))


@register("get_service", "gsvc", ("service",),
          ("service", "protocol", "port", "description", "modtime",
           "modby", "modwith"),
          side_effects=False, public=True)
def get_service(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """An /etc/services entry by (wildcardable) name."""
    return list(_SERVICE.texts(
        ctx, ctx.db.table("services").select({"name": args[0]})))


@register("add_service", "asvc",
          ("service", Alias("protocol"), Int("port"), "description"), (),
          side_effects=True)
def add_service(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Add a network service (protocol type-checked)."""
    name, protocol, port, desc = args
    services = ctx.db.table("services")
    if services.select({"name": name}):
        raise MoiraError(MR_EXISTS, name)
    services.insert(dict(name=name, protocol=protocol, port=port,
                         desc=desc, **ctx.audit()), now=ctx.now)
    return []


def _delete_named(ctx: QueryContext, table: str, name: str) -> list[tuple]:
    """Delete the one *table* row called *name* (MR_NO_MATCH if none)."""
    rows = ctx.db.table(table).select({"name": name})
    ctx.db.table(table).delete_rows([exactly_one(rows, MR_NO_MATCH, name)],
                                    now=ctx.now)
    return []


@register("delete_service", "dsvc", ("service",), (), side_effects=True)
def delete_service(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Remove a network service."""
    return _delete_named(ctx, "services", args[0])


# -- printcap ------------------------------------------------------------------


_PRINTCAP = Reply("printcap", ("name", MACHINE_NAME, "dir", "rp",
                               "comments", "modtime", "modby", "modwith"))


@register("get_printcap", "gpcp", ("printer",),
          ("printer", "spool_host", "spool_directory", "rprinter",
           "comments", "modtime", "modby", "modwith"),
          side_effects=False, public=True)
def get_printcap(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Printer capability entries by (wildcardable) name."""
    return list(_PRINTCAP.texts(
        ctx, ctx.db.table("printcap").select({"name": args[0]})))


@register("add_printcap", "apcp",
          ("printer", Upper("spool_host"), "spool_directory", "rprinter",
           "comments"),
          (), side_effects=True)
def add_printcap(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Add a printer (spool host must exist)."""
    name, spool_host, spool_dir, rprinter, comments = args
    printcap = ctx.db.table("printcap")
    if printcap.select({"name": name}):
        raise MoiraError(MR_EXISTS, name)
    mach = ctx.find_machine(spool_host)
    printcap.insert(dict(name=name, mach_id=mach["mach_id"], dir=spool_dir,
                         rp=rprinter, comments=comments, **ctx.audit()),
                    now=ctx.now)
    return []


@register("delete_printcap", "dpcp", ("printer",), (), side_effects=True)
def delete_printcap(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Remove a printer."""
    return _delete_named(ctx, "printcap", args[0])


# -- aliases --------------------------------------------------------------------


_ALIAS = Reply("alias", ("name", "type", "trans"))


@register("get_alias", "gali", ("name", "type", "translation"),
          ("name", "type", "translation"), side_effects=False, public=True)
def get_alias(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Alias rows matching all three (wildcardable) fields."""
    return list(_ALIAS.texts(ctx, ctx.db.table("alias").select(
        {"name": args[0], "type": args[1], "trans": args[2]})))


@register("add_alias", "aali", ("name", Alias("type", "alias"), "translation"),
          (), side_effects=True)
def add_alias(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Add an alias row (alias type itself type-checked)."""
    name, atype, trans = args
    alias = ctx.db.table("alias")
    if alias.select({"name": name, "type": atype, "trans": trans}):
        raise MoiraError(MR_EXISTS, f"{name}/{atype}/{trans}")
    alias.insert({"name": name, "type": atype, "trans": trans}, now=ctx.now)
    return []


@register("delete_alias", "dali", ("name", "type", "translation"), (),
          side_effects=True)
def delete_alias(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Remove one exact alias row."""
    alias = ctx.db.table("alias")
    rows = alias.select({"name": args[0], "type": args[1],
                         "trans": args[2]})
    row = exactly_one(rows, MR_NOT_UNIQUE if len(rows) > 1 else MR_NO_MATCH,
                      "/".join(args))
    alias.delete_rows([row], now=ctx.now)
    return []


# -- values ---------------------------------------------------------------------


_VALUE = Reply("values", ("value",))


@register("get_value", "gval", ("variable",), ("value",),
          side_effects=False, public=True)
def get_value(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Look up a variable in the values relation."""
    return list(_VALUE.texts(
        ctx, ctx.db.table("values").select({"name": args[0]})))


@register("add_value", "aval", ("variable", Int("value")), (),
          side_effects=True)
def add_value(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Create a values variable."""
    values = ctx.db.table("values")
    if values.select({"name": args[0]}):
        raise MoiraError(MR_EXISTS, args[0])
    values.insert({"name": args[0], "value": args[1]}, now=ctx.now)
    return []


@register("update_value", "uval", ("variable", Int("value")), (),
          side_effects=True)
def update_value(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Replace a values variable's value."""
    values = ctx.db.table("values")
    rows = values.select({"name": args[0]})
    row = exactly_one(rows, MR_NO_MATCH, args[0])
    values.update_rows([row], {"value": args[1]}, now=ctx.now)
    return []


@register("delete_value", "dval", ("variable",), (), side_effects=True)
def delete_value(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Remove a values variable."""
    return _delete_named(ctx, "values", args[0])


# -- table statistics -------------------------------------------------------------


@register("get_all_table_stats", "gats", (),
          ("table", "retrieves", "appends", "updates", "deletes",
           "modtime"),
          side_effects=False, public=True)
def get_all_table_stats(ctx: QueryContext,
                        args: Sequence[str]) -> list[tuple]:
    """Per-relation append/update/delete counters."""
    return list(map(str_row, ctx.db.table_stats()))


# -- built-in specials (§7.0.8) -----------------------------------------------------


@register("_help", "help", ("query",), ("help_message",),
          side_effects=False, public=True)
def _help(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    from repro.queries.base import get_query
    query = get_query(args[0])
    if query is None:
        raise MoiraError(MR_NO_HANDLE, args[0])
    return [(query.help_text(),)]


@register("_list_queries", "lqer", (),
          ("long_query_name", "short_query_name"),
          side_effects=False, public=True)
def _list_queries(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    from repro.queries.base import all_queries
    return [(q.name, q.shortname)
            for q in sorted(all_queries().values(), key=lambda q: q.name)]
