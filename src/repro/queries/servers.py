"""Server and server-host queries (paper §7.0.4) — the DCM's tables."""

from __future__ import annotations

from typing import Sequence

from repro.errors import (
    MoiraError,
    MR_ACE,
    MR_IN_USE,
    MR_SERVICE,
)
from repro.queries.base import (ACE_TYPES, MACHINE_NAME, Alias, Int, OneOf,
                                QueryContext, Reply, Tristate, Upper, ace,
                                exactly_one, register)

_SERVER_FIELDS = ("service", "interval", "target", "script", "dfgen",
                  "dfcheck", "type", "enable", "inprogress", "harderror",
                  "errmsg", "ace_type", "ace_name", "modtime", "modby",
                  "modwith")
_SERVER = Reply("servers", (
    "name", "update_int", "target_file", "script", "dfgen", "dfcheck",
    "type", "enable", "inprogress", "harderror", "errmsg", "acl_type", ace(),
    "modtime", "modby", "modwith"))


def _ace_of_named_service(ctx: QueryContext, args: Sequence[str]) -> bool:
    # service names fold case: the caller's spelling finds the row
    rows = ctx.db.table("servers").select({"name": str(args[0])})
    return len(rows) == 1 and ctx.caller_satisfies_ace(
        rows[0]["acl_type"], rows[0]["acl_id"])


def _find_service(ctx: QueryContext, name: str):
    return exactly_one(ctx.db.table("servers").select({"name": name}),
                       MR_SERVICE, name)


_SERVICE = Upper("service")
_MACHINE = Upper("machine")
_SERVER_ARGS = (_SERVICE, Int("interval"), "target", "script",
                Alias("type", "service-type"), Int("enable"),
                OneOf("ace_type", ACE_TYPES, MR_ACE), "ace_name")
# the user-settable serverhosts columns, named as the arguments are
_HOST_COLUMNS = ("enable", "value1", "value2", "value3")
_HOST_ARGS = (_SERVICE, _MACHINE, *map(Int, _HOST_COLUMNS[:3]), "value3")


@register("get_server_info", "gsin", (_SERVICE,), _SERVER_FIELDS,
          side_effects=False, access=_ace_of_named_service)
def get_server_info(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Per-service DCM state (intervals, flags, errors)."""
    return list(_SERVER.texts(
        ctx, ctx.db.table("servers").select({"name": args[0]})))


_SERVER_FLAGS = ("enable", "inprogress", "harderror")


@register("qualified_get_server", "qgsv",
          tuple(map(Tristate, _SERVER_FLAGS)), ("service",),
          side_effects=False)
def qualified_get_server(ctx: QueryContext,
                         args: Sequence[str]) -> list[tuple]:
    """Service names matching tri-state flag criteria."""
    matches = Tristate.matcher(_SERVER_FLAGS, args)
    return [(r["name"],)
            for r in ctx.db.table("servers").iter_select(predicate=matches)]


def _server_fields(ctx: QueryContext, args: Sequence) -> dict:
    """The user-settable service columns, from the arguments after the
    service name (add_server_info and update_server_info)."""
    interval, target, script, stype, enable, ace_type, ace_name = args
    acl_type, acl_id = ctx.resolve_ace(ace_type, ace_name)
    return dict(update_int=interval, target_file=target, script=script,
                type=stype, enable=enable, acl_type=acl_type, acl_id=acl_id,
                **ctx.audit())


@register("add_server_info", "asin", _SERVER_ARGS, (), side_effects=True)
def add_server_info(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Register a service for DCM updates."""
    ctx.db.table("servers").insert(
        dict(name=args[0], **_server_fields(ctx, args[1:])), now=ctx.now)
    return []


@register("update_server_info", "usin", _SERVER_ARGS, (), side_effects=True,
          access=_ace_of_named_service)
def update_server_info(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Change the user-settable service fields."""
    row = _find_service(ctx, args[0])
    ctx.db.table("servers").update_rows(
        [row], _server_fields(ctx, args[1:]), now=ctx.now)
    return []


@register("reset_server_error", "rsve", (_SERVICE,), (),
          side_effects=True, access=_ace_of_named_service)
def reset_server_error(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Clear a hard error and snap dfcheck back to dfgen."""
    row = _find_service(ctx, args[0])
    ctx.db.table("servers").update_rows(
        [row],
        dict(harderror=0, errmsg="", dfcheck=row["dfgen"], **ctx.audit()),
        now=ctx.now)
    return []


@register("set_server_internal_flags", "ssif",
          (_SERVICE, Int("dfgen"), Int("dfcheck"), Int("inprogress"),
           Int("harderror"), "errmsg"),
          (), side_effects=True)
def set_server_internal_flags(ctx: QueryContext,
                              args: Sequence[str]) -> list[tuple]:
    """DCM-only bookkeeping write; modtime untouched."""
    service, dfgen, dfcheck, inprogress, harderror, errmsg = args
    row = _find_service(ctx, service)
    # "The service modtime will NOT be set" — DCM changes are not user
    # modifications, and they don't count as table changes either.
    ctx.db.table("servers").update_rows(
        [row],
        dict(dfgen=dfgen, dfcheck=dfcheck, inprogress=inprogress,
             harderror=harderror, errmsg=errmsg),
        now=ctx.now, touch_stats=False)
    return []


@register("delete_server_info", "dsin", (_SERVICE,), (), side_effects=True)
def delete_server_info(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Delete a service with no hosts and no update running."""
    row = _find_service(ctx, args[0])
    if row["inprogress"]:
        raise MoiraError(MR_IN_USE, f"{args[0]} update in progress")
    ctx.delete("servers", row, args[0])
    return []


# -- serverhosts ----------------------------------------------------------------

_HOST_FIELDS = ("service", "machine", "enable", "override", "success",
                "inprogress", "hosterror", "errmsg", "lasttry",
                "lastsuccess", "value1", "value2", "value3", "modtime",
                "modby", "modwith")


_HOST = Reply("serverhosts", (
    "service", MACHINE_NAME, "enable",
    "override", "success", "inprogress", "hosterror", "hosterrmsg", "ltt",
    "lts", "value1", "value2", "value3", "modtime", "modby", "modwith"))


def _find_server_host(ctx: QueryContext, service: str, machine: str):
    mach = ctx.find_machine(machine)
    rows = ctx.db.table("serverhosts").select(
        {"service": service, "mach_id": mach["mach_id"]})
    return exactly_one(rows, MR_SERVICE, f"{service}/{machine}")


@register("get_server_host_info", "gshi", (_SERVICE, _MACHINE),
          _HOST_FIELDS, side_effects=False, access=_ace_of_named_service)
def get_server_host_info(ctx: QueryContext,
                         args: Sequence[str]) -> list[tuple]:
    """Per-host DCM state for matching service/machine."""
    service_pat, machine_pat = args
    machines = {m["mach_id"]
                for m in ctx.db.table("machine").select({"name": machine_pat})}
    return list(_HOST.texts(ctx, ctx.db.table("serverhosts").iter_select(
        {"service": service_pat},
        predicate=lambda row: row["mach_id"] in machines)))


_HOST_FLAGS = ("enable", "override", "success", "inprogress", "hosterror")


def _host_machines(ctx: QueryContext, rows) -> list[tuple]:
    """(service, machine name) of each serverhosts row whose machine
    exists."""
    machine = ctx.db.table("machine").probe("mach_id")
    return [(row["service"], found["name"]) for row in rows
            if (found := machine(row["mach_id"])) is not None]


@register("qualified_get_server_host", "qgsh",
          (_SERVICE, *map(Tristate, _HOST_FLAGS)),
          ("service", "machine"), side_effects=False)
def qualified_get_server_host(ctx: QueryContext,
                              args: Sequence[str]) -> list[tuple]:
    """Service/machine pairs matching flag criteria."""
    matches = Tristate.matcher(_HOST_FLAGS, args[1:])
    return _host_machines(ctx, ctx.db.table("serverhosts").iter_select(
        {"service": args[0]}, predicate=matches))


@register("add_server_host_info", "ashi", _HOST_ARGS, (), side_effects=True,
          access=_ace_of_named_service)
def add_server_host_info(ctx: QueryContext,
                         args: Sequence[str]) -> list[tuple]:
    """Attach a host to a service (value1-3 are per-service)."""
    srv = _find_service(ctx, args[0])
    mach = ctx.find_machine(args[1])
    ctx.db.table("serverhosts").insert(
        dict(zip(_HOST_COLUMNS, args[2:]), service=srv["name"],
             mach_id=mach["mach_id"], **ctx.audit()),
        now=ctx.now)
    return []


@register("update_server_host_info", "ushi", _HOST_ARGS, (),
          side_effects=True, access=_ace_of_named_service)
def update_server_host_info(ctx: QueryContext,
                            args: Sequence[str]) -> list[tuple]:
    """Change user-settable host fields (not in-progress)."""
    row = _find_server_host(ctx, args[0], args[1])
    if row["inprogress"]:
        raise MoiraError(MR_IN_USE, f"{args[0]}/{args[1]} in progress")
    ctx.db.table("serverhosts").update_rows(
        [row], dict(zip(_HOST_COLUMNS, args[2:]), **ctx.audit()),
        now=ctx.now)
    return []


@register("reset_server_host_error", "rshe", (_SERVICE, _MACHINE), (),
          side_effects=True, access=_ace_of_named_service)
def reset_server_host_error(ctx: QueryContext,
                            args: Sequence[str]) -> list[tuple]:
    """Clear a host's hard error."""
    row = _find_server_host(ctx, args[0], args[1])
    ctx.db.table("serverhosts").update_rows(
        [row], dict(hosterror=0, hosterrmsg="", **ctx.audit()), now=ctx.now)
    return []


@register("set_server_host_override", "ssho", (_SERVICE, _MACHINE), (),
          side_effects=True, access=_ace_of_named_service)
def set_server_host_override(ctx: QueryContext,
                             args: Sequence[str]) -> list[tuple]:
    """Mark a host for update ASAP, ignoring the interval."""
    row = _find_server_host(ctx, args[0], args[1])
    ctx.db.table("serverhosts").update_rows(
        [row], dict(override=1, **ctx.audit()), now=ctx.now)
    return []


@register("set_server_host_internal", "sshi",
          (_SERVICE, _MACHINE, Int("override"), Int("success"),
           Int("inprogress"), Int("hosterror"), "errmsg", Int("lasttry"),
           Int("lastsuccess")),
          (), side_effects=True, repeat=8)
def set_server_host_internal(ctx: QueryContext,
                             args: Sequence[str]) -> list[tuple]:
    """DCM-only host bookkeeping write; modtime untouched.  The eight
    host fields repeat, one group per host; an unknown host undoes all."""
    service = args[0]
    for at in range(1, len(args), 8):
        (machine, override, success, inprogress, hosterror, errmsg,
         lasttry, lastsuccess) = args[at:at + 8]
        row = _find_server_host(ctx, service, machine)
        # modtime deliberately untouched — DCM bookkeeping, not user change.
        ctx.db.table("serverhosts").update_rows(
            [row],
            dict(override=override, success=success, inprogress=inprogress,
                 hosterror=hosterror, hosterrmsg=errmsg, ltt=lasttry,
                 lts=lastsuccess),
            now=ctx.now, touch_stats=False)
    return []


@register("delete_server_host_info", "dshi", (_SERVICE, _MACHINE), (),
          side_effects=True, access=_ace_of_named_service)
def delete_server_host_info(ctx: QueryContext,
                            args: Sequence[str]) -> list[tuple]:
    """Detach a host from a service (not mid-update)."""
    row = _find_server_host(ctx, args[0], args[1])
    if row["inprogress"]:
        raise MoiraError(MR_IN_USE, f"{args[0]}/{args[1]} in progress")
    ctx.db.table("serverhosts").delete_rows([row], now=ctx.now)
    return []


@register("get_server_locations", "gslo", (_SERVICE,),
          ("service", "machine"), side_effects=False, public=True)
def get_server_locations(ctx: QueryContext,
                         args: Sequence[str]) -> list[tuple]:
    """Which machines support a service (public)."""
    return _host_machines(
        ctx, ctx.db.table("serverhosts").iter_select({"service": args[0]}))
