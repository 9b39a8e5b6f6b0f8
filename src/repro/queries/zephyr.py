"""Zephyr class ACL queries (paper §7.0.6)."""

from __future__ import annotations

from typing import Sequence

from repro.errors import MoiraError, MR_ACE, MR_EXISTS, MR_NO_MATCH
from repro.queries.base import (ACE_TYPES, OneOf, QueryContext, Reply, ace,
                                exactly_one, register)

_ZEPHYR_FIELDS = ("class", "xmttype", "xmtname", "subtype", "subname",
                  "iwstype", "iwsname", "iuitype", "iuiname", "modtime",
                  "modby", "modwith")

_ACL_COLS = ("xmt", "sub", "iws", "iui")
# the four (type, name) ACE pairs, after the class name(s)
_ACE_ARGS = tuple(arg for col in _ACL_COLS for arg in (
    OneOf(f"{col}type", ACE_TYPES, MR_ACE), f"{col}name"))


_ZEPHYR = Reply("zephyr", (
    "class", *(field for col in _ACL_COLS for field in (
        f"{col}_type", ace(f"{col}_type", f"{col}_id"))),
    "modtime", "modby", "modwith"))


def _resolve_four_aces(ctx: QueryContext, args: Sequence[str]) -> dict:
    """args are four (type, name) pairs: xmt, sub, iws, iui."""
    changes: dict = {}
    for i, col in enumerate(_ACL_COLS):
        ace_type, ace_id = ctx.resolve_ace(args[2 * i], args[2 * i + 1])
        changes[f"{col}_type"] = ace_type
        changes[f"{col}_id"] = ace_id
    return changes


@register("get_zephyr_class", "gzcl", ("class",), _ZEPHYR_FIELDS,
          side_effects=False)
def get_zephyr_class(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """A class's four ACE pairs (xmt/sub/iws/iui)."""
    return list(_ZEPHYR.texts(
        ctx, ctx.db.table("zephyr").select({"class": args[0]})))


@register("add_zephyr_class", "azcl", ("class", *_ACE_ARGS), (),
          side_effects=True)
def add_zephyr_class(ctx: QueryContext, args: Sequence[str]) -> list[tuple]:
    """Register a controlled zephyr class."""
    name = args[0]
    zephyr = ctx.db.table("zephyr")
    if zephyr.select({"class": name}):
        raise MoiraError(MR_EXISTS, name)
    changes = _resolve_four_aces(ctx, args[1:])
    zephyr.insert(dict({"class": name}, **changes, **ctx.audit()),
                  now=ctx.now)
    return []


@register("update_zephyr_class", "uzcl", ("class", "newclass", *_ACE_ARGS),
          (), side_effects=True)
def update_zephyr_class(ctx: QueryContext,
                        args: Sequence[str]) -> list[tuple]:
    """Rename a class and/or change its four ACEs."""
    name, newname = args[0], args[1]
    zephyr = ctx.db.table("zephyr")
    row = exactly_one(zephyr.select({"class": name}), MR_NO_MATCH, name)
    if newname != name and zephyr.select({"class": newname}):
        raise MoiraError(MR_EXISTS, newname)
    changes = _resolve_four_aces(ctx, args[2:])
    changes["class"] = newname
    changes.update(ctx.audit())
    zephyr.update_rows([row], changes, now=ctx.now)
    return []


@register("delete_zephyr_class", "dzcl", ("class",), (), side_effects=True)
def delete_zephyr_class(ctx: QueryContext,
                        args: Sequence[str]) -> list[tuple]:
    """Remove a zephyr class."""
    zephyr = ctx.db.table("zephyr")
    row = exactly_one(zephyr.select({"class": args[0]}),
                      MR_NO_MATCH, args[0])
    zephyr.delete_rows([row], now=ctx.now)
    return []
