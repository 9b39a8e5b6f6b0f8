"""zephyr.gen — per-class ACL files (§5.8.2).

"For each existing ACE (even if it is empty), the membership will be
output, one entry per line.  Recursive lists will be expanded."  Each
class yields four files — ``<class>.<function>.acl`` for transmit,
subscribe, instance-wildcard, and instance-UID — matching the four ACE
pairs in the zephyr relation.  A NONE ACE means the function is
uncontrolled, written as the ``*.*@*`` wildcard of the paper's example.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.db.engine import Row, TableChange
from repro.db.schema import USER_STATE_ACTIVE
from repro.dcm.generators.base import (
    MEMBER,
    GenContext,
    Generator,
    GeneratorResult,
    changed_rows,
    register_generator,
)

__all__ = ["ZephyrGenerator"]

_FUNCTIONS = ("xmt", "sub", "iws", "iui")
_ACLS = "<class>.<function>.acl"


def _path(klass: str, function: str) -> str:
    return f"/etc/zephyr/acl/{klass}.{function}.acl"


def _acl_file(ctx: GenContext, ace_type: str, ace_id: int) -> bytes:
    if ace_type == "NONE":
        return b"*.*@*\n"
    if ace_type == "USER":
        user = ctx.user(ace_id)
        return (user["login"] + "\n").encode() if user else b""
    # LIST: recursive expansion to login names
    logins = sorted(
        user["login"] for user in map(ctx.user, ctx.expand_list_users(ace_id))
        if user is not None and user["status"] == USER_STATE_ACTIVE)
    return ("\n".join(logins) + "\n").encode() if logins else b""


def _class_files(ctx: GenContext, row: Row) -> dict[str, bytes]:
    return {_path(row["class"], function):
            _acl_file(ctx, row[f"{function}_type"], row[f"{function}_id"])
            for function in _FUNCTIONS}


def _classes_naming(ctx: GenContext, ace_type: str,
                    ids: Iterable[int]) -> set[str]:
    """Classes with an ACE slot holding (*ace_type*, one of *ids*) —
    a probe of each slot's composite index."""
    zephyr = ctx.db.table("zephyr")
    return {row["class"] for ace_id in ids for function in _FUNCTIONS
            for row in zephyr.select({f"{function}_type": ace_type,
                                      f"{function}_id": ace_id})}


def _classes_reached(ctx: GenContext, dirty: dict) -> Optional[set[str]]:
    """The classes whose files the changes in *dirty* can move (None
    when a log is unavailable): a class's own row, a user named in one
    of its ACE slots, and a user or membership change in a list named
    there or in a list below it."""
    classes: set[str] = set()
    lists: set[int] = set()
    for table, log in dirty.items():
        if log is None:
            return None
        rows = [row for change in log for row in changed_rows(change)]
        if table == "zephyr":
            classes.update(row["class"] for row in rows)
        elif table == "users":
            ids = {row["users_id"] for row in rows}
            classes |= _classes_naming(ctx, "USER", ids)
            lists |= ctx.lists_holding("USER", ids)
        else:   # members
            lists.update(row["list_id"] for row in rows)
    if lists:
        classes |= _classes_naming(ctx, "LIST", ctx.lists_above(lists))
    return classes


class ZephyrGenerator(Generator):
    """Per-class ACL files, lists expanded; a change re-renders only the
    classes it reaches."""
    service = "ZEPHYR"
    reads = {
        _ACLS: {
            "zephyr": ("class",) + tuple(
                f"{function}_{part}" for function in _FUNCTIONS
                for part in ("type", "id")),
            "members": MEMBER,
            "users": ("users_id", "login", "status"),
        },
    }

    def generate(self, ctx: GenContext) -> GeneratorResult:
        """Four ACL files per zephyr class."""
        files: dict[str, bytes] = {}
        for row in sorted(ctx.db.table("zephyr").rows,
                          key=lambda r: r["class"]):
            files.update(_class_files(ctx, row))
        return GeneratorResult(files=files)

    def generate_incremental(
        self,
        ctx: GenContext,
        previous: GeneratorResult,
        changes: dict[str, Optional[list[TableChange]]],
    ) -> Optional[GeneratorResult]:
        """Re-render the four files of each class the changes reach;
        every other class keeps its bytes."""
        if not previous.files:
            return None
        classes = _classes_reached(ctx, self.dirty(_ACLS, changes, ctx))
        if classes is None:
            return None
        files = dict(previous.files)
        for klass in classes:
            for function in _FUNCTIONS:
                files.pop(_path(klass, function), None)
            row = ctx.find("zephyr", {"class": klass})
            if row is not None:
                files.update(_class_files(ctx, row))
        return GeneratorResult(files=files)


register_generator(ZephyrGenerator())
