"""zephyr.gen — per-class ACL files (§5.8.2).

"For each existing ACE (even if it is empty), the membership will be
output, one entry per line.  Recursive lists will be expanded."  Each
class yields four files — ``<class>.<function>.acl`` for transmit,
subscribe, instance-wildcard, and instance-UID — matching the four ACE
pairs in the zephyr relation.  A NONE ACE means the function is
uncontrolled, written as the ``*.*@*`` wildcard of the paper's example.
"""

from __future__ import annotations

from repro.dcm.generators.base import (
    MEMBER,
    GenContext,
    Generator,
    GeneratorResult,
    register_generator,
)

__all__ = ["ZephyrGenerator"]

_FUNCTIONS = ("xmt", "sub", "iws", "iui")


class ZephyrGenerator(Generator):
    """Per-class ACL files, lists expanded."""
    service = "ZEPHYR"
    reads = {
        "<class>.<function>.acl": {
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
            for function in _FUNCTIONS:
                name = f"/etc/zephyr/acl/{row['class']}.{function}.acl"
                files[name] = self._acl_file(
                    ctx, row[f"{function}_type"], row[f"{function}_id"])
        return GeneratorResult(files=files)

    def _acl_file(self, ctx: GenContext, ace_type: str,
                  ace_id: int) -> bytes:
        if ace_type == "NONE":
            return b"*.*@*\n"
        if ace_type == "USER":
            user = ctx.users_by_id.get(ace_id)
            return (user["login"] + "\n").encode() if user else b""
        # LIST: recursive expansion to login names
        users = ctx.expand_list_users(ace_id)
        logins = sorted(
            ctx.users_by_id[uid]["login"]
            for uid in users
            if uid in ctx.users_by_id and ctx.users_by_id[uid]["status"] == 1
        )
        return ("\n".join(logins) + "\n").encode() if logins else b""


register_generator(ZephyrGenerator())
