"""klogin.gen — per-host ``/.klogin`` files from the hostaccess relation.

§6 HOSTACCESS: "This table contains the necessary information for Moira
to be generating [the] /.klogin file on that machine.  It associates an
access control entity with a machine."  The paper registers the
relation and its queries but doesn't list the service in the §5.1
deployment table; this generator completes the pipeline as the obvious
next service (the kind of "routine upgrade" §4 demands the design
accommodate).

Each serverhost of the KLOGIN service receives a ``/.klogin`` whose
lines are the Kerberos principals allowed to log in as root on that
machine — the machine's ACE expanded recursively.
"""

from __future__ import annotations

from repro.dcm.generators.base import (
    MACHINE,
    MEMBER,
    GenContext,
    Generator,
    GeneratorResult,
    register_generator,
)

__all__ = ["KloginGenerator"]


class KloginGenerator(Generator):
    """Per-host /.klogin files from hostaccess."""
    service = "KLOGIN"
    reads = {
        "/.klogin": {"hostaccess": ("mach_id", "acl_type", "acl_id"),
                     "members": MEMBER,
                     "users": ("users_id", "login", "status"),
                     "machine": MACHINE},
    }

    def generate(self, ctx: GenContext) -> GeneratorResult:
        """One /.klogin per KLOGIN serverhost."""
        result = GeneratorResult()
        access_by_machine = {row["mach_id"]: row
                             for row in ctx.db.table("hostaccess").rows}
        for host_row in ctx.hosts:
            machine = ctx.machine_names.get(host_row["mach_id"])
            if machine is None:
                continue
            access = access_by_machine.get(host_row["mach_id"])
            result.host_files[machine.upper()] = {
                "/.klogin": self._klogin_file(ctx, access)
            }
        return result

    def _klogin_file(self, ctx: GenContext, access) -> bytes:
        if access is None or access["acl_type"] == "NONE":
            return b""  # nobody gets remote root
        if access["acl_type"] == "USER":
            user = ctx.users_by_id.get(access["acl_id"])
            if user is None or user["status"] != 1:
                return b""
            return f"{user['login']}.root@ATHENA.MIT.EDU\n".encode()
        logins = sorted(
            ctx.users_by_id[uid]["login"]
            for uid in ctx.expand_list_users(access["acl_id"])
            if uid in ctx.users_by_id
            and ctx.users_by_id[uid]["status"] == 1
        )
        return "".join(f"{login}.root@ATHENA.MIT.EDU\n"
                       for login in logins).encode()


register_generator(KloginGenerator())
