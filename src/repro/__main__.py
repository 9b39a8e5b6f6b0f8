"""Command-line front end: ``python -m repro <command>``.

Commands:

* ``demo``    — build a small deployment and narrate a propagation
  cycle (a condensed examples/quickstart.py).
* ``mrtest``  — an interactive query shell against a fresh deployment
  (type ``help`` for the built-ins, ``quit`` to exit).
* ``serve``   — start a Moira server on TCP and print its address;
  useful for poking at the wire protocol with external tools.
* ``queries`` — print the registry of predefined query handles;
  ``--markdown`` prints ``docs/QUERIES.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.core import AthenaDeployment, DeploymentConfig
from repro.workload import PopulationSpec


def small_deployment(users: int = 200) -> AthenaDeployment:
    """A quick demo-scale deployment."""
    return AthenaDeployment(DeploymentConfig(
        population=PopulationSpec(users=users, unregistered_users=20,
                                  nfs_servers=4, maillists=20)))


def cmd_demo(args: argparse.Namespace) -> int:
    """The `demo` subcommand: one narrated propagation cycle."""
    d = small_deployment(args.users)
    print(f"deployment: {len(d.db.table('users'))} users, "
          f"{len(d.db.table('machine'))} machines, "
          f"{len(d.db.table('list'))} lists")
    print("running 25 simulated hours of cron...")
    d.run_hours(25)
    report = d.dcm.run_once()
    print(f"dcm: {d.dcm.total_generations} generations, "
          f"{d.dcm.total_propagations} propagations, "
          f"{d.dcm.total_bytes} bytes shipped")
    login = d.handles.logins[0]
    print(f"hesiod resolves {login}: {d.hesiod.getpwnam(login)}")
    print(f"mail hub routes {login} -> {d.mailhub.resolve(login)}")
    return 0


def cmd_mrtest(args: argparse.Namespace) -> int:
    """The `mrtest` subcommand: interactive query shell."""
    from repro.apps import MrTest

    d = small_deployment(args.users)
    admin = d.handles.logins[0]
    d.make_admin(admin)
    client = d.client_for(admin, "demo", "mrtest")
    mrtest = MrTest(client)
    print(f"moira query shell — authenticated as {admin!r}; "
          "'_list_queries' lists handles, 'quit' exits")
    while True:
        try:
            line = input("moira> ").strip()
        except EOFError:
            break
        if not line:
            continue
        if line in ("quit", "exit", "q"):
            break
        parts = line.split()
        result = mrtest.run(parts[0], *parts[1:])
        print(result.render())
    client.close()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """The `serve` subcommand: a TCP Moira server until ^C."""
    from repro.protocol.transport import TcpServerTransport

    d = small_deployment(args.users)
    tcp = TcpServerTransport(d.server, port=args.port).start()
    host, port = tcp.address
    print(f"moira server listening on {host}:{port} "
          "(protocol version 2); ^C to stop")
    try:
        import time
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        tcp.stop()
    return 0


def cmd_console(args: argparse.Namespace) -> int:
    """The `console` subcommand: the admin menu over stdin."""
    from repro.apps import MoiraConsole

    d = small_deployment(args.users)
    admin = d.handles.logins[0]
    d.make_admin(admin)
    client = d.client_for(admin, "demo", "console")
    console = MoiraConsole(client)
    print(f"moira administrative console — authenticated as {admin!r}")

    def reader():
        """Yield stdin lines until EOF."""
        while True:
            try:
                yield input("")
            except EOFError:
                return

    inputs = reader()
    from repro.client.menu import MenuSession
    session = MenuSession(console.build_menu(),
                          inputs=list(inputs), output=print)
    session.run()
    client.close()
    return 0


_QUERIES_MD_HEAD = """\
# The predefined query handles

Generated from the registry: `python -m repro queries --markdown >
docs/QUERIES.md` (tier-1 checks it is current).  Each handle has a long
name, a four-character short name, a fixed argument signature, and a
kind (retrieval or update).  An argument shown as `name: Type` is
parsed through that declared type (`repro.queries.base`) before the
handler runs, and a malformed value is refused with the type's error
code; a bare name is free text.  See section 7 of the paper for the
semantics; the implementations live under `src/repro/queries/`.

| short | kind | handle |
|---|---|---|
"""


def queries_markdown() -> str:
    """``docs/QUERIES.md``: the registry as a table."""
    from repro.queries.base import Text, all_queries

    lines = [_QUERIES_MD_HEAD]
    for query in sorted(all_queries().values(), key=lambda q: q.name):
        args = ", ".join(spec.name if type(spec) is Text
                         else f"{spec.name}: {spec.kind()}"
                         for spec in query.specs)
        kind = "update" if query.side_effects else "query"
        note = (f" — the last {query.repeat} arguments may recur in whole "
                f"groups (`Query.repeat`; a partial group is `MR_ARGS`)"
                if query.repeat else "")
        lines.append(f"| `{query.shortname}` | {kind} | "
                     f"`{query.name}({args})`{note} |\n")
    return "".join(lines)


def cmd_queries(args: argparse.Namespace) -> int:
    """The `queries` subcommand: dump the query registry."""
    from repro.queries.base import all_queries

    if args.markdown:
        sys.stdout.write(queries_markdown())
        return 0
    for query in sorted(all_queries().values(), key=lambda q: q.name):
        kind = "update" if query.side_effects else "query "
        print(f"{query.shortname:4s} {kind} {query.name}"
              f"({', '.join(query.args)})")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to a subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Moira, the Athena Service Management System "
                    "(USENIX 1988) — reproduction CLI")
    parser.add_argument("--users", type=int, default=200,
                        help="population size for the demo deployment")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="narrated propagation cycle")
    sub.add_parser("mrtest", help="interactive query shell")
    serve = sub.add_parser("serve", help="run a TCP Moira server")
    serve.add_argument("--port", type=int, default=0)
    queries = sub.add_parser("queries",
                             help="list the predefined query handles")
    queries.add_argument("--markdown", action="store_true",
                         help="print docs/QUERIES.md")
    sub.add_parser("console", help="menu-driven administrative console")

    args = parser.parse_args(argv)
    handler = {
        "demo": cmd_demo,
        "mrtest": cmd_mrtest,
        "serve": cmd_serve,
        "queries": cmd_queries,
        "console": cmd_console,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
