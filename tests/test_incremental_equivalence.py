"""Propagation in proportion to the change, checked against the full
path it replaces.

* Generators: after any sequence of mutations — every non-audit column
  of ``users``, ``list``, ``members`` and ``strings``, machine inserts
  and renames (POP servers included), filesystems, Zephyr classes and
  the lists their ACEs expand — converged by the CDC extractor, each
  service's remembered result (patched, carried over, or skipped
  because no change reaches it) is byte-identical to a fresh full
  ``generate``.
* Servers: every managed server's in-memory tables, moved by line
  deltas install after install, equal a full parse of the files it has
  installed.
* The column filter: a change no output reads generates nothing, and a
  changed-row log that has overflowed falls back to a rebuild that is
  still byte-identical.
* The reach rule: a change in a lookup relation reaches an output only
  through a row naming the changed one — a new machine reaches no file,
  a membership change reaches only the Zephyr classes expanding the
  list — and every relation a generator reads keeps a changelog.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.schema import build_database
from repro.dcm.generators.base import (
    GenContext,
    Generator,
    all_generators,
    get_generator,
)
from repro.hosts.host import SimulatedHost
from repro.servers.hesiod import HesiodServer
from repro.servers.mailhub import MailHub
from repro.servers.nfs import NFSServer
from repro.servers.zephyrd import ZephyrServer
from repro.workload import PopulationSpec

SMALL = PopulationSpec(users=40, unregistered_users=5, nfs_servers=3,
                       maillists=8, clusters=3, machines_per_cluster=2,
                       printers=5, network_services=12)
SERVICES = ("HESIOD", "NFS", "MAIL", "ZEPHYR")


def converged_world() -> AthenaDeployment:
    """Every service generated and pushed by one cron cycle; the CDC
    extractor takes it from there."""
    d = AthenaDeployment(DeploymentConfig(population=SMALL, cdc=True))
    d.clock.advance(25 * 3600)
    d.dcm.run_once()
    return d


# -- checks -------------------------------------------------------------------


def assert_generations_match_full(d: AthenaDeployment) -> None:
    for service in SERVICES:
        held = d.dcm._generated[service]
        hosts = d.db.table("serverhosts").select({"service": service})
        full = get_generator(service).generate(
            GenContext(d.db, d.clock.now(), hosts=hosts))
        assert held.files == full.files, service
        assert held.host_files == full.host_files, service


def clone(host: SimulatedHost) -> SimulatedHost:
    twin = SimulatedHost(host.name)
    for path in host.fs.listdir(""):
        twin.fs.write(path, host.fs.read(path))
    twin.fs.fsync()
    return twin


def full_parse_state(server):
    """The tables a server of the same kind builds from scratch out of
    *server*'s installed files."""
    twin = clone(server.host)
    if isinstance(server, HesiodServer):
        fresh = HesiodServer(twin)
        fresh.start()
        return fresh._records, fresh._cnames
    if isinstance(server, NFSServer):
        fresh = NFSServer(twin, server.partitions)
        assert fresh.apply_update() == 0
        return fresh.credentials, fresh.quotas
    if isinstance(server, MailHub):
        fresh = MailHub(twin)
        fresh.reload()
        return fresh.aliases, fresh.passwd
    fresh = ZephyrServer(twin)
    fresh.reload_acls()
    return fresh.acls


def state_of(server):
    if isinstance(server, HesiodServer):
        return server._records, server._cnames
    if isinstance(server, NFSServer):
        return server.credentials, server.quotas
    if isinstance(server, MailHub):
        return server.aliases, server.passwd
    return server.acls


def servers(d: AthenaDeployment) -> list:
    return [d.hesiod, d.mailhub, *d.nfs_servers.values(),
            *d.zephyr_servers.values()]


def assert_servers_match_full_parse(d: AthenaDeployment) -> None:
    for server in servers(d):
        assert state_of(server) == full_parse_state(server), \
            server.host.name


# -- the mutation vocabulary --------------------------------------------------

KINDS = ("shell", "status", "rename", "uid", "names", "mitid", "finger",
         "pop", "smtp", "nopobox", "add_user", "add_list", "update_list",
         "add_member", "del_member", "machine", "rename_machine",
         "add_filesys", "update_filesys", "add_zclass", "update_zclass",
         "ace_member")
SHELLS = ("/bin/csh", "/bin/sh", "/bin/tcsh")
FUNCTIONS = ("xmt", "sub", "iws", "iui")


def pick(items: list, n: int):
    return items[n % len(items)]


def name_of(d: AthenaDeployment, table: str, key: str, value: int,
            column: str = "name") -> str:
    rows = d.db.table(table).select({key: value})
    return rows[0][column] if rows else "???"


def unbound_machines(d: AthenaDeployment) -> list[str]:
    """Machines no DCM service pushes to — renaming one of those breaks
    no host binding (workstations, POP servers, added machines)."""
    h = d.handles
    bound = {name.upper() for name in (h.hesiod_machine, h.mailhub_machine,
                                       *h.nfs_machines, *h.zephyr_machines)}
    return [row["name"] for row in d.db.table("machine").rows
            if row["name"] not in bound]


def ace_lists(d: AthenaDeployment) -> list[int]:
    """The lists a Zephyr ACE slot names."""
    return [row[f"{function}_id"] for row in d.db.table("zephyr").rows
            for function in FUNCTIONS if row[f"{function}_type"] == "LIST"]


def apply(d: AthenaDeployment, kind: str, a: int, b: int) -> None:
    """One mutation, chosen by *kind* and parameterised by two integers
    resolved against the current world; invalid ones just fail."""
    client = d.direct_client()
    users = list(d.db.table("users").rows)
    user = pick(users, a)
    login = user["login"]
    lists = [row["name"] for row in d.db.table("list").rows]

    def update_user(**changed):
        fields = dict(newlogin=login, uid=user["uid"], shell=user["shell"],
                      last=user["last"], first=user["first"],
                      middle=user["middle"], status=user["status"],
                      mitid=user["mit_id"], year=user["mit_year"])
        fields.update(changed)
        return ("update_user", login, *fields.values())

    def list_fields(name: str) -> dict:
        row = d.db.table("list").select({"name": name})[0]
        ace_name = "NONE"
        if row["acl_type"] == "USER":
            ace_name = d.db.table("users").select(
                {"users_id": row["acl_id"]})[0]["login"]
        elif row["acl_type"] == "LIST":
            ace_name = d.db.table("list").select(
                {"list_id": row["acl_id"]})[0]["name"]
        return dict(newname=name, active=row["active"],
                    public=row["public"], hidden=row["hidden"],
                    maillist=row["maillist"], group=row["grouplist"],
                    gid=row["gid"], ace_type=row["acl_type"],
                    ace_name=ace_name, desc=row["desc"])

    def delete_member(rows: list):
        if not rows:
            return None
        row = pick(rows, a * 7919 + b)
        table, key, column = {
            "USER": ("users", "users_id", "login"),
            "LIST": ("list", "list_id", "name"),
            "STRING": ("strings", "string_id", "string")}[row["member_type"]]
        return ("delete_member_from_list",
                name_of(d, "list", "list_id", row["list_id"]),
                row["member_type"],
                name_of(d, table, key, row["member_id"], column))

    def aces(n: int) -> list:
        return [part for i in range(4) for part in pick(
            [("USER", login), ("LIST", pick(lists, n + i)),
             ("NONE", "NONE")], n >> i)]

    if kind == "shell":
        op = ("update_user_shell", login, pick(SHELLS, b))
    elif kind == "status":
        op = ("update_user_status", login, b % 4)
    elif kind == "rename":
        op = update_user(newlogin=f"ren{b % 6}")
    elif kind == "uid":
        op = update_user(uid=30000 + b % 5)     # collisions: shared uids
    elif kind == "names":
        op = update_user(last=f"L{b % 3}", first=f"F{b % 2}")
    elif kind == "mitid":
        op = update_user(mitid=f"9{b % 7}", year=pick(["1990", "G"], b))
    elif kind == "finger":
        op = ("update_finger_by_login", login, f"Full Name{b % 4}",
              "nick", "home", "555", "office", "556", "dept", "affil")
    elif kind == "pop":
        op = ("set_pobox", login, "POP", pick(d.handles.pop_machines, b))
    elif kind == "smtp":
        op = ("set_pobox", login, "SMTP", f"box{b % 4}@far.example")
    elif kind == "nopobox":
        op = ("delete_pobox", login)
    elif kind == "add_user":
        op = ("add_user", f"new{b % 8}", 40000 + b % 8, "/bin/csh", "N",
              "U", "", (a % 3) or 1, "", "G")
    elif kind == "add_list":
        ace = pick([("USER", login), ("LIST", f"hl{b % 5}"),
                    ("NONE", "NONE")], a)
        gid = -1 if a % 4 else 50000 + b % 3    # collisions: shared gids
        op = ("add_list", f"hl{b % 5}", a % 2 or 1, 1, 0, (a >> 1) % 2,
              (a >> 2) % 2, gid, *ace, pick(["", "some desc"], b))
    elif kind == "update_list":
        name = pick(lists, b)
        fields = list_fields(name)
        column = pick(["newname", "active", "maillist", "group", "gid",
                       "ace", "desc"], a)
        if column == "newname":
            fields["newname"] = f"hl{b % 5}"
        elif column == "gid":
            fields["gid"] = 50000 + b % 3
        elif column == "ace":
            fields["ace_type"], fields["ace_name"] = pick(
                [("USER", login), ("LIST", pick(lists, a))], b)
        elif column == "desc":
            fields["desc"] = pick(["", "renamed desc"], a)
        else:
            fields[column] = 1 - int(fields[column])
        op = ("update_list", name, *fields.values())
    elif kind == "add_member":
        mtype = pick(["USER", "LIST", "STRING"], b)
        member = {"USER": login, "LIST": pick(lists, a),
                  "STRING": f"ext{a % 4}@far.example"}[mtype]
        op = ("add_member_to_list", pick(lists, b), mtype, member)
    elif kind == "del_member":
        op = delete_member(list(d.db.table("members").rows))
    elif kind == "machine":
        op = ("add_machine", f"HM{b % 6}.MIT.EDU", "VAX")
    elif kind == "rename_machine":
        op = ("update_machine", pick(unbound_machines(d), a),
              f"RM{b % 6}.MIT.EDU", "VAX")
    elif kind == "add_filesys":
        op = ("add_filesys", f"fs{b % 5}", "RVD",
              pick(unbound_machines(d), a), f"pack{b % 3}",
              f"/mit/fs{b % 5}", "r", "", login, pick(lists, a),
              b % 2, pick(["PROJECT", "HOMEDIR"], a))
    elif kind == "update_filesys":
        fs = pick(list(d.db.table("filesys").rows), a)
        fields = dict(
            newname=fs["label"], fstype=fs["type"],
            machine=name_of(d, "machine", "mach_id", fs["mach_id"]),
            packname=fs["name"], mount=fs["mount"], access=fs["access"],
            comments=fs["comments"],
            owner=name_of(d, "users", "users_id", fs["owner"], "login"),
            owners=name_of(d, "list", "list_id", fs["owners"]),
            create=fs["createflg"], lockertype=fs["lockertype"])
        column = pick(["newname", "mount", "lockertype", "create",
                       "machine"], b)
        if column == "newname":
            fields["newname"] = f"fs{b % 5}"
        elif column == "mount":
            fields["mount"] = f"/mnt/u{b % 3}"
        elif column == "lockertype":
            fields["lockertype"] = pick(["HOMEDIR", "PROJECT"], a)
        elif column == "create":
            fields["create"] = 1 - fields["create"]
        elif fs["type"] == "RVD":      # NFS packnames bind the machine
            fields["machine"] = pick(unbound_machines(d), b)
        op = ("update_filesys", fs["label"], *fields.values())
    elif kind == "add_zclass":
        op = ("add_zephyr_class", f"zc{b % 4}", *aces(a))
    elif kind == "update_zclass":
        klass = pick(list(d.db.table("zephyr").rows), a)["class"]
        op = ("update_zephyr_class", klass,
              pick([klass, f"zc{b % 4}"], a), *aces(b))
    else:   # ace_member: a membership change in a list an ACE expands
        named = ace_lists(d)
        if not named:
            return
        target = pick(named, a)
        if b % 3 == 2:
            op = delete_member(
                d.db.table("members").select({"list_id": target}))
        else:
            mtype = pick(["USER", "LIST"], b)
            op = ("add_member_to_list",
                  name_of(d, "list", "list_id", target), mtype,
                  login if mtype == "USER" else pick(lists, a))
    if op is not None:
        client.mr_query(op[0], [str(arg) for arg in op[1:]])


MUTATIONS = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 10_000),
              st.integers(0, 10_000)),
    min_size=1, max_size=8)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(MUTATIONS)
def test_patched_generations_and_reloaded_servers_match_full(mutations):
    d = converged_world()
    for kind, a, b in mutations:
        apply(d, kind, a, b)
        summary = d.pump_cdc()
        assert not summary["pending"]
        assert all(o["status"] in ("converged", "no_change", "skipped")
                   for o in summary["outcomes"])
        assert_generations_match_full(d)
        assert_servers_match_full_parse(d)


# -- the column filter --------------------------------------------------------


def test_a_change_no_output_reads_generates_nothing():
    """``mit_id`` reaches no file: the vector moves on, no service
    generates, no host is pushed."""
    d = converged_world()
    generations = d.dcm.total_generations
    login = d.handles.logins[0]
    row = d.db.table("users").select({"login": login})[0]
    d.direct_client().query(
        "update_user", login, login, row["uid"], row["shell"], row["last"],
        row["first"], row["middle"], row["status"], "12345", row["mit_year"])
    outcomes = {o["service"]: o for o in d.pump_cdc()["outcomes"]}
    assert all(outcomes[service]["status"] == "no_change"
               for service in SERVICES)
    assert not any(o["generated"] for o in outcomes.values())
    assert d.dcm.total_generations == generations
    assert d.cdc.stats["host_pushes"] == 0


def test_a_shell_change_skips_nfs_and_zephyr():
    d = converged_world()
    d.direct_client().query("update_user_shell", d.handles.logins[0],
                            "/bin/zsh")
    outcomes = {o["service"]: o for o in d.pump_cdc()["outcomes"]}
    # the write stamps no column either reads: neither is classified
    assert "NFS" not in outcomes and "ZEPHYR" not in outcomes
    assert outcomes["HESIOD"]["generated"] and outcomes["MAIL"]["generated"]
    assert d.dcm._generated["HESIOD"].meta["files_patched"] == ["passwd.db"]
    assert d.dcm._generated["MAIL"].meta["files_patched"] == ["passwd"]


def test_a_membership_change_patches_one_line_per_file():
    """Joining a list that is both a unix group and a maillist touches
    the member's grplist and credentials lines and the list's alias
    block — nothing is rebuilt."""
    d = converged_world()
    client = d.direct_client()
    client.query("add_list", "both", 1, 1, 0, 1, 1, -1, "NONE", "NONE",
                 "group and maillist")
    d.pump_cdc()
    login = d.handles.logins[3]
    client.query("add_member_to_list", "both", "USER", login)
    d.pump_cdc()
    meta = {service: d.dcm._generated[service].meta
            for service in ("HESIOD", "NFS", "MAIL")}
    assert [meta[s]["files_patched"] for s in meta] == [
        ["grplist.db"], ["credentials"], ["aliases.lists"]]
    assert not any(meta[s]["files_rebuilt"] for s in meta)
    assert login in d.mailhub.aliases["both"]
    assert_generations_match_full(d)
    assert_servers_match_full_parse(d)


def test_an_overflowed_changelog_rebuilds_byte_identically():
    """More shell changes than the users log holds: the log reports a
    gap (None), the touched files are rebuilt, not patched, and still
    equal a full generate."""
    d = converged_world()
    client = d.direct_client()
    capacity = d.db.table("users")._changelog.maxlen
    logins = d.handles.logins
    for i in range(capacity + 1):
        client.query("update_user_shell", pick(logins, i), f"/bin/s{i}")
    d.pump_cdc()
    meta = d.dcm._generated["HESIOD"].meta
    assert "passwd.db" in meta["files_rebuilt"]
    assert meta["files_patched"] == []
    assert_generations_match_full(d)
    assert_servers_match_full_parse(d)


@pytest.mark.parametrize("table", ["list", "strings"])
def test_list_and_strings_keep_changelogs(table):
    """A membership change bumps its list; an SMTP pobox interns its
    address — both logged, so neither forces a rebuild."""
    d = converged_world()
    before = d.db.table(table).version
    if table == "list":
        d.direct_client().query("add_member_to_list",
                                d.handles.maillist_names[0], "STRING",
                                "logged@far.example")
    else:
        d.direct_client().query("set_pobox", d.handles.logins[0], "SMTP",
                                "logged@far.example")
    assert d.db.table(table).changes_since(before)


# -- the reach rule -----------------------------------------------------------


def test_a_new_machine_reaches_no_file():
    """No row names a machine just added: HESIOD, MAIL and NFS take the
    change and rebuild nothing, and no host is pushed."""
    d = converged_world()
    d.direct_client().query("add_machine", "FRESH.MIT.EDU", "VAX")
    outcomes = {o["service"]: o for o in d.pump_cdc()["outcomes"]}
    for service in ("HESIOD", "MAIL", "NFS"):
        assert outcomes[service]["status"] == "no_change", service
        meta = d.dcm._generated[service].meta
        assert meta["files_rebuilt"] == [], service
        assert meta["files_patched"] == [], service
    assert d.cdc.stats["host_pushes"] == 0
    assert_generations_match_full(d)


def test_renaming_an_nfs_server_moves_its_per_host_files():
    """NFS keys its per-host files by machine name, so a rename reaches
    them: the generation held afterwards equals a full generate."""
    d = converged_world()
    old = d.handles.nfs_machines[0].upper()
    d.direct_client().query("update_machine", old, "LOCKER-NEW.MIT.EDU",
                            "VAX")
    d.pump_cdc()
    held = d.dcm._generated["NFS"]
    assert "LOCKER-NEW.MIT.EDU" in held.host_files
    assert old not in held.host_files
    assert_generations_match_full(d)


def ace_world() -> tuple[AthenaDeployment, str]:
    """A converged world with a class whose four ACEs name one fresh
    list, which no other class names."""
    d = converged_world()
    client = d.direct_client()
    client.query("add_list", "zacl", 1, 0, 0, 0, 0, -1, "NONE", "NONE", "")
    client.query("add_member_to_list", "zacl", "USER", d.handles.logins[0])
    client.query("add_zephyr_class", "zall", *["LIST", "zacl"] * 4)
    d.pump_cdc()
    return d, "zacl"


def test_a_member_of_a_list_no_ace_names_leaves_zephyr_alone():
    d, _ = ace_world()
    named = set(ace_lists(d))
    free = next(row["name"] for row in d.db.table("list").rows
                if row["list_id"] not in named)
    d.direct_client().query("add_member_to_list", free, "USER",
                            d.handles.logins[5])
    outcomes = {o["service"]: o for o in d.pump_cdc()["outcomes"]}
    assert outcomes["ZEPHYR"]["status"] == "no_change"
    assert outcomes["ZEPHYR"]["incremental"]
    assert_generations_match_full(d)


def test_a_member_of_an_ace_list_changes_that_class_only():
    d, acl = ace_world()
    before = dict(d.dcm._generated["ZEPHYR"].files)
    d.direct_client().query("add_member_to_list", acl, "USER",
                            d.handles.logins[5])
    outcomes = {o["service"]: o for o in d.pump_cdc()["outcomes"]}
    after = d.dcm._generated["ZEPHYR"].files
    assert {path for path, data in after.items()
            if before.get(path) != data} == {
        f"/etc/zephyr/acl/zall.{function}.acl" for function in FUNCTIONS}
    assert outcomes["ZEPHYR"]["files_changed"] == 4
    assert outcomes["ZEPHYR"]["incremental"]
    assert_generations_match_full(d)
    assert_servers_match_full_parse(d)


# -- schema and declarations agree --------------------------------------------


def unlogged_reads(generators) -> set[str]:
    """Relations some generator's ``reads`` names that keep no
    changed-row log in a fresh schema."""
    db = build_database()
    return {table for generator in generators
            for relations in generator.reads.values()
            for table in relations
            if db.table(table).changes_since(db.table(table).version)
            is None}


def test_every_relation_a_generator_reads_keeps_a_changelog():
    assert unlogged_reads(all_generators().values()) == set()


def test_a_read_without_a_changelog_is_caught():
    class CapaclsGenerator(Generator):      # never registered
        service = "CAPS"
        reads = {"caps": {"capacls": ("capability", "list_id")}}

    assert unlogged_reads([*all_generators().values(),
                           CapaclsGenerator()]) == {"capacls"}
