"""The write transaction says what it changed.

Each committed journal entry carries its transaction's footprint,
``changed``: table -> the columns whose data version moved.  The CDC
extractor maps that stamp to dirty services, so a column a write
changes but does not stamp would leave a service stale.  This module
runs one successful example of every write query in the registry and
checks the stamp against what the write did to the rows; that both
backends stamp alike; and that host-policy writes, which no generator
reads, still converge on the extractor's schedule.

``values`` and ``strings`` are exempt: they are the allocator
relations, which no transaction stamps.  ``strings`` is append-only, and
a new string reaches a generator only through a referencing column,
which the stamp carries.  So is a table whose data version did not
move: it took only bookkeeping updates (``touch_stats=False``: the DCM's
flags, the POP load counter), which are not data changes to any
consumer — the version vectors and changed-row logs skip them too —
and stamp nothing.
"""

from __future__ import annotations

import pytest

from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.backend import SYSTEM_TABLES, create_backend
from repro.db.journal import Journal, JournalEntry
from repro.dcm.cdc import CdcExtractor
from repro.dcm.dcm import ServiceBinding
from repro.dcm.generators.base import all_generators
from repro.errors import MoiraError, MR_NO_HANDLE
from repro.queries.base import (QueryContext, all_queries, execute_query,
                                get_query, register, run_write,
                                unregister)
from repro.sim.clock import DEFAULT_EPOCH, Clock
from repro.workload import PopulationSpec

BASE = DEFAULT_EPOCH + 5000

# One successful call of every write query, in an order that lets each
# succeed on an empty schema (a query may appear more than once).
EXAMPLES = [
    ("add_machine", "FP.MIT.EDU", "VAX"),
    ("add_machine", "FQ.MIT.EDU", "RT"),
    ("update_machine", "FQ.MIT.EDU", "FR.MIT.EDU", "VAX"),
    ("add_user", "fp", "7001", "/bin/csh", "Last", "First", "M", "1",
     "id1", "1990"),
    ("add_user", "fq", "7002", "/bin/csh", "Q", "F", "", "0", "id2",
     "1990"),
    ("add_user", "fr", "7003", "/bin/csh", "R", "F", "", "0", "id3",
     "1990"),
    ("add_user", "fs", "7004", "/bin/csh", "S", "F", "", "0", "id4",
     "1990"),
    ("update_user_shell", "fp", "/bin/sh"),
    ("update_user_status", "fp", "2"),
    ("update_finger_by_login", "fp", "Full Name", "nick", "home", "1234",
     "office", "5678", "dept", "aff"),
    ("update_user", "fp", "fpx", "7001", "/bin/csh", "L", "F", "M", "1",
     "id1", "1991"),
    ("add_server_info", "POP", "60", "/tmp/pop", "/bin/true", "UNIQUE",
     "1", "NONE", ""),
    ("update_server_info", "POP", "120", "/tmp/pop2", "/bin/true",
     "REPLICAT", "1", "NONE", ""),
    ("add_server_host_info", "POP", "FP.MIT.EDU", "1", "0", "100", ""),
    ("update_server_host_info", "POP", "FP.MIT.EDU", "1", "0", "200", ""),
    ("set_pobox", "fpx", "POP", "FP.MIT.EDU"),
    ("set_pobox", "fpx", "SMTP", "fpx@elsewhere.example"),
    ("set_pobox_pop", "fpx"),
    ("delete_pobox", "fpx"),
    ("set_server_host_override", "POP", "FP.MIT.EDU"),
    ("set_server_host_internal", "POP", "FP.MIT.EDU", "0", "1", "0", "0",
     "", "100", "100"),
    ("reset_server_host_error", "POP", "FP.MIT.EDU"),
    ("set_server_internal_flags", "POP", "100", "100", "0", "1", "broken"),
    ("reset_server_error", "POP"),
    ("add_nfsphys", "FP.MIT.EDU", "/u1", "ra81", "1", "0", "100000"),
    ("update_nfsphys", "FP.MIT.EDU", "/u1", "ra81a", "1", "0", "200000"),
    ("adjust_nfsphys_allocation", "FP.MIT.EDU", "/u1", "10"),
    ("add_nfsphys", "FP.MIT.EDU", "/u2", "ra81b", "1", "0", "1000"),
    ("register_user", "7002", "fqr", "1"),
    ("add_list", "fpl", "1", "1", "0", "1", "0", "-1", "USER", "fpx",
     "a list"),
    ("update_list", "fpl", "fpl2", "1", "0", "0", "1", "1", "-1", "USER",
     "fpx", "the list"),
    ("add_member_to_list", "fpl2", "USER", "fpx"),
    ("add_member_to_list", "fpl2", "STRING", "someone@elsewhere.example"),
    ("delete_member_from_list", "fpl2", "USER", "fpx"),
    ("delete_member_from_list", "fpl2", "STRING",
     "someone@elsewhere.example"),
    ("add_filesys", "fpfs", "NFS", "FP.MIT.EDU", "/u1/fpfs", "/mit/fpfs",
     "w", "", "fpx", "fpl2", "1", "PROJECT"),
    ("update_filesys", "fpfs", "fpfs2", "NFS", "FP.MIT.EDU", "/u1/fpfs",
     "/mit/fpfs2", "r", "c", "fpx", "fpl2", "0", "PROJECT"),
    ("add_nfs_quota", "fpfs2", "fpx", "100"),
    ("update_nfs_quota", "fpfs2", "fpx", "200"),
    ("delete_nfs_quota", "fpfs2", "fpx"),
    ("delete_filesys", "fpfs2"),
    ("add_cluster", "fpc", "a cluster", "here"),
    ("update_cluster", "fpc", "fpc2", "the cluster", "there"),
    ("add_machine_to_cluster", "FR.MIT.EDU", "fpc2"),
    ("add_cluster_data", "fpc2", "zephyr", "neskaya"),
    ("delete_cluster_data", "fpc2", "zephyr", "neskaya"),
    ("delete_machine_from_cluster", "FR.MIT.EDU", "fpc2"),
    ("delete_cluster", "fpc2"),
    ("add_alias", "fpa", "PRINTER", "fpp"),
    ("delete_alias", "fpa", "PRINTER", "fpp"),
    ("add_printcap", "fpp", "FP.MIT.EDU", "/usr/spool/fpp", "fpp", "c"),
    ("delete_printcap", "fpp"),
    ("add_server_host_access", "FP.MIT.EDU", "USER", "fpx"),
    ("update_server_host_access", "FP.MIT.EDU", "LIST", "fpl2"),
    ("delete_server_host_access", "FP.MIT.EDU"),
    ("add_service", "fps", "TCP", "999", "a service"),
    ("delete_service", "fps"),
    ("add_value", "fpv", "1"),
    ("update_value", "fpv", "2"),
    ("delete_value", "fpv"),
    ("add_zephyr_class", "fpz", "USER", "fpx", "LIST", "fpl2", "NONE", "",
     "NONE", ""),
    ("update_zephyr_class", "fpz", "fpz2", "LIST", "fpl2", "USER", "fpx",
     "NONE", "", "NONE", ""),
    ("delete_zephyr_class", "fpz2"),
    ("delete_list", "fpl2"),
    ("delete_user", "fr"),
    ("delete_user_by_uid", "7004"),
    ("delete_machine", "FR.MIT.EDU"),
    ("delete_nfsphys", "FP.MIT.EDU", "/u2"),
    ("delete_server_host_info", "POP", "FP.MIT.EDU"),
    ("delete_server_info", "POP"),
]


def contents(db) -> dict:
    """table -> {row identity: (its record, its values)} on the memory
    engine.  An update publishes a new row dict, so a row is known by
    its version-store record; holding each record keeps its identity
    from being reused by a later insert."""
    return {name: {id(record): (record, dict(record.current.data))
                   for record in table._mv.records.values()}
            for name, table in db.tables.items()
            if name not in SYSTEM_TABLES}


def changed_columns(before: dict, after: dict, moved: set) -> set:
    """Every (table, column) whose row contents differ, in the tables
    *moved* names."""
    out = set()
    for name in moved:
        old, new = before[name], after[name]
        for key in old.keys() ^ new.keys():
            _, values = old.get(key) or new[key]
            out.update((name, column) for column in values)
        for key in old.keys() & new.keys():
            was, now = old[key][1], new[key][1]
            out.update((name, column) for column in was
                       if was[column] != now[column])
    return out


def run_examples(db):
    """Run every example on *db*; yields (query, its journal entry),
    the entry read back from the WAL line it wrote."""
    journal = Journal()
    clock = Clock(BASE)
    ctx = QueryContext(db=db, clock=clock, caller="root", client="test",
                       privileged=True, journal=journal)
    for name, *args in EXAMPLES:
        clock.advance(1)
        execute_query(ctx, name, args)
        entry = journal.entries[-1]
        assert entry.query == name
        yield name, type(entry).from_line(entry.to_line())


def test_every_write_query_has_an_example():
    writes = {query.name for query in all_queries().values()
              if query.side_effects}
    assert writes - {name for name, *_ in EXAMPLES} == set()


def test_the_stamp_covers_every_column_a_write_changes():
    db = create_backend("memory")
    examples = run_examples(db)
    for _ in EXAMPLES:
        before, versions = contents(db), db.versions()
        query, entry = next(examples)
        moved = {name for name, version in db.versions().items()
                 if versions[name] != version} - SYSTEM_TABLES
        assert {table for table, _ in entry.changed} == moved, query
        stamped = {(table, column) for table, columns in entry.changed
                   for column in columns}
        missing = changed_columns(before, contents(db), moved) - stamped
        assert not missing, f"{query} changed {sorted(missing)} unstamped"


def test_both_backends_stamp_the_same_tables(tmp_path):
    memory = run_examples(create_backend("memory"))
    sqlite = run_examples(
        create_backend("sqlite", str(tmp_path / "stamp.sqlite")))
    for (query, mine), (_, theirs) in zip(memory, sqlite):
        assert [t for t, _ in mine.changed] == \
            [t for t, _ in theirs.changed], query


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_bookkeeping_write_stamps_nothing(backend, tmp_path):
    """The DCM's flag write is not a user modification: no data version
    moves, so ``mutated`` names nothing and the entry stamps nothing."""
    db = create_backend(backend, str(tmp_path / "b.sqlite")
                        if backend == "sqlite" else None)
    journal = Journal()
    ctx = QueryContext(db=db, clock=Clock(BASE), caller="root",
                       client="test", privileged=True, journal=journal)
    execute_query(ctx, "add_server_info", ["POP", "60", "/tmp/pop",
                                           "/bin/true", "UNIQUE", "1",
                                           "NONE", ""])
    _, mutated = run_write(ctx, get_query("set_server_internal_flags"),
                           ["POP", "100", "100", "0", "1", "broken"])
    assert not mutated
    assert journal.entries[-1].changed == ()
    assert journal.entries[-2].changed == (
        ("servers", tuple(sorted(db.table("servers").columns))),)


def test_an_abort_stamps_nothing():
    """The rolled-back insert and the id it drew changed nothing, so
    nothing is journaled."""
    @register("stamp_abort", "stab", ("name",), (), side_effects=True)
    def stamp_abort(ctx, args):
        ctx.db.table("machine").insert(
            {"name": args[0], "type": "VAX",
             "mach_id": ctx.db.next_id("mach_id", now=ctx.now)},
            now=ctx.now)
        raise MoiraError(MR_NO_HANDLE, "failed after the insert")

    try:
        journal = Journal()
        ctx = QueryContext(db=create_backend("memory"), clock=Clock(BASE),
                           caller="root", privileged=True, journal=journal)
        with pytest.raises(MoiraError):
            execute_query(ctx, "stamp_abort", ["AB.MIT.EDU"])
    finally:
        unregister("stamp_abort")
    assert journal.entries == []


LINE = ('{"seq":1,"when":%d,"who":"root","client":"t",'
        '"query":"update_user_shell","args":["a","/bin/sh"]' % BASE)


def test_a_stamp_round_trips_as_one_shared_tuple():
    entry = JournalEntry.from_line(
        LINE + ',"changed":{"users":["shell","modtime"],"alias":[]}}')
    assert entry.changed == (("alias", ()), ("users", ("modtime", "shell")))
    again = JournalEntry.from_line(entry.to_line())
    assert again.changed is entry.changed


@pytest.mark.parametrize("changed", ['[]', '5', '{"users":"shell"}',
                                     '{"users":[1]}', '{"users":null}'])
def test_a_malformed_stamp_is_refused(changed):
    with pytest.raises(ValueError):
        JournalEntry.from_line(LINE + ',"changed":%s}' % changed)


def test_an_entry_without_a_stamp_dirties_every_service():
    """A WAL written before entries carried their footprint: every
    service is dirty, as an undeclared query's write once was."""
    journal = Journal()
    cdc = CdcExtractor(None, journal, Clock(BASE))
    entry = JournalEntry.from_line(LINE + "}")
    assert entry.changed is None
    journal.record(entry.when, entry.who, entry.query, entry.args)
    cdc.poll()
    assert set(cdc._pending) == set(all_generators())


# -- host policy converges on the extractor's schedule ------------------------

SMALL = PopulationSpec(users=20, unregistered_users=2, nfs_servers=2,
                       maillists=4, clusters=2, machines_per_cluster=1,
                       printers=2, network_services=4)


def service_files(host) -> dict:
    """The configuration files the DCM installed on *host*."""
    return {path: host.fs.read(path) for path in host.fs.listdir("/etc/")
            if not path.endswith((".moira_update", ".moira_old", ".pid"))}


def test_host_policy_writes_converge_on_the_next_pump():
    d = AthenaDeployment(DeploymentConfig(population=SMALL, cdc=True))
    d.run_hours(25)     # cron builds + pushes every service
    client = d.direct_client()

    # a new ZEPHYR host: its serverhosts row is the only write
    zephyr = d.hosts[d.handles.zephyr_machines[0].upper()]
    client.query("add_machine", "NEWZ.MIT.EDU", "VAX")
    host = d._make_host("NEWZ.MIT.EDU")
    d.dcm.bind_host("ZEPHYR", "NEWZ.MIT.EDU", ServiceBinding(
        host=host, daemon=d.daemons["NEWZ.MIT.EDU"]))
    d.pump_cdc()
    assert service_files(host) == {}
    client.query("add_server_host_info", "ZEPHYR", "NEWZ.MIT.EDU",
                 1, 0, 0, "")
    d.pump_cdc()
    assert service_files(host) == service_files(zephyr) != {}

    # an NFS host that lost its files: the operator's override
    nfs = d.hosts[d.handles.nfs_machines[0].upper()]
    lost = service_files(nfs)
    assert lost
    for path in lost:
        nfs.fs.unlink(path)
    client.query("set_server_host_override", "NFS", nfs.name)
    d.pump_cdc()
    assert service_files(nfs) == lost
