"""A snapshot's joins share one memo while the relation is unchanged.

``SnapshotTable.join`` answers a reply's join (a machine's name, an
owner's login) from a memo kept on the live relation and shared by
every snapshot that sees the relation's current rows: those pinned at
or past its ``mv_last_seq``.  An older snapshot memoises for its own
scan, as every other read does (``StorageTable.join``).  This module
checks the shared memo against that per-call one:

* every retrieval with a join, after each write query's example run
  through the server, on both backends;
* a snapshot pinned before a rename, an aborted rename, a replica's
  apply and resync;
* that a warm scan probes nothing, under threads, and that the checks
  here fail when the ``mv_last_seq`` check is taken out.

``REPRO_JOIN_MEMO_SOAK`` sets the soak's number of renames.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.db.backend import StorageTable, create_backend
from repro.db.journal import Journal
from repro.db.mvcc import INF_SEQ, SnapshotTable, TableVersionStore
from repro.db.schema import build_database
from repro.errors import MR_MORE_DATA
from repro.protocol.transport import connect_inproc
from repro.protocol.wire import MajorRequest
from repro.queries.base import (QueryContext, execute_query, get_query,
                                run_read)
from repro.replication.replica import ReplicaServer
from repro.server import MoiraServer, seed_capacls
from repro.sim.clock import DEFAULT_EPOCH, Clock
from tests.test_read_replies import SMALL, examples
from tests.test_write_footprint import EXAMPLES

BASE = DEFAULT_EPOCH + 9000
ADMIN = "jmadmin"
SOAK_RENAMES = int(os.environ.get("REPRO_JOIN_MEMO_SOAK", "300"))

# every retrieval whose reply joins another relation, bound to the
# entities EXAMPLES creates, renames and deletes
JOIN_READS = {
    "get_ace_use": ("USER", "fpx"),
    "get_all_nfsphys": (),
    "get_all_poboxes": (),
    "get_filesys_by_group": ("fpl2",),
    "get_filesys_by_label": ("*",),
    "get_filesys_by_machine": ("FP.MIT.EDU",),
    "get_filesys_by_nfsphys": ("FP.MIT.EDU", "/u1"),
    "get_list_info": ("*",),
    "get_members_of_list": ("fpl2",),
    "get_nfs_quota": ("fpfs2", "fpx"),
    "get_nfs_quotas_by_partition": ("FP.MIT.EDU", "/u1"),
    "get_nfsphys": ("FP.MIT.EDU", "*"),
    "get_pobox": ("fpx",),
    "get_poboxes_pop": (),
    "get_poboxes_smtp": (),
    "get_printcap": ("*",),
    "get_server_host_access": ("*",),
    "get_server_host_info": ("*", "*"),
    "get_server_info": ("*",),
    "get_zephyr_class": ("*",),
}


@contextmanager
def per_call_joins():
    """Every snapshot joins through its own memo, as a head read does."""
    shared = SnapshotTable.join
    SnapshotTable.join = StorageTable.join
    try:
        yield
    finally:
        SnapshotTable.join = shared


def test_every_joined_retrieval_is_checked():
    """A read example calling ``QueryContext.lookup`` is in JOIN_READS."""
    from repro.core import AthenaDeployment, DeploymentConfig
    from repro.workload import PopulationSpec
    d = AthenaDeployment(DeploymentConfig(population=PopulationSpec(**SMALL)))
    d.direct_client().query("add_server_host_access",
                            d.handles.nfs_machines[0], "USER",
                            d.handles.logins[1])
    joined = set()
    lookup = QueryContext.lookup

    def spy(ctx, *args):
        joined.add(current)
        return lookup(ctx, *args)

    QueryContext.lookup = spy
    try:
        for current, args in examples(d).items():
            ctx = QueryContext(db=d.db, clock=d.clock, caller="root",
                               privileged=True)
            for _ in run_read(ctx, get_query(current), args):
                pass
    finally:
        QueryContext.lookup = lookup
    assert joined - set(JOIN_READS) == set()
    assert {"get_filesys_by_machine", "get_nfs_quotas_by_partition"} <= \
        joined


def _served(backend: str):
    """An admin's in-process connection to a server over an empty
    *backend* database."""
    db = create_backend(backend)
    clock = Clock(BASE)
    seed_capacls(db)
    ctx = QueryContext(db=db, clock=clock, caller="root", client="seed",
                       privileged=True)
    execute_query(ctx, "add_user", [ADMIN, "7700", "/bin/csh", "Last",
                                    "First", "", "1", "idadmin", "1990"])
    execute_query(ctx, "add_member_to_list", ["moira-admins", "USER", ADMIN])
    server = MoiraServer(db, clock, journal=Journal())
    conn = connect_inproc(server)
    for state in server._connections.values():
        state.principal = ADMIN
    return clock, conn


def _reply(conn, name: str, args) -> list:
    return [(code, row) for code, rows
            in conn.call(MajorRequest.QUERY, [name, *args]) for row in rows]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_every_join_after_every_write_is_the_per_call_join(backend):
    clock, conn = _served(backend)
    answered = set()
    for write, *args in EXAMPLES:
        clock.advance(1)
        status = _reply(conn, write, args)[-1]
        assert status == (0, ()), (write, status)
        for name, read_args in JOIN_READS.items():
            shared = _reply(conn, name, read_args)
            warm = _reply(conn, name, read_args)
            with per_call_joins():
                expected = _reply(conn, name, read_args)
            assert shared == expected, (write, name)
            assert warm == expected, (write, name)
            if expected[0][0] == MR_MORE_DATA:
                answered.add(name)
    conn.close()
    assert answered == set(JOIN_READS)     # no check ran on no rows


# -- one relation, renamed ---------------------------------------------------


def _printers(machines: int = 3):
    """Printers jm<k>, each spooled on its own machine JM<k>.MIT.EDU."""
    db = build_database()
    ctx = QueryContext(db=db, clock=Clock(BASE), caller="root",
                       client="test", privileged=True)
    for k in range(machines):
        execute_query(ctx, "add_machine", [f"JM{k}.MIT.EDU", "VAX"])
        execute_query(ctx, "add_printcap", [f"jm{k}", f"JM{k}.MIT.EDU",
                                            f"/usr/spool/jm{k}", f"jm{k}",
                                            ""])
    return db, ctx


def _spool_hosts(ctx, view) -> dict:
    """printer -> its spool host's name, as get_printcap on *view*
    (a database, or a pinned snapshot) answers."""
    ctx = replace(ctx, db=view)
    return {row[0]: row[1] for run in run_read(
        ctx, get_query("get_printcap"), ["*"]) for row in run}


def _rename(ctx, old: str, new: str) -> None:
    execute_query(ctx, "update_machine", [old, new, "VAX"])


def _pinned_after_rename(db, ctx) -> str:
    """The spool host a snapshot pinned before a rename answers after
    a newer scan filled the memo with the new name."""
    with db.read_view() as old:
        assert _spool_hosts(ctx, old)["jm0"] == "JM0.MIT.EDU"
        _rename(ctx, "JM0.MIT.EDU", "JN0.MIT.EDU")
        assert _spool_hosts(ctx, db)["jm0"] == "JN0.MIT.EDU"
        return _spool_hosts(ctx, old)["jm0"]


def test_a_snapshot_pinned_before_a_rename_keeps_the_old_name():
    db, ctx = _printers()
    assert _pinned_after_rename(db, ctx) == "JM0.MIT.EDU"


def test_the_check_fails_without_the_seq_test(monkeypatch):
    """With ``mv_last_seq <= seq`` taken out of ``join_memo`` (every
    snapshot treated as current), the old snapshot reads the new name
    out of the shared memo."""
    join_memo = TableVersionStore.join_memo
    monkeypatch.setattr(TableVersionStore, "join_memo",
                        lambda store, seq: join_memo(store, INF_SEQ))
    db, ctx = _printers()
    assert _pinned_after_rename(db, ctx) == "JN0.MIT.EDU"


def test_an_aborted_rename_leaves_the_name():
    db, ctx = _printers()
    assert _spool_hosts(ctx, db)["jm0"] == "JM0.MIT.EDU"
    machine = db.table("machine")
    with pytest.raises(RuntimeError):
        with db.write_txn():
            machine.update_rows(machine.select({"name": "JM0.MIT.EDU"}),
                                {"name": "JX0.MIT.EDU"})
            # a reader beside the open write sees the committed name
            assert _spool_hosts(ctx, db)["jm0"] == "JM0.MIT.EDU"
            raise RuntimeError("abort")
    assert _spool_hosts(ctx, db)["jm0"] == "JM0.MIT.EDU"
    _rename(ctx, "JM0.MIT.EDU", "JN0.MIT.EDU")
    assert _spool_hosts(ctx, db)["jm0"] == "JN0.MIT.EDU"


def test_a_warm_scan_probes_nothing():
    db, ctx = _printers()
    reads = []
    for _ in range(2):
        with db.read_view() as view:
            hosts = _spool_hosts(ctx, view)
            reads.append(view.read_stats()["rows_scanned"])
    # cold: three printcap rows and one machine probe each; warm: the
    # printcap rows alone
    assert reads == [2 * len(hosts), len(hosts)]


def test_a_replica_joins_what_it_applied_and_reloaded():
    db, ctx = _printers()
    journal = Journal()
    clock = Clock(BASE)
    primary = MoiraServer(db, clock, journal=journal)
    replica = ReplicaServer(clock,
                            feed_factory=lambda: connect_inproc(primary))
    replica.step()                              # bootstrap: a snapshot
    assert _spool_hosts(ctx, replica.db)["jm0"] == "JM0.MIT.EDU"
    ctx = replace(ctx, journal=journal)
    _rename(ctx, "JM0.MIT.EDU", "JN0.MIT.EDU")
    assert replica.step() == 1                  # the tail: apply_entries
    assert _spool_hosts(ctx, replica.db)["jm0"] == "JN0.MIT.EDU"
    _rename(ctx, "JN0.MIT.EDU", "JP0.MIT.EDU")
    replica.sync_snapshot()                     # a resync: reload
    assert _spool_hosts(ctx, replica.db)["jm0"] == "JP0.MIT.EDU"


def test_renames_beside_readers():
    """One thread renames a machine back and forth while two read every
    spool host; each reply must be its own snapshot's names."""
    db, ctx = _printers()
    names = ["JM0.MIT.EDU", "JN0.MIT.EDU"]
    done = threading.Event()
    failures: list = []
    reads = [0, 0]

    def renamer():
        try:
            for n in range(SOAK_RENAMES):
                _rename(ctx, names[n % 2], names[(n + 1) % 2])
        except Exception as exc:        # surfaced below
            failures.append(exc)
        finally:
            done.set()

    def reader(index: int):
        try:
            while not done.is_set():
                with db.read_view() as view:
                    got = _spool_hosts(ctx, view)
                    by_id = {row["mach_id"]: row["name"]
                             for row in view.table("machine").rows}
                    want = {row["name"]: by_id[row["mach_id"]]
                            for row in view.table("printcap").rows}
                if got != want:
                    failures.append((got, want))
                    return
                reads[index] += 1
        except Exception as exc:
            failures.append(exc)

    threads = [threading.Thread(target=renamer)] + [
        threading.Thread(target=reader, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)         # switch threads mid-join often
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert all(reads)
    assert _spool_hosts(ctx, db)["jm0"] == names[SOAK_RENAMES % 2]
