"""System-level property tests.

* Random sequences of mutating queries never violate the mrcheck
  invariants (referential integrity, quota-allocation accounting).
* Random bytes and malformed frames never crash the Moira server.
* Backup round-trips are lossless under arbitrary mutation histories.
* The DCM converges: after any fault schedule heals, every enabled
  host ends up successfully updated.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import MrCheck
from repro.db.backup import mrbackup, mrrestore
from repro.db.schema import REFERENCES, build_database
from repro.errors import MoiraError
from repro.queries.base import QueryContext, execute_query
from repro.server.access import seed_capacls
from repro.sim.clock import Clock

# ``REPRO_MRCHECK_EXAMPLES`` sets the mrcheck property's example budget
# (tier-1 draws 40; a CI lane draws many more)
MRCHECK_EXAMPLES = int(os.environ.get("REPRO_MRCHECK_EXAMPLES", "40"))
NAMES = ["alpha", "beta", "gamma", "delta", "epsilon"]
MACHINES = ["M1.MIT.EDU", "M2.MIT.EDU", "M3.MIT.EDU"]


def op_strategy():
    """One random mutating operation (args may be invalid — that's the
    point: invalid operations must fail cleanly without corruption).
    Between them they write every reference the schema declares."""
    name = st.sampled_from(NAMES)
    machine = st.sampled_from(MACHINES)
    quota = st.integers(-10, 800)
    ace = st.sampled_from(["NONE", "USER", "LIST"])
    member = st.sampled_from(["USER", "LIST", "STRING"])
    return st.one_of(
        st.tuples(st.just("add_user"), name),
        st.tuples(st.just("delete_user"), name),
        st.tuples(st.just("add_list"), name, ace, name),
        st.tuples(st.just("set_list_ace"), name, ace, name),
        st.tuples(st.just("delete_list"), name),
        st.tuples(st.just("add_member"), name, member, name),
        st.tuples(st.just("delete_member"), name, member, name),
        st.tuples(st.just("add_machine"), machine),
        st.tuples(st.just("delete_machine"), machine),
        st.tuples(st.just("add_filesys"), name, machine),
        st.tuples(st.just("move_filesys"), name, machine),
        st.tuples(st.just("delete_filesys"), name),
        st.tuples(st.just("add_quota"), name, name, quota),
        st.tuples(st.just("update_quota"), name, name, quota),
        st.tuples(st.just("delete_quota"), name, name),
        st.tuples(st.just("set_pobox"), name, st.sampled_from(["POP", "SMTP"]),
                  machine),
        st.tuples(st.just("add_zephyr"), name,
                  st.lists(st.tuples(ace, name), min_size=4, max_size=4)),
        st.tuples(st.just("delete_zephyr"), name),
        st.tuples(st.just("set_hostaccess"), machine, ace, name),
        st.tuples(st.just("delete_hostaccess"), machine),
        st.tuples(st.just("add_printcap"), name, machine),
        st.tuples(st.just("delete_printcap"), name),
        st.tuples(st.just("add_service"), name, ace, name, machine),
        st.tuples(st.just("delete_service"), name),
        st.tuples(st.just("map_machine"), machine, name),
        st.tuples(st.just("delete_cluster"), name),
    )


def _entity(kind, who):
    """The name an ACE or a list member of *kind* gives for *who*."""
    return {"NONE": "NONE", "USER": who, "LIST": f"l-{who}",
            "STRING": f"{who}@example.com"}[kind]


def _filesys_args(name, machine):
    return ("NFS", machine, f"/u1/{name}", f"/mit/{name}", "w", "", name,
            f"l-{name}", 1, "HOMEDIR")


def apply_op(run, op):
    kind = op[0]
    try:
        if kind == "add_user":
            run("add_user", op[1], -1, "/bin/csh", "L", "F", "", 1, "",
                "1990")
        elif kind == "delete_user":
            run("update_user_status", op[1], 0)
            run("delete_user", op[1])
        elif kind == "add_list":
            run("add_list", f"l-{op[1]}", 1, 1, 0, 1, 1, -1, op[2],
                _entity(op[2], op[3]), "")
        elif kind == "set_list_ace":
            run("update_list", f"l-{op[1]}", f"l-{op[1]}", 1, 1, 0, 1, 1,
                -1, op[2], _entity(op[2], op[3]), "")
        elif kind == "delete_list":
            run("delete_list", f"l-{op[1]}")
        elif kind == "add_member":
            run("add_member_to_list", f"l-{op[1]}", op[2],
                _entity(op[2], op[3]))
        elif kind == "delete_member":
            run("delete_member_from_list", f"l-{op[1]}", op[2],
                _entity(op[2], op[3]))
        elif kind == "add_machine":
            run("add_machine", op[1], "VAX")
            run("add_nfsphys", op[1], "/u1", "ra81", 1, 0, 5000)
        elif kind == "delete_machine":
            run("delete_nfsphys", op[1], "/u1")
            run("delete_machine", op[1])
        elif kind == "add_filesys":
            run("add_filesys", f"fs-{op[1]}", *_filesys_args(op[1], op[2]))
        elif kind == "move_filesys":
            run("update_filesys", f"fs-{op[1]}", f"fs-{op[1]}",
                *_filesys_args(op[1], op[2]))
        elif kind == "delete_filesys":
            run("delete_filesys", f"fs-{op[1]}")
        elif kind == "add_quota":
            run("add_nfs_quota", f"fs-{op[1]}", op[2], op[3])
        elif kind == "update_quota":
            run("update_nfs_quota", f"fs-{op[1]}", op[2], op[3])
        elif kind == "delete_quota":
            run("delete_nfs_quota", f"fs-{op[1]}", op[2])
        elif kind == "set_pobox":
            run("set_pobox", op[1], op[2],
                op[3] if op[2] == "POP" else f"{op[1]}@example.com")
        elif kind == "add_zephyr":
            run("add_zephyr_class", f"z-{op[1]}",
                *(arg for ace, who in op[2] for arg in (ace, _entity(ace, who))))
        elif kind == "delete_zephyr":
            run("delete_zephyr_class", f"z-{op[1]}")
        elif kind == "set_hostaccess":
            run("add_server_host_access", op[1], op[2],
                _entity(op[2], op[3]))
        elif kind == "delete_hostaccess":
            run("delete_server_host_access", op[1])
        elif kind == "add_printcap":
            run("add_printcap", f"p-{op[1]}", op[2], "/usr/spool",
                f"p-{op[1]}", "")
        elif kind == "delete_printcap":
            run("delete_printcap", f"p-{op[1]}")
        elif kind == "add_service":
            run("add_server_info", f"s-{op[1]}", 60, "/tmp/t", "s.sh",
                "UNIQUE", 1, op[2], _entity(op[2], op[3]))
            run("add_server_host_info", f"s-{op[1]}", op[4], 1, 0, 0, "")
        elif kind == "delete_service":
            run("delete_server_info", f"s-{op[1]}")
        elif kind == "map_machine":
            run("add_cluster", f"c-{op[2]}", "", "")
            run("add_cluster_data", f"c-{op[2]}", "zephyr", "Z1")
            run("add_machine_to_cluster", op[1], f"c-{op[2]}")
        elif kind == "delete_cluster":
            run("delete_cluster", f"c-{op[1]}")
    except MoiraError:
        pass  # invalid ops must fail *cleanly*


def _substrate():
    """A database and its runner, holding a known-good substrate: every
    user, a list each, every machine with a partition, a home
    filesystem for two users, and every capability on one list."""
    db = build_database()
    ctx = QueryContext(db=db, clock=Clock(), caller="root",
                       client="prop", privileged=True)

    def run(name, *args):
        return execute_query(ctx, name, [str(a) for a in args])

    run("add_machine", "BASE.MIT.EDU", "VAX")
    run("add_nfsphys", "BASE.MIT.EDU", "/u1", "ra81", 1, 0, 100000)
    for machine in MACHINES:
        apply_op(run, ("add_machine", machine))
    for user in NAMES:
        apply_op(run, ("add_user", user))
        apply_op(run, ("add_list", user, "NONE", ""))
    for user in NAMES[:2]:
        apply_op(run, ("add_filesys", user, "BASE.MIT.EDU"))
    assert len(db.table("filesys").rows) == 2
    seed_capacls(db, f"l-{NAMES[4]}")
    return db, run


# ops that between them write every declared reference, in an order
# where each succeeds
REACH = [
    ("set_list_ace", "gamma", "LIST", "alpha"),
    ("set_list_ace", "delta", "USER", "alpha"),
    ("add_member", "gamma", "USER", "beta"),
    ("add_member", "gamma", "LIST", "alpha"),
    ("add_member", "gamma", "STRING", "x"),
    ("move_filesys", "beta", "M1.MIT.EDU"), ("add_quota", "beta", "beta", 9),
    ("set_pobox", "alpha", "POP", "M1.MIT.EDU"),
    ("set_pobox", "beta", "SMTP", "M1.MIT.EDU"),
    ("add_zephyr", "alpha", [("USER", "alpha"), ("LIST", "beta")] * 2),
    ("add_zephyr", "beta", [("LIST", "alpha"), ("USER", "gamma")] * 2),
    ("set_hostaccess", "M1.MIT.EDU", "USER", "alpha"),
    ("set_hostaccess", "M2.MIT.EDU", "LIST", "beta"),
    ("add_printcap", "alpha", "M1.MIT.EDU"),
    ("add_service", "alpha", "LIST", "alpha", "M1.MIT.EDU"),
    ("add_service", "beta", "USER", "beta", "M1.MIT.EDU"),
    ("map_machine", "M1.MIT.EDU", "alpha"),
]


def test_the_vocabulary_reaches_every_declared_reference():
    """The random workload can write each (reference, type) pair the
    schema declares, so MrCheck's audit of each can fail."""
    db, run = _substrate()
    for op in REACH:
        apply_op(run, op)
    for ref in REFERENCES:
        for type_value, target in ref.targets.items():
            if target is None:
                continue
            rows = db.table(ref.table).rows
            assert any(row[ref.column] and (
                type_value is None or row[ref.type_column] == type_value)
                for row in rows), (ref.table, ref.column, type_value)
    assert MrCheck(db).run() == []


class TestInvariantsUnderRandomWorkloads:
    @settings(max_examples=MRCHECK_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(op_strategy(), max_size=40))
    def test_mrcheck_always_clean(self, ops):
        db, run = _substrate()
        for op in ops:
            apply_op(run, op)
        assert MrCheck(db).run() == []

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(op_strategy(), max_size=25))
    def test_backup_roundtrip_after_any_history(self, ops):
        import tempfile
        from pathlib import Path
        db = build_database()
        ctx = QueryContext(db=db, clock=Clock(), caller="root",
                           client="prop", privileged=True)

        def run(name, *args):
            return execute_query(ctx, name, [str(a) for a in args])

        run("add_machine", "BASE.MIT.EDU", "VAX")
        run("add_nfsphys", "BASE.MIT.EDU", "/u1", "ra81", 1, 0, 100000)
        for op in ops:
            apply_op(run, op)

        with tempfile.TemporaryDirectory() as tmp:
            mrbackup(db, Path(tmp) / "dump")
            restored = build_database()
            mrrestore(restored, Path(tmp) / "dump")
        for name, table in db.tables.items():
            assert list(restored.tables[name].rows) == list(table.rows), name


class TestProtocolFuzzing:
    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=200))
    def test_random_frames_never_crash_server(self, blob):
        from repro.server import MoiraServer
        from repro.sim.clock import Clock as C

        server = MoiraServer(build_database(), C())
        conn = server.open_connection("fuzz")
        replies = server.handle_frame(conn, blob)
        assert isinstance(replies, list)
        assert replies  # always answers something
        # ...and the server still works afterwards
        from repro.protocol.wire import MajorRequest, encode_request
        ok = server.handle_frame(
            conn, encode_request(MajorRequest.NOOP, [])[4:])
        from repro.protocol.wire import decode_reply
        assert decode_reply(ok[0][4:]).code == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.text(max_size=20), max_size=6))
    def test_random_query_args_fail_cleanly(self, args):
        from repro.server import MoiraServer
        from repro.protocol.wire import (MajorRequest, decode_reply,
                                         encode_request)

        server = MoiraServer(build_database(), Clock())
        conn = server.open_connection("fuzz")
        frame = encode_request(MajorRequest.QUERY,
                               ["update_user_shell", *args])
        replies = server.handle_frame(conn, frame[4:])
        final = decode_reply(replies[-1][4:])
        assert final.code != 0  # unauthenticated mutation always fails


class TestConvergence:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.sampled_from(["crash_hesiod", "partition_mail",
                                     "corrupt_nfs", "quiet"]),
                    min_size=1, max_size=4))
    def test_dcm_converges_after_faults_heal(self, faults):
        """Whatever faults occur, once they heal every enabled host is
        eventually updated successfully."""
        from repro.core import AthenaDeployment, DeploymentConfig
        from repro.workload import PopulationSpec

        d = AthenaDeployment(DeploymentConfig(population=PopulationSpec(
            users=20, unregistered_users=0, nfs_servers=2, maillists=3,
            clusters=1, machines_per_cluster=1, printers=2,
            network_services=4)))
        for fault in faults:
            if fault == "crash_hesiod":
                d.hosts[d.handles.hesiod_machine].crash()
            elif fault == "partition_mail":
                d.network.partition(d.handles.mailhub_machine)
            elif fault == "corrupt_nfs":
                d.network.set_corrupt_rate(d.handles.nfs_machines[0],
                                           1.0)
            d.run_hours(8)

        # heal everything
        if not d.hosts[d.handles.hesiod_machine].alive:
            d.hosts[d.handles.hesiod_machine].reboot()
        d.network.heal(d.handles.mailhub_machine)
        d.network.heal(d.handles.nfs_machines[0])
        d.run_hours(26)

        for row in d.db.table("serverhosts").rows:
            if row["service"] in ("HESIOD", "NFS", "MAIL", "ZEPHYR"):
                assert row["success"] == 1, (row["service"],
                                             row["hosterrmsg"])
                assert row["hosterror"] == 0
