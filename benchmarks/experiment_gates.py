"""The experiments' count and ratio gates, one table.

Each gate takes one reading from a small scripted drive of the system,
prints it, and fails the run when it is above its ceiling; every
failure is listed before the script exits non-zero.

Run with:  PYTHONPATH=src python benchmarks/experiment_gates.py
"""

import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path


def storm_fsyncs_per_write():
    """fsyncs per write of an 8-client TCP write storm (3 s)."""
    storm = Path(__file__).with_name("write_storm.py")
    out = subprocess.run(
        [sys.executable, str(storm), "tcp", "--clients", "8",
         "--seconds", "3"],
        check=True, capture_output=True, text=True, env=os.environ).stdout
    print(out, end="")
    last = out.splitlines()[-1]
    fields = dict(item.split("=", 1) for item in last.split())
    return float(fields["fsyncs_per_write"])


def checkpoint_gc_visited():
    """Collector visits of a checkpoint after one update, 10k world."""
    from repro.core import AthenaDeployment, DeploymentConfig
    from repro.db.recovery import checkpoint
    from repro.workload import PopulationSpec
    with tempfile.TemporaryDirectory() as tmp:
        d = AthenaDeployment(DeploymentConfig(
            population=PopulationSpec(users=10_000),
            wal_path=Path(tmp) / "wal"))
        d.direct_client().query("update_user_shell", d.handles.logins[0],
                                "/bin/zsh")
        before = d.db.mvcc_stats()["gc_visited"]
        checkpoint(d.db, d.journal, Path(tmp) / "ckpt")
        visited = d.db.mvcc_stats()["gc_visited"] - before
        d.server.shutdown()
        d.journal.close()
    return visited


def checkpoint_write_stall():
    """Slowest write a second thread made while a checkpoint dumped, as
    a share of the dump's wall time: median of 3 checkpoints, 10k
    world.  The writer sends one ``add_machine`` every 2 ms from the
    moment the dump starts until it returns."""
    from repro.core import AthenaDeployment, DeploymentConfig
    from repro.db import recovery
    from repro.workload import PopulationSpec
    dump, ratios = recovery.mrbackup, []

    def dump_beside_a_writer(db, directory):
        done, slowest = threading.Event(), [0.0]

        def write():
            n = 0
            while not done.wait(0.002):
                began = time.perf_counter()
                client.query("add_machine",
                             f"STALL{len(ratios)}X{n}.MIT.EDU", "VAX")
                slowest[0] = max(slowest[0], time.perf_counter() - began)
                n += 1

        writer = threading.Thread(target=write)
        began = time.perf_counter()
        writer.start()
        try:
            return dump(db, directory)
        finally:
            wall = time.perf_counter() - began
            done.set()
            writer.join()
            ratios.append(slowest[0] / wall)

    with tempfile.TemporaryDirectory() as tmp:
        d = AthenaDeployment(DeploymentConfig(
            population=PopulationSpec(users=10_000),
            wal_path=Path(tmp) / "wal"))
        client = d.direct_client()
        recovery.mrbackup = dump_beside_a_writer
        try:
            for _ in range(3):
                recovery.checkpoint(d.db, d.journal, Path(tmp) / "ckpt")
        finally:
            recovery.mrbackup = dump
        d.server.shutdown()
        d.journal.close()
    return statistics.median(ratios)


def converge_journal_entries():
    """Journal entries of one membership change on 20 NFS hosts."""
    from repro.core import AthenaDeployment, DeploymentConfig
    from repro.workload import PopulationSpec
    d = AthenaDeployment(DeploymentConfig(cdc=True, population=PopulationSpec(
        users=60, unregistered_users=5, nfs_servers=20, maillists=8,
        clusters=3, machines_per_cluster=2, printers=5,
        network_services=12)))
    d.run_hours(25)
    d.clock.advance(60)
    group = next(row for row in d.db.table("list").select({"active": 1})
                 if row["grouplist"] and not row["maillist"])
    members = {row["member_id"] for row in d.db.table("members").select(
        {"list_id": group["list_id"], "member_type": "USER"})}
    user = next(row for row in d.db.table("users").select({"status": 1})
                if row["users_id"] not in members)
    before = d.journal.stats()["appends"]
    d.direct_client().query("add_member_to_list", group["name"], "USER",
                            user["login"])
    d.pump_cdc()
    return d.journal.stats()["appends"] - before


#: (what is read, reading, ceiling, what a failure means)
GATES = (
    # A TCP wakeup's writes share one fsync: one fsync per TCP write
    # measured 1.000 here before the loop synced once per wakeup; 0.7
    # catches a silent return to it.
    ("write_storm tcp: fsyncs_per_write", storm_fsyncs_per_write, 0.7,
     "TCP writes pay one fsync each again"),
    # A checkpoint collects what was retired, not the database:
    # collecting by walking every version store visited more than
    # 50,000 scan entries alone at 10k users; collecting the queue of
    # retired items visited 42 here.  A count, not a timing.
    ("10k world, one update, checkpoint: gc_visited",
     checkpoint_gc_visited, 1000,
     "a checkpoint's collection walks every version store again"),
    # Writers commit past a checkpoint's pinned view: a write that
    # waited out the dump, under the lock it used to hold, read about
    # 0.98 of the checkpoint's wall time here; past the view, 0.003 in
    # two runs of three.  A ratio, so a slow runner moves both sides.
    ("10k world, checkpoint: slowest concurrent write / dump wall time",
     checkpoint_write_stall, 0.5, "writers wait for a checkpoint's dump"),
    # A converge journals outcomes, not progress: journaling
    # inprogress=1 before each push and an outcome after it cost 51
    # entries for one membership change on twenty NFS hosts; one
    # outcome write per service round, 7.  A count.
    ("one membership change, 20 NFS hosts: journal entries",
     converge_journal_entries, 10, "a converge journals its progress again"),
)


def main():
    failed = []
    for figure, reading, ceiling, meaning in GATES:
        value = reading()
        verdict = "ok" if value <= ceiling else "FAIL"
        print(f"{figure} {value:.4g} (ceiling {ceiling}) {verdict}",
              flush=True)
        if value > ceiling:
            failed.append(meaning)
    if failed:
        sys.exit("; ".join(failed))


if __name__ == "__main__":
    main()
