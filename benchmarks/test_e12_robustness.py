"""E12: robustness — crash recovery and propagation under faults.

Two invariants from the robustness work, measured rather than assumed:

**E12a — crash recovery.**  Kill the Moira server at *every* WAL
boundary of an ``E12_MUTATIONS``-step workload (rotating through the
three crash kinds: before the journal append, mid-append with a torn
on-disk record, and after the fsync) and recover each time from the
snapshot + WAL replay + client retry.  Every recovery must land
byte-identical to the never-crashed oracle's per-table ASCII dump.

**E12b — propagation under faults.**  Two server hosts partitioned for
three DCM cycles plus 20 % message loss to every other target.  The
DCM must still converge within a bounded number of cycles, the circuit
breaker must cap attempts to a dead host at the open threshold plus
one half-open probe per cooldown window, and the wall-clock cost of
serving the *healthy* hosts must stay within ``E12_MAX_DEGRADATION``
(default 25 %) of an identical fault-free run.

The records land in ``benchmarks/results/E12a.json`` and
``E12b.json``.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import record
from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.backup import mrbackup
from repro.db.journal import Journal
from repro.db.recovery import checkpoint, recover
from repro.db.schema import build_database
from repro.dcm.retry import BreakerState
from repro.errors import MoiraError
from repro.queries.base import QueryContext, execute_query
from repro.sim.clock import DEFAULT_EPOCH, Clock
from repro.sim.faults import FaultInjector, ServerCrash
from repro.workload import PopulationSpec

MUTATIONS = int(os.environ.get("E12_MUTATIONS", "200"))
MAX_CYCLES = int(os.environ.get("E12_MAX_CYCLES", "24"))
LOSS_RATE = float(os.environ.get("E12_LOSS_RATE", "0.2"))
MAX_DEGRADATION = float(os.environ.get("E12_MAX_DEGRADATION", "0.25"))
EPS_S = float(os.environ.get("E12_EPS_S", "0.25"))

BASE = DEFAULT_EPOCH + 1000
CRASH_KINDS = ("record", "torn", "appended")


# -- E12a: every-boundary crash recovery --------------------------------------

def mutations(n):
    muts = []
    for i in range(n):
        if i % 3 == 2:
            muts.append(("add_list",
                         [f"list{i}", "1", "1", "0", "1", "0",
                          str(900 + i), "NONE", "NONE", f"list {i}"]))
        else:
            muts.append(("add_user",
                         [f"user{i}", str(7000 + i), "/bin/csh",
                          f"Last{i}", "First", "", "1", f"mitid{i}",
                          "1990"]))
    return muts


def apply_one(db, journal, clock, when, name, args):
    clock.set(when)
    ctx = QueryContext(db=db, clock=clock, caller="root", client="test",
                      privileged=True, journal=journal)
    execute_query(ctx, name, args)


def dump(db, directory):
    mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def arm(faults, kind, boundary):
    if kind == "record":
        faults.crash_server("journal.record", at_call=boundary)
    elif kind == "torn":
        faults.tear_write("journal.write", at_call=boundary)
    else:
        faults.crash_server("journal.appended", at_call=boundary)


def crash_and_recover(tmp_path, kind, boundary, muts):
    """Run the schedule, crash at the armed boundary, recover, resume.

    Returns ``(db, recovery_seconds)``.
    """
    wal_path = tmp_path / "wal"
    snap = tmp_path / "snap"
    faults = FaultInjector()
    arm(faults, kind, boundary)
    db = build_database()
    journal = Journal(path=wal_path, faults=faults)
    checkpoint(db, journal, snap)     # baseline snapshot, watermark 0
    clock = Clock()
    crashed_at = None
    for i, (name, args) in enumerate(muts):
        try:
            apply_one(db, journal, clock, BASE + i * 10, name, args)
        except ServerCrash:
            crashed_at = i
            break
    journal.close()
    if crashed_at is None:
        return db, 0.0
    started = time.perf_counter()
    rec = recover(snap, wal_path=wal_path)
    recovery_s = time.perf_counter() - started
    db = rec.db
    journal = Journal.load(wal_path)
    clock = Clock()
    # the client re-runs its failed mutation and the rest of the
    # schedule; a conflict means the WAL already made it durable
    for j in range(crashed_at, len(muts)):
        name, args = muts[j]
        try:
            apply_one(db, journal, clock, BASE + j * 10, name, args)
        except MoiraError:
            pass
    journal.close()
    return db, recovery_s


def test_e12a_crash_recovery_sweep(tmp_path):
    muts = mutations(MUTATIONS)

    oracle = build_database()
    journal = Journal(path=tmp_path / "oracle-wal")
    clock = Clock()
    for i, (name, args) in enumerate(muts):
        apply_one(oracle, journal, clock, BASE + i * 10, name, args)
    journal.close()
    oracle_dump = dump(oracle, tmp_path / "oracle-dump")

    recovery_times = []
    started = time.perf_counter()
    for boundary in range(1, MUTATIONS + 1):
        kind = CRASH_KINDS[boundary % len(CRASH_KINDS)]
        workdir = tmp_path / f"{kind}-{boundary}"
        workdir.mkdir()
        db, recovery_s = crash_and_recover(workdir, kind, boundary, muts)
        recovery_times.append(recovery_s)
        got = dump(db, workdir / "dump")
        assert got == oracle_dump, (
            f"divergence after {kind} crash at boundary {boundary}")
    elapsed = time.perf_counter() - started

    mean_recovery_ms = sum(recovery_times) / len(recovery_times) * 1e3
    lines = [
        f"E12a: crash recovery sweep ({MUTATIONS} mutations, "
        f"a kill at every WAL boundary, kinds {'/'.join(CRASH_KINDS)})",
        f"recoveries               {MUTATIONS}",
        f"byte-identical dumps     {MUTATIONS}/{MUTATIONS}",
        f"mean recovery time       {mean_recovery_ms:8.2f} ms",
        f"sweep wall time          {elapsed:8.1f} s",
    ]
    record("E12a", {
        "mutations": MUTATIONS,
        "boundaries_swept": MUTATIONS,
        "crash_kinds": list(CRASH_KINDS),
        "byte_identical": True,
        "mean_recovery_ms": round(mean_recovery_ms, 2),
        "sweep_wall_s": round(elapsed, 2),
    }, lines)


# -- E12b: DCM convergence + healthy-host cost under faults -------------------

def make_deployment(faults=None):
    return AthenaDeployment(DeploymentConfig(
        population=PopulationSpec(
            users=60, unregistered_users=0, nfs_servers=4,
            maillists=8, clusters=2, machines_per_cluster=2,
            printers=2, network_services=8),
        faults=faults))


# services whose generations come due inside the experiment window
# (HESIOD every 6 h, NFS every 12 h; MAIL/ZEPHYR run daily)
TRACKED = ("HESIOD", "NFS")
WARMUP_HOURS = 11.75   # NFS generation fires on the t=12 h cycle


def server_rows(d):
    return [row for row in d.db.table("serverhosts").rows
            if row["enable"] and row["service"] in TRACKED]


def machine_names(d):
    return {row["mach_id"]: row["name"]
            for row in d.db.table("machine").rows}


def converged(d):
    rows = server_rows(d)
    return bool(rows) and all(row["success"] == 1 for row in rows)


def run_until_converged(d, max_cycles):
    """Run DCM cycles (15 min each) until all enabled serverhosts are
    green; returns (cycles_used, wall_seconds)."""
    cycles = 0
    started = time.perf_counter()
    while not converged(d) and cycles < max_cycles:
        d.run_hours(0.25)
        cycles += 1
    return cycles, time.perf_counter() - started


def test_e12b_propagation_under_faults():
    # -- fault-free baseline: identical schedule, no weather
    base = make_deployment()
    base.run_hours(WARMUP_HOURS)
    base_cycles, base_wall = run_until_converged(base, MAX_CYCLES)
    assert converged(base)

    # -- faulted run: 2 hosts partitioned 3 cycles, 20% loss elsewhere
    faults = FaultInjector(seed=12)
    d = make_deployment(faults)
    d.run_hours(WARMUP_HOURS)
    names = machine_names(d)
    partitioned = d.handles.nfs_machines[:2]
    healthy = sorted({names[row["mach_id"]] for row in server_rows(d)}
                     - set(partitioned))
    for machine in partitioned:
        faults.net_partition(machine, cycles=3)
    for machine in healthy:
        d.network.set_loss_rate(machine, LOSS_RATE)
    cycles, wall = run_until_converged(d, MAX_CYCLES)
    assert converged(d), (
        f"DCM failed to converge within {MAX_CYCLES} cycles; "
        f"open breakers: {d.dcm.governor.open_hosts()}")

    # breaker cap: while a partitioned host was dead the governor
    # admitted at most threshold attempts before opening, then one
    # half-open probe per cooldown window (1800 s = 2 cycles)
    breaker_rows = {}
    for machine in partitioned:
        for (service, m), h in [((hh.service, hh.machine), hh)
                                for hh in d.dcm.governor._health.values()
                                if hh.machine == machine]:
            windows = 1 + cycles * 900 // 1800
            assert h.attempts <= 3 + windows, (
                f"{service}/{m}: {h.attempts} attempts is more than "
                f"threshold + one probe per cooldown window")
            assert h.breaker is BreakerState.CLOSED   # healed
            breaker_rows[f"{service}/{m}"] = {
                "attempts": h.attempts,
                "soft_failures": h.soft_failures,
                "breaker_opens": h.breaker_opens,
            }

    # healthy-host cost: wall-clock per converging cycle must stay
    # within the degradation gate of the fault-free run
    base_per_cycle = base_wall / max(base_cycles, 1)
    fault_per_cycle = wall / max(cycles, 1)
    limit = base_per_cycle * (1.0 + MAX_DEGRADATION) + EPS_S
    degradation = fault_per_cycle / base_per_cycle - 1.0

    lines = [
        "E12b: DCM convergence under faults "
        f"(2 hosts partitioned 3 cycles, {LOSS_RATE:.0%} loss "
        "elsewhere)",
        f"baseline convergence     {base_cycles} cycles, "
        f"{base_per_cycle * 1e3:.1f} ms/cycle",
        f"faulted convergence      {cycles} cycles, "
        f"{fault_per_cycle * 1e3:.1f} ms/cycle",
        f"healthy-host degradation {degradation:+.1%} "
        f"(gate {MAX_DEGRADATION:.0%} + {EPS_S}s epsilon)",
        f"breaker caps             {breaker_rows}",
    ]
    record("E12b", {
        "partitioned_hosts": partitioned,
        "partition_cycles": 3,
        "loss_rate_elsewhere": LOSS_RATE,
        "baseline_cycles": base_cycles,
        "faulted_cycles": cycles,
        "baseline_ms_per_cycle": round(base_per_cycle * 1e3, 2),
        "faulted_ms_per_cycle": round(fault_per_cycle * 1e3, 2),
        "degradation_frac": round(degradation, 4),
        "max_degradation_gate": MAX_DEGRADATION,
        "breakers": breaker_rows,
        "converged": True,
    }, lines)
    assert fault_per_cycle <= limit, (
        f"healthy-host cost degraded {degradation:+.1%} per cycle "
        f"({fault_per_cycle:.3f}s vs {base_per_cycle:.3f}s baseline); "
        f"gate is {MAX_DEGRADATION:.0%} + {EPS_S}s")
