"""E14 — the MVCC storage engine: lock-free reads beside writers.

16 reader connections and a continuous writer pool (20% write mix)
hammer one server at the paper's 10k design point.  Readers pin a
committed snapshot seq and scan immutable row versions with **no lock
at all**; only writer–writer exclusion remains.
``Database.sim_backend_latency`` models the INGRES round trip the
paper's server paid per query; a reader sleeps outside any lock, so
reads overlap writes fully.

Reported: absolute read and write requests/s.  (The 4.67x read speedup
in EXPERIMENTS.md was measured at PR 6 against the shared-lock reader
mode, ``set_mvcc(False)``, which no longer exists; there is no second
arm to take a ratio against.)

Oracles: every connection's reply stream must be byte-identical to
the same plans run *serially* through an inline server on an
identically built world — concurrency may not change a single reply
byte.  A crash sweep rides along — the E12 discipline (checkpoint,
crash at every armed WAL boundary, recover, client retry) run over
the ``memory`` and ``sqlite`` backends with recovery targeting a
fresh backend instance; every boundary must land byte-identical to
the never-crashed oracle.

Results land in ``benchmarks/results/BENCH_engine.json`` and
``benchmarks/results/E14.txt``.

Env knobs (CI smoke uses tiny values): E14_CLIENTS, E14_WRITERS,
E14_REQUESTS, E14_LATENCY, E14_WORKERS, E14_USERS,
E14_CRASH_BOUNDARIES.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time

from benchmarks.conftest import (
    BENCH_ENGINE_JSON,
    record_bench_to,
    write_result,
)
from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.backend import create_backend
from repro.db.backup import mrbackup
from repro.db.journal import Journal
from repro.db.recovery import checkpoint, recover
from repro.errors import MoiraError
from repro.protocol.wire import MajorRequest, encode_request
from repro.queries.base import QueryContext, execute_query
from repro.sim.clock import DEFAULT_EPOCH, Clock
from repro.sim.faults import FaultInjector, ServerCrash
from repro.workload import PopulationSpec

CLIENTS = int(os.environ.get("E14_CLIENTS", "16"))
WRITERS = int(os.environ.get("E14_WRITERS", "4"))
REQUESTS = int(os.environ.get("E14_REQUESTS", "30"))
LATENCY = float(os.environ.get("E14_LATENCY", "0.003"))
WORKERS = int(os.environ.get("E14_WORKERS", str(CLIENTS + WRITERS)))
USERS = int(os.environ.get("E14_USERS", "0"))  # 0 = the 10k design point
CRASH_BOUNDARIES = int(os.environ.get("E14_CRASH_BOUNDARIES", "200"))

BENCH_MACHINES = 64
BASE = DEFAULT_EPOCH + 1000


# -- part 1: lock-free read throughput ----------------------------------------


def _build_world(workers: int) -> AthenaDeployment:
    population = (PopulationSpec() if USERS == 0
                  else PopulationSpec(users=USERS, unregistered_users=0,
                                      nfs_servers=2, maillists=5,
                                      clusters=1, machines_per_cluster=2,
                                      printers=2, network_services=5))
    d = AthenaDeployment(DeploymentConfig(population=population,
                                          server_workers=workers))
    direct = d.direct_client()
    for k in range(BENCH_MACHINES):
        direct.query("add_machine", f"BENCH{k}.MIT.EDU", "VAX")
    return d


def _connect(d: AthenaDeployment) -> list[int]:
    admin = d.handles.logins[0]
    d.make_admin(admin)
    conn_ids = []
    for i in range(CLIENTS + WRITERS):
        conn_id = d.server.open_connection(f"e14-{i}")
        # bench shortcut: bind the admin principal directly instead of
        # replaying the Kerberos handshake on every connection
        d.server._connections[conn_id].principal = admin
        conn_ids.append(conn_id)
    return conn_ids


def _plans() -> list[list[bytes]]:
    return ([_reader_plan(i) for i in range(CLIENTS)] +
            [_writer_plan(i) for i in range(WRITERS)])


def _serial_digests() -> list[str]:
    """The reference: every plan, one connection after another, through
    an inline (workers=0) server with no simulated latency."""
    d = _build_world(0)
    conn_ids = _connect(d)
    digests = []
    for conn_id, plan in zip(conn_ids, _plans()):
        digest = hashlib.sha256()
        for frame in plan:
            for reply in d.server.handle_frame(conn_id, frame[4:]):
                digest.update(reply)
        digests.append(digest.hexdigest())
    return digests


def _reader_plan(client: int) -> list[bytes]:
    """Reads hit pre-seeded machines by exact name, so one
    connection's reply stream is independent of write interleaving."""
    return [encode_request(
        MajorRequest.QUERY,
        ["get_machine",
         f"BENCH{(client * 7 + j * 3) % BENCH_MACHINES}.MIT.EDU"])
        for j in range(REQUESTS)]


def _writer_plan(client: int) -> list[bytes]:
    """Writes add machines under client-private names."""
    return [encode_request(
        MajorRequest.QUERY,
        ["add_machine", f"BM{client}X{j}.MIT.EDU", "VAX"])
        for j in range(REQUESTS)]


def _run_concurrent() -> tuple[float, float, list[str], dict]:
    """The measurement, on a fresh world.

    Returns (read rps, write rps, reply digests, mvcc stats).
    """
    d = _build_world(WORKERS)
    d.db.sim_backend_latency = LATENCY
    total = CLIENTS + WRITERS
    conn_ids = _connect(d)
    plans = _plans()
    digests = [hashlib.sha256() for _ in range(total)]
    elapsed = [0.0] * total
    errors: list[Exception] = []
    gate = threading.Barrier(total)

    def client(i: int) -> None:
        try:
            gate.wait(timeout=60)
            started = time.perf_counter()
            for frame in plans[i]:
                body = frame[4:]
                replies: list[bytes] = []
                done = threading.Event()
                d.server.submit_frame(
                    conn_ids[i], body,
                    lambda r, replies=replies: (replies.append(r),
                                                True)[1],
                    done.set)
                if not done.wait(timeout=120):
                    raise TimeoutError(f"client {i} stalled")
                for reply in replies:
                    digests[i].update(reply)
            elapsed[i] = time.perf_counter() - started
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(total)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    stats = dict(d.db.mvcc_stats())
    d.server.shutdown()
    assert not errors, errors[:3]
    # the slowest reader bounds read completion; writers likewise
    read_rps = CLIENTS * REQUESTS / max(elapsed[:CLIENTS])
    write_rps = WRITERS * REQUESTS / max(elapsed[CLIENTS:])
    return read_rps, write_rps, [dg.hexdigest() for dg in digests], stats


# -- part 2: crash-boundary sweep over both backends --------------------------


def _mutations(n):
    muts = []
    for i in range(n):
        if i % 3 == 2:
            muts.append(("add_list",
                         [f"el{i}", "1", "1", "0", "1", "0",
                          str(900 + i), "NONE", "NONE", f"list {i}"]))
        else:
            muts.append(("add_user",
                         [f"euser{i}", str(7000 + i), "/bin/csh",
                          f"Last{i}", "First", "", "1", f"mid{i}",
                          "1990"]))
    return muts


def _apply_one(db, journal, clock, when, name, args):
    clock.set(when)
    ctx = QueryContext(db=db, clock=clock, caller="root", client="e14",
                      privileged=True, journal=journal)
    execute_query(ctx, name, args)


def _dump(db, directory):
    mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _fresh(backend, tmp_path, tag):
    if backend == "sqlite":
        return create_backend("sqlite", str(tmp_path / f"{tag}.sqlite"))
    return create_backend(backend)


CRASH_KINDS = ("record", "torn", "appended")


def _arm(faults, kind, boundary):
    if kind == "record":
        faults.crash_server("journal.record", at_call=boundary)
    elif kind == "torn":
        faults.tear_write("journal.write", at_call=boundary)
    else:
        faults.crash_server("journal.appended", at_call=boundary)


def _crash_sweep(backend: str, boundaries: int, tmp_path) -> int:
    """Crash at every WAL boundary 1..boundaries (kinds rotating),
    recover into a fresh backend, resume; each run must match the
    never-crashed oracle byte for byte.  Returns runs compared."""
    muts = _mutations(boundaries)
    oracle_db = _fresh(backend, tmp_path, "oracle")
    journal = Journal(path=tmp_path / "oracle-wal")
    clock = Clock()
    for i, (name, args) in enumerate(muts):
        _apply_one(oracle_db, journal, clock, BASE + i * 10, name, args)
    journal.close()
    oracle = _dump(oracle_db, tmp_path / "oracle-dump")

    for boundary in range(1, boundaries + 1):
        kind = CRASH_KINDS[boundary % len(CRASH_KINDS)]
        workdir = tmp_path / f"{backend}-{kind}-{boundary}"
        workdir.mkdir()
        wal_path = workdir / "wal"
        faults = FaultInjector()
        _arm(faults, kind, boundary)
        db = _fresh(backend, workdir, "run")
        journal = Journal(path=wal_path, faults=faults)
        checkpoint(db, journal, workdir / "snap")
        clock = Clock()
        crashed_at = None
        for i, (name, args) in enumerate(muts):
            try:
                _apply_one(db, journal, clock, BASE + i * 10, name, args)
            except ServerCrash:
                crashed_at = i
                break
        journal.close()
        if crashed_at is not None:
            db = _fresh(backend, workdir, "recovered")
            db = recover(workdir / "snap", wal_path=wal_path, db=db).db
            journal = Journal.load(wal_path)
            clock = Clock()
            for j in range(crashed_at, len(muts)):
                name, args = muts[j]
                try:
                    _apply_one(db, journal, clock, BASE + j * 10,
                               name, args)
                except MoiraError:
                    pass  # the WAL already made it durable
            journal.close()
        got = _dump(db, workdir / "dump")
        assert got == oracle, (
            f"{backend}: divergence after {kind} crash "
            f"at boundary {boundary}")
    return boundaries


def test_e14_mvcc_engine(tmp_path):
    mvcc_read, mvcc_write, mvcc_digests, stats = _run_concurrent()
    assert mvcc_digests == _serial_digests(), \
        "reply drift between the concurrent run and the serial oracle"

    sweeps = {}
    for backend in ("memory", "sqlite"):
        sweepdir = tmp_path / backend
        sweepdir.mkdir()
        sweeps[backend] = _crash_sweep(backend, CRASH_BOUNDARIES,
                                       sweepdir)

    write_frac = (WRITERS * REQUESTS /
                  ((CLIENTS + WRITERS) * REQUESTS))
    lines = [
        "E14: MVCC snapshot-isolation engine "
        f"({CLIENTS} readers + {WRITERS} writers x {REQUESTS} "
        f"requests, {write_frac:.0%} write mix, "
        f"backend latency {LATENCY * 1000:.1f} ms, "
        f"{'10k design point' if USERS == 0 else f'{USERS} users'})",
        f"{'engine':<10}{'read rps':>10}{'write rps':>11}",
        f"{'mvcc':<10}{mvcc_read:>10.0f}{mvcc_write:>11.0f}",
        "reply streams byte-identical to the serial oracle",
        f"crash sweep: {sweeps['memory']} boundaries x "
        f"{{memory, sqlite}}, all byte-identical through recover",
        f"mvcc: {stats.get('commits', 0)} commits, "
        f"{stats.get('snapshots_pinned', 0)} snapshots, "
        f"{stats.get('versions_reclaimed', 0)} versions reclaimed "
        f"({stats.get('gc_runs', 0)} GC runs)",
    ]
    section = {
        "readers": CLIENTS,
        "writers": WRITERS,
        "requests_per_client": REQUESTS,
        "write_fraction": round(write_frac, 3),
        "sim_backend_latency_s": LATENCY,
        "users": USERS if USERS else 10_000,
        "mvcc_read_rps": round(mvcc_read, 1),
        "mvcc_write_rps": round(mvcc_write, 1),
        "byte_identical_replies": True,
        "crash_sweep": {
            "boundaries": CRASH_BOUNDARIES,
            "kinds": list(CRASH_KINDS),
            "backends": sorted(sweeps),
            "byte_identical": True,
        },
        "mvcc_stats": {k: stats.get(k, 0) for k in
                       ("commits", "versions_created",
                        "snapshots_pinned", "gc_runs",
                        "versions_reclaimed")},
    }
    write_result("E14", lines)
    record_bench_to(BENCH_ENGINE_JSON, "e14_mvcc_engine", section)
