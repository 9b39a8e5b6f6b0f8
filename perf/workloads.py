"""The five workloads: fixture, warm-up, timed window, oracle.

Every workload drives the system only through public entry points
(``AthenaDeployment``, ``MoiraClient``, ``DirectClient``,
``TcpServerTransport``, ``recovery.recover``, ``pump_cdc``,
``run_hours``) with the defaults a deployment would choose: the only
``DeploymentConfig`` fields set are ``population``, ``wal_path`` and —
on ``propagate_cdc`` — ``cdc=True``.  Load is a closed loop: each
client sends its next request when the previous reply is complete.

This module never imports ``perf.trace``; a traced run passes a span
factory in as *scope*, the untraced run gets ``nullcontext``.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.client.lib import MoiraClient
from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.backup import mrbackup
from repro.db.journal import Journal
from repro.db.recovery import checkpoint, recover
from repro.protocol.transport import TcpServerTransport
from repro.workload import PopulationSpec

from perf import plans
from perf.plans import Facts, is_expected

__all__ = ["WORKLOADS", "Samples", "make_workload", "CLIENTS",
           "TAIL_PCT", "STALL_SECONDS"]

CLIENTS = 2                 # closed loop, nproc = 2
PASSWORD = "perf-pw"
STALL_SECONDS = 0.020       # a TCP op slower than this hit a kernel timer
ORACLE_WINDOW_OPS = 60      # window ops per client re-run by the oracle
SLICES = 10                 # the window is sampled at this many boundaries

# the percentile rule, fixed per latency class so a faster build does
# not change which percentile is compared
TAIL_PCT = {"read": 99.0, "write": 99.0, "session": 90.0,
            "freshness": 90.0}

SMOKE_SPEC = dict(users=500, unregistered_users=50, nfs_servers=4,
                  maillists=20, clusters=3, machines_per_cluster=2,
                  printers=5, network_services=12)

_FIELD_SEP, _ROW_SEP = "\x1f", b"\x1e"

class HostSpeedProbe:
    """How slowly is this host running Python right now?

    The host's speed drifts by tens of per cent over minutes (README,
    "Host speed"), so CPU costs are quoted at a reference speed: the
    speed at which this probe takes REF_S.  The probe is scattered
    lookups in a table larger than the core's own caches, because
    interpreter work is pointer chasing, and a loop that stays in
    registers tracked the workloads' slow-downs only half as well.  It
    builds no containers, so it never sets off the cyclic collector,
    and it is timed in *thread* CPU time, so waiting for the
    interpreter lock does not count.
    """

    ENTRIES = 100_000
    LOOKUPS = 10_000
    STRIDE = 7919           # prime: the walk touches the table all over
    REF_S = 0.007

    def __init__(self) -> None:
        self._table = {i: str(i) * 3 for i in range(self.ENTRIES)}

    def slowness(self) -> float:
        """Probe time over the reference: 1.25 = a quarter slower."""
        table, entries = self._table, self.ENTRIES
        start = time.thread_time()
        x = 0
        for i in range(0, self.LOOKUPS * self.STRIDE, self.STRIDE):
            x += len(table[i % entries]) + i % 7
        return (time.thread_time() - start) / self.REF_S


@dataclass
class Samples:
    """What one timed window produced."""
    elapsed: float = 0.0
    attempted: int = 0
    failed: int = 0
    rows: int = 0
    # per window slice: (seconds, operations completed, cpu seconds,
    # cpu seconds at the reference host speed)
    slices: list = field(default_factory=list)
    latency: dict = field(default_factory=dict)   # class -> [seconds]
    tcp_latency: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def _count_row(_argc, _argv, box) -> None:
    box[0] += 1


def _hash_row(_argc, argv, digest) -> None:
    digest.update(_FIELD_SEP.join(argv).encode())
    digest.update(_ROW_SEP)


class _ClientLog:
    """One client thread's record of its warm-up and window."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()      # warm-up reply stream
        self.warm_failed = 0
        self.codes = array("q")             # window, in plan order
        self.nrows = array("q")
        self.kinds = array("b")             # 0 read, 1 write
        self.seconds = array("d")
        self.extra: dict = {}               # class -> array("d")
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.acked: list = []               # writes acknowledged, in order
        self.error: Optional[BaseException] = None


class Workload:
    """Common fixture handling; subclasses fill in the phases."""

    name = ""
    tcp = False
    cdc = False
    clients = CLIENTS
    warmup_ops = 100            # per client, untimed
    primary_class = "read"      # the latency class behind lat_p90_us
    window_share = 1.0          # share of --seconds the window takes
    # latency classes that time the unit a traced request root wraps
    unit_classes: tuple = ("read", "write")

    def __init__(self, seed: int, smoke: bool, tmp: Path,
                 scope: Optional[Callable] = None):
        self.seed = seed
        self.smoke = smoke
        self.tmp = Path(tmp)
        self.scope = scope or (lambda _name: nullcontext())
        if smoke:
            self.warmup_ops = 20
        self.d: Optional[AthenaDeployment] = None
        self.transport: Optional[TcpServerTransport] = None
        self.facts: Optional[Facts] = None
        self.logs = [_ClientLog() for _ in range(self.clients)]
        # timed on its own, not part of setup_s: (seconds, cpu seconds)
        self.extra_setup = (0.0, 0.0)
        self.speed = HostSpeedProbe()
        self.setup_slowness = [self.speed.slowness()]   # see child.run
        self.named: dict = {}       # workload-specific one-shot timings
        self.oracle: dict = {}

    # -- fixture -------------------------------------------------------------

    def build(self) -> None:
        """World + transport, with deployment defaults."""
        spec = PopulationSpec(**SMOKE_SPEC) if self.smoke \
            else PopulationSpec()
        self.wal_path = self.tmp / "wal"
        knobs = {"cdc": True} if self.cdc else {}   # all else: defaults
        with self.scope("perf.build"):
            self.d = d = AthenaDeployment(DeploymentConfig(
                population=spec, wal_path=self.wal_path, **knobs))
        self.setup_slowness.append(self.speed.slowness())
        root = d.direct_client()
        self.facts = Facts(
            logins=d.handles.logins,
            machines=[row[0] for row in root.query("get_machine", "*")],
            nfs_machines=d.handles.nfs_machines,
            maillists=d.handles.maillist_names)
        if self.tcp:
            self.transport = TcpServerTransport(d.server).start()

    def plan(self, client: int):
        return plans.PLANS[self.name](self.facts, self.seed, client,
                                      self.clients)

    def plan_sha(self) -> str:
        return plans.plan_sha(self.name, self.facts, self.seed,
                              clients=self.clients)

    def admin_login(self, client: int) -> str:
        return self.facts.logins[-1 - client]

    def make_admins(self) -> None:
        for client in range(self.clients):
            login = self.admin_login(client)
            self.d.kdc.add_principal(login, PASSWORD)
            self.d.make_admin(login)

    def tcp_client(self, login: str, program: str = "perf"
                   ) -> MoiraClient:
        d = self.d
        client = MoiraClient(tcp_address=self.transport.address[:2],
                             kdc=d.kdc, clock=d.clock,
                             credentials=d.kdc.kinit(login, PASSWORD))
        return client.connect().auth(program)

    def add_list(self, name: str, *, public: bool, group: bool) -> None:
        self.d.direct_client().query(
            "add_list", name, "1", "1" if public else "0", "0", "1",
            "1" if group else "0", "-1", "USER", self.facts.logins[0],
            "perf harness list")

    def teardown(self) -> None:
        if self.transport is not None:
            self.transport.stop()
        if self.d is not None:
            if self.d.cdc is not None:
                self.d.cdc.close()
            self.d.server.shutdown()
            if self.d.journal is not None:
                self.d.journal.close()

    # -- phases --------------------------------------------------------------

    def setup(self) -> None:
        """Everything before the window, warm-up included."""
        raise NotImplementedError

    def window(self, seconds: float, before_window: Callable[[], None]
               ) -> Samples:
        """The timed window.  *before_window* runs once every client
        is warm and parked at the gate (counter snapshots go there)."""
        raise NotImplementedError

    def finish(self) -> bool:
        """Post-window phases and the workload's oracle."""
        raise NotImplementedError


class _ThreadedWorkload(Workload):
    """Closed loop: one thread per client, each sending its next
    request when the previous reply is complete.  The main thread
    samples progress at slice boundaries while the window runs."""

    _gate: Optional[threading.Barrier] = None

    def start_clients(self) -> None:
        self._gate = threading.Barrier(self.clients + 1)
        self._window_seconds = 0.0
        self._threads = [
            threading.Thread(target=self._client_main, args=(i,),
                             name=f"perf-client-{i}", daemon=True)
            for i in range(self.clients)]
        for thread in self._threads:
            thread.start()
        self.pass_gate()        # every client finished its warm-up

    def pass_gate(self) -> None:
        """Main-thread side of the client gate; a client that died
        aborts the barrier, and its error is re-raised here."""
        try:
            self._gate.wait()
        except threading.BrokenBarrierError:
            for log in self.logs:
                if log.error is not None:
                    raise log.error
            raise

    def teardown(self) -> None:
        if self._gate is not None:
            self._gate.abort()      # release clients parked at the gate
            for thread in self._threads:
                thread.join(timeout=10)
        super().teardown()

    def _client_main(self, index: int) -> None:
        gate = self._gate
        try:
            plan = self.plan(index)
            self.warm(index, plan)
            gate.wait()         # warm; main thread snapshots counters
            gate.wait()         # go
            self.timed(index, plan, self._window_seconds)
        except BaseException as exc:    # re-raised by the main thread
            self.logs[index].error = exc
            gate.abort()

    def warm(self, index: int, plan) -> None:
        raise NotImplementedError

    def timed(self, index: int, plan, seconds: float) -> None:
        raise NotImplementedError

    def progress(self) -> int:
        """Operations completed so far in the window, all clients."""
        raise NotImplementedError

    def run_clients(self, seconds: float, before_window) -> Samples:
        self._window_seconds = seconds
        before_window()
        clock, cpu_clock = time.perf_counter, time.process_time
        out = Samples()
        self.pass_gate()
        start = at = clock()
        cpu = cpu_clock()
        done = 0
        slow = self.speed.slowness()
        for k in range(1, SLICES + 1):
            time.sleep(max(0.0, start + k * seconds / SLICES - clock()))
            now, cpu_now, done_now = clock(), cpu_clock(), self.progress()
            slow_now = self.speed.slowness()
            # the host's speed over the slice: the probes at its two ends
            out.slices.append((now - at, done_now - done, cpu_now - cpu,
                               (cpu_now - cpu) / ((slow + slow_now) / 2)))
            at, cpu, done, slow = now, cpu_now, done_now, slow_now
        for thread in self._threads:
            thread.join()
        for log in self.logs:
            if log.error is not None:
                raise log.error
            out.elapsed = max(out.elapsed, log.elapsed)
            out.failed += log.failed
        return out

    def warm_failures(self) -> int:
        return sum(log.warm_failed for log in self.logs)


class _RequestWorkload(_ThreadedWorkload):
    """Two clients each replaying a plan of single queries."""

    def connect(self, client: int) -> MoiraClient:
        raise NotImplementedError

    def setup(self) -> None:
        self.build()
        self.make_admins()
        self.prepare()
        self._conns = [self.connect(i) for i in range(self.clients)]
        self.start_clients()

    def prepare(self) -> None:
        """Workload-specific set-up between build and connect."""

    def warm(self, index, plan) -> None:
        log, client = self.logs[index], self._conns[index]
        digest = log.digest
        for op in itertools.islice(plan, self.warmup_ops):
            code = client.mr_query(op.query, op.args, _hash_row, digest)
            digest.update(b"%d\x1d" % code)
            if not is_expected(op, code):
                log.warm_failed += 1
            elif op.kind == "write":
                log.acked.append(op)

    def timed(self, index, plan, seconds) -> None:
        log = self.logs[index]
        clock = time.perf_counter
        box = [0]
        codes, nrows = log.codes, log.nrows
        kinds, lat, acked = log.kinds, log.seconds, log.acked
        query = self._conns[index].mr_query
        start = clock()
        end = start + seconds
        for op in plan:
            t0 = clock()
            if t0 >= end:
                break
            box[0] = 0
            code = query(op.query, op.args, _count_row, box)
            lat.append(clock() - t0)
            codes.append(code)
            nrows.append(box[0])
            if op.kind == "write":
                kinds.append(1)
                if code == op.expect:
                    acked.append(op)
            else:
                kinds.append(0)
            if code != op.expect:
                log.failed += 1
        log.elapsed = clock() - start

    def progress(self) -> int:
        return sum(len(log.codes) for log in self.logs)

    def window(self, seconds, before_window) -> Samples:
        out = self.run_clients(seconds, before_window)
        reads, writes = [], []
        for log in self.logs:
            out.attempted += len(log.codes)
            out.rows += sum(log.nrows)
            for kind, value in zip(log.kinds, log.seconds):
                (writes if kind else reads).append(value)
        out.latency = {"read": reads, "write": writes}
        if self.tcp:
            out.tcp_latency = reads + writes
        return out

    def close_clients(self) -> None:
        for client in self._conns:
            client.close()

    # -- the read-only oracle -------------------------------------------------

    def replay_direct(self) -> bool:
        """Re-run every client's plan through ``DirectClient`` and
        compare: the warm-up reply stream by SHA-256, then the first
        window operations by (reply code, tuple count)."""
        direct = self.d.direct_client()
        ok = True
        checked = 0
        for index, log in enumerate(self.logs):
            plan = self.plan(index)
            digest = hashlib.sha256()
            for op in itertools.islice(plan, self.warmup_ops):
                code = direct.mr_query(op.query, op.args, _hash_row,
                                       digest)
                digest.update(b"%d\x1d" % code)
            if digest.digest() != log.digest.digest():
                ok = False
            span = min(len(log.codes), ORACLE_WINDOW_OPS)
            box = [0]
            for n, op in enumerate(itertools.islice(plan, span)):
                box[0] = 0
                code = direct.mr_query(op.query, op.args, _count_row, box)
                if (code, box[0]) != (log.codes[n], log.nrows[n]):
                    ok = False
            checked += self.warmup_ops + span
        self.oracle.update(reply_stream_sha_ok=ok,
                           replies_checked=checked)
        return ok


class PointReadTcp(_RequestWorkload):
    name = "point_read_tcp"
    tcp = True

    def connect(self, client):
        return self.tcp_client(self.admin_login(client))

    def finish(self) -> bool:
        self.close_clients()
        return self.replay_direct() and not self.warm_failures()


class ScanReadInproc(_RequestWorkload):
    name = "scan_read_inproc"
    warmup_ops = 20             # ~10,000 row visits: as warm as 100 reads

    def connect(self, client):
        # kinit + inline MoiraClient(dispatcher=server) + auth; the
        # principal already exists, so client_for just logs in
        return self.d.client_for(self.admin_login(client), PASSWORD,
                                 "perf")

    def window(self, seconds, before_window) -> Samples:
        out = super().window(seconds, before_window)
        self.named["rows_per_s"] = out.rows / out.elapsed
        return out

    def finish(self) -> bool:
        self.close_clients()
        return self.replay_direct() and not self.warm_failures()


class WriteDurableTcp(_RequestWorkload):
    name = "write_durable_tcp"
    tcp = True
    primary_class = "write"
    # half the window writes, so that the restart phase (the other
    # thing this workload measures) fits in the same run budget
    window_share = 0.5

    def prepare(self) -> None:
        for client in range(self.clients):
            self.add_list(plans.private_list(client), public=False,
                          group=False)
        self.ckpt = self.tmp / "ckpt"
        with self.scope("perf.checkpoint"):
            checkpoint(self.d.db, self.d.journal, self.ckpt)

    def connect(self, client):
        return self.tcp_client(self.admin_login(client))

    def finish(self) -> bool:
        """The restart phase, which is also the durability oracle."""
        self.close_clients()
        d = self.d
        d.journal.sync()
        wal_ok, wal_entries = self._wal_matches_acks()
        start = time.perf_counter()
        with self.scope("perf.restart"):
            result = recover(self.ckpt, wal_path=self.wal_path)
        self.named["recover_s"] = time.perf_counter() - start
        live, recovered = self.tmp / "live", self.tmp / "recovered"
        mrbackup(d.db, live)
        mrbackup(result.db, recovered)
        same = self._same_dump(live, recovered)
        self.oracle.update(
            wal_has_every_ack_once_in_order=wal_ok,
            wal_entries_checked=wal_entries,
            backup_identical_after_recover=same,
            replayed=result.replayed, rows_restored=result.rows_restored,
            replay_conflicts=result.skipped_conflicts)
        return (wal_ok and same and result.skipped_conflicts == 0
                and not self.warm_failures())

    def _wal_matches_acks(self) -> tuple:
        journal = Journal.load(self.wal_path)
        try:
            by_principal: dict = {}
            for entry in journal.entries:
                by_principal.setdefault(entry.who, []).append(
                    (entry.query, tuple(entry.args)))
        finally:
            journal.close()
        ok, total = True, 0
        for index, log in enumerate(self.logs):
            acked = [(op.query, tuple(op.args)) for op in log.acked]
            total += len(acked)
            if by_principal.get(self.admin_login(index), []) != acked:
                ok = False
        return ok, total

    @staticmethod
    def _same_dump(left: Path, right: Path) -> bool:
        names = sorted(p.name for p in left.iterdir())
        if names != sorted(p.name for p in right.iterdir()):
            return False
        return all((left / name).read_bytes() == (right / name).read_bytes()
                   for name in names)


class SelfserviceSessionsTcp(_ThreadedWorkload):
    name = "selfservice_sessions_tcp"
    tcp = True
    unit_classes = ("session",)

    def setup(self) -> None:
        self.build()
        d = self.d
        for login in self.facts.logins[:plans.SESSION_PRINCIPALS]:
            d.kdc.add_principal(login, PASSWORD)
        for client in range(self.clients):
            self.add_list(plans.public_list(client), public=True,
                          group=False)
        for log in self.logs:
            for name in ("session", "read", "write"):
                log.extra[name] = array("d")
        self.start_clients()

    def warm(self, index, plan) -> None:
        sessions = max(1, self.warmup_ops // (plans.SESSION_READS + 2))
        for session in itertools.islice(plan, sessions):
            self._session(session, self.logs[index], timed=False)

    def timed(self, index, plan, seconds) -> None:
        log = self.logs[index]
        clock = time.perf_counter
        start = clock()
        end = start + seconds
        for session in plan:
            if clock() >= end:
                break
            self._session(session, log, timed=True)
        log.elapsed = clock() - start

    def _session(self, session, log, *, timed: bool) -> None:
        clock = time.perf_counter
        d = self.d
        box = [0]
        failed = 0
        with self.scope("perf.session"):
            t_start = clock()
            creds = d.kdc.kinit(session.login, PASSWORD)
            client = MoiraClient(tcp_address=self.transport.address[:2],
                                 kdc=d.kdc, credentials=creds,
                                 clock=d.clock)
            ready = client.mr_connect() == 0 and \
                client.mr_auth("chsh") == 0
            for op in session.ops:
                t0 = clock()
                code = client.mr_query(op.query, op.args, _count_row,
                                       box) if ready else -1
                if timed:
                    log.extra[op.kind].append(clock() - t0)
                if code != op.expect:
                    failed += 1
            client.mr_disconnect()
            if timed:
                log.extra["session"].append(clock() - t_start)
        if timed:
            log.failed += failed
        else:
            log.warm_failed += failed

    def progress(self) -> int:
        return sum(len(log.extra["read"]) + len(log.extra["write"])
                   for log in self.logs)

    def window(self, seconds, before_window) -> Samples:
        out = self.run_clients(seconds, before_window)
        out.attempted = self.progress()
        out.latency = {"read": [], "write": [], "session": []}
        for log in self.logs:
            for name, values in log.extra.items():
                out.latency[name].extend(values)
        out.tcp_latency = out.latency["read"] + out.latency["write"]
        return out

    def finish(self) -> bool:
        return not self.warm_failures()


class PropagateCdc(Workload):
    name = "propagate_cdc"
    cdc = True
    clients = 1
    primary_class = "freshness"
    unit_classes = ("round",)

    def setup(self) -> None:
        self.build()
        d = self.d
        self.add_list(plans.CDC_LIST, public=False, group=True)
        info = d.direct_client().query("get_list_info", plans.CDC_LIST)
        self._gid = info[0][6]
        handles = d.handles
        self._hesiod = d.hosts[handles.hesiod_machine.upper()]
        self._mailhub = d.hosts[handles.mailhub_machine.upper()]
        self._nfs = [d.hosts[name.upper()]
                     for name in handles.nfs_machines]
        start, cpu0 = time.perf_counter(), time.process_time()
        with self.scope("perf.full_cycle"):
            d.run_hours(25)     # cold cron cycle: every service, every host
        self.extra_setup = (time.perf_counter() - start,
                            time.process_time() - cpu0)
        self.named["full_cycle_s"] = self.extra_setup[0]
        self._direct = d.direct_client()
        self._plan = self.plan(0)
        log = self.logs[0]
        log.extra["freshness"] = array("d")
        log.extra["round"] = array("d")
        for rnd in itertools.islice(self._plan, 2 if self.smoke else 4):
            if not self._round(rnd, log, timed=False):
                log.warm_failed += 1

    def _round(self, rnd, log, *, timed: bool) -> bool:
        clock = time.perf_counter
        d = self.d
        acked_at = None
        ok = True
        with self.scope("perf.round"):
            began_at = clock()
            for op in rnd.ops:
                code = self._direct.mr_query(op.query, op.args)
                if acked_at is None:
                    acked_at = clock()
                ok = ok and code == op.expect
            summary = d.pump_cdc()
            installed_at = clock()
        # the marker must be on every bound host before the sample counts
        ok = ok and not summary["pending"] and all(
            o["status"] in ("converged", "no_change", "skipped")
            and not o["soft_failures"] and not o["hard_failures"]
            for o in summary["outcomes"]) and self._installed(rnd)
        if timed:
            log.attempted += len(rnd.ops)
            log.extra["round"].append(installed_at - began_at)
            if ok:
                log.extra["freshness"].append(installed_at - acked_at)
            else:
                log.failed += len(rnd.ops)
        return ok

    def _installed(self, rnd) -> bool:
        if rnd.check == "none":
            return True     # no generated file names a bare machine
        if rnd.check == "shell":
            data = self._hesiod.fs.read("/etc/hesiod/passwd.db")
            return all(m.encode() in data for m in rnd.markers)
        if rnd.check == "pobox":
            data = self._mailhub.fs.read("/usr/lib/aliases")
            return all(m.encode() in data for m in rnd.markers)
        if rnd.check == "member":
            want = b":" + self._gid.encode() + b":"
            for login in rnd.markers:
                key = b"\n" + login.encode() + b":"
                for host in self._nfs:
                    data = b"\n" + host.fs.read("/etc/nfs/credentials")
                    at = data.find(key)
                    if at < 0:
                        return False
                    line = data[at + 1:data.find(b"\n", at + 1)]
                    if want not in line + b":":     # whole-field match
                        return False
            return True
        raise ValueError(f"unknown marker rule {rnd.check!r}")

    def window(self, seconds, before_window) -> Samples:
        before_window()
        log = self.logs[0]
        clock, cpu_clock = time.perf_counter, time.process_time
        by_kind: dict = {}      # kind -> [(seconds, cpu, cpu at ref speed)]
        start = clock()
        end = start + seconds
        while clock() < end:
            slow = self.speed.slowness()    # between rounds, untimed
            rnd = next(self._plan)
            cpu0 = cpu_clock()
            self._round(rnd, log, timed=True)
            used = cpu_clock() - cpu0
            by_kind.setdefault(rnd.kind, []).append(
                (log.extra["round"][-1], used, used / slow))
        out = Samples(elapsed=clock() - start)
        out.attempted = log.attempted
        out.failed = log.failed
        out.slices = [self._one_period(by_kind)]
        out.latency = {name: list(values)
                       for name, values in log.extra.items()}
        return out

    @staticmethod
    def _one_period(by_kind: dict) -> tuple:
        """The window's only slice (a round can outlast a tenth of the
        window): what one period of the plan would have cost, each kind
        of round at the mean of its rounds in the window.  So neither a
        20-mutation burst landing just inside the window nor a slow
        host fitting fewer rounds in changes the mix that is reported."""
        mix = plans.ROUND_MIX
        if set(by_kind) != set(mix):    # a window shorter than 10 rounds
            mix = {kind: len(rounds) for kind, rounds in by_kind.items()}
        mutations = sum(
            count * (plans.BURST_SIZE if kind == "burst" else 1)
            for kind, count in mix.items())
        seconds, cpu, cpu_ref = (
            sum(mix[kind] * sum(r[i] for r in rounds) / len(rounds)
                for kind, rounds in by_kind.items())
            for i in range(3))
        return seconds, mutations, cpu, cpu_ref

    def finish(self) -> bool:
        d = self.d
        d.clock.advance(25 * 3600)      # every service due
        report = d.dcm.run_once()
        quiet = report.ran and report.propagations_attempted == 0
        self.oracle.update(
            markers_installed_before_sampling=True,
            final_cron_cycle_propagations=report.propagations_attempted)
        return quiet and not self.logs[0].warm_failed


WORKLOADS = {cls.name: cls for cls in (
    PointReadTcp, ScanReadInproc, WriteDurableTcp,
    SelfserviceSessionsTcp, PropagateCdc)}


def make_workload(name: str, seed: int, smoke: bool, tmp: Path,
                  scope: Optional[Callable] = None) -> Workload:
    return WORKLOADS[name](seed, smoke, tmp, scope)
