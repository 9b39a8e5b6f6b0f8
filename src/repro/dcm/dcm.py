"""The Data Control Manager proper — the §5.7.1 scan algorithm.

On each invocation (cron or the Trigger_DCM request) the DCM:

1. exits quietly if the disable file ``/etc/nodcm`` exists on the Moira
   host, or (logging it) if the ``dcm_enable`` database value is zero;
2. scans the servers relation for services that are enabled, have no
   hard error, a non-zero interval, and a registered generator;
3. for each such service due for an update, takes an exclusive service
   lock (here the paper's InProgress: never journaled), and runs the
   generator — recording success
   (dfgen+dfcheck), MR_NO_CHANGE (dfcheck only), soft errors (errmsg),
   or hard errors (harderror + errmsg + a zephyrgram to MOIRA/DCM);
4. for each such service — "regardless of the result of attempting to
   build data files" — scans its serverhosts: enabled, no host error,
   not successfully updated since dfgen (or override), pushing files
   with the §5.9 update protocol under per-host exclusive locks;
5. on replicated services, a hard host failure also poisons the
   service record "so that no more updates will be attempted".

On top of it, the paper's future work, "update only the information
that changed": the no-change check compares data-version vectors;
generators patch their previous result from the changed-row logs; one
:class:`GenContext` per cycle derives each cross-relation map once; a
host holding the previous generation receives only the files whose
bytes changed, and a patched one as the splices the generator made
(a :class:`FileDelta` member).  Cron (:meth:`DCM.run_once`) and the
CDC extractor (:meth:`DCM.converge_service`) differ only in *when* a
service is looked at: both call the same classify step (steps 3 and
the per-host plan, ``_classify``) and the same deliver step (4 and 5,
``_deliver``), whose host-push loop is the one serverhosts scan, on
the calling thread.  The DCM talks to the database through the direct
glue library (:class:`DirectClient`), authenticating as root.  A
service round journals outcomes, not progress — its flags, and one
``set_server_host_internal`` for every host it marked or pushed — and
is fsync'd with the rest: one :meth:`DCM.sync` ends each cron cycle and
each extraction round, a group commit with the invocation as window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.client.lib import DirectClient
from repro.db.engine import Database
from repro.db.journal import Journal
from repro.db.locks import LockHeld, LockManager, LockMode
from repro.dcm.generators.base import (
    GenContext,
    GeneratorResult,
    get_generator,
)
from repro.dcm.update import (
    UpdateOutcome,
    UpdateResult,
    build_payload,
    default_script,
    push_update,
)
from repro.dcm.retry import PropagationGovernor, RetryPolicy
from repro.errors import MR_SERVICE, MoiraError, error_message
from repro.hosts.host import SimulatedHost
from repro.hosts.update_daemon import FileDelta, UpdateDaemon, checksum
from repro.sim.clock import Clock
from repro.sim.faults import FaultInjector
from repro.sim.network import Network

__all__ = ["DCM", "DCMReport", "ServiceBinding"]


@dataclass
class ServiceBinding:
    """Where a service's hosts live and how installs finish."""

    host: SimulatedHost
    daemon: UpdateDaemon
    # name of the registered UpdateDaemon command run after install
    # (e.g. "restart_hesiod"); empty = no post-command
    post_command: str = ""


@dataclass
class DCMReport:
    """What one DCM invocation did (the paper's log, structured)."""

    ran: bool = False
    disabled_reason: str = ""
    services_scanned: int = 0
    services_due: int = 0
    generations: int = 0
    generations_incremental: int = 0
    generations_no_change: int = 0
    generation_errors: list[tuple[str, str]] = field(default_factory=list)
    generated_services: list[str] = field(default_factory=list)
    no_change_services: list[str] = field(default_factory=list)
    propagations_attempted: int = 0
    propagations_succeeded: int = 0
    soft_failures: int = 0
    hard_failures: int = 0
    bytes_propagated: int = 0
    files_generated: int = 0
    skipped_locked: int = 0
    # resilience counters (backoff / breaker / budget admission control)
    retries_deferred: int = 0      # backoff window not yet elapsed
    breaker_skips: int = 0         # breaker OPEN, no attempt made
    breaker_probes: int = 0        # half-open probes admitted
    budget_deferred: int = 0       # per-cycle retry budget exhausted
    breaker_open_hosts: list[tuple[str, str]] = field(
        default_factory=list)
    # (what, origin journal seq) per hard failure — the commit a stuck
    # consumer is attributable to (0 = no journal / unknown origin)
    hard_failure_origins: list[tuple[str, int]] = field(
        default_factory=list)
    log: list[str] = field(default_factory=list)


@dataclass
class _Generation:
    """What the guarded generate step did: the files, or the hard error."""

    result: Optional[GeneratorResult] = None
    incremental: bool = False
    error: str = ""
    origin: int = 0


@dataclass
class _Plan:
    """What the classify step decided for one service: ``status`` is
    ``converged`` (something to push or mark), ``no_change`` (nothing
    moved anywhere), ``locked`` or ``harderror``; ``changed`` is the
    no-change check's answer; ``pushes`` are ``(host_row, machine,
    files)`` in serverhosts order, a file whole or a delta member."""

    status: str = "converged"
    changed: bool = False
    generation: Optional[_Generation] = None
    pushes: list[tuple[dict, str, dict[str, bytes | FileDelta]]] = field(
        default_factory=list)
    delta_hosts: set[str] = field(default_factory=set)
    marks: list[tuple[dict, str]] = field(default_factory=list)
    log: list[str] = field(default_factory=list)


@dataclass
class _PushSummary:
    """One delivery folded in host order — what a caller reports."""

    attempted: int = 0
    succeeded: list[str] = field(default_factory=list)   # machine names
    locked: list[str] = field(default_factory=list)      # machine names
    deferred: list[str] = field(default_factory=list)    # machine names
    service_locked: bool = False
    soft_failures: int = 0
    bytes_sent: int = 0
    # (service/machine, origin journal seq) per hard failure
    hard_origins: list[tuple[str, int]] = field(default_factory=list)
    # (host_row, sshi group) per host marked or pushed; _deliver writes
    outcomes: list[tuple[dict, tuple[str, ...]]] = field(
        default_factory=list)
    log: list[str] = field(default_factory=list)


class DCM:
    """The Data Control Manager process."""
    def __init__(
        self,
        db: Database,
        clock: Clock,
        *,
        network: Optional[Network] = None,
        moira_host: Optional[SimulatedHost] = None,
        journal: Optional[Journal] = None,
        lock_manager: Optional[LockManager] = None,
        zephyr_notify: Optional[Callable[[str, str, str], None]] = None,
        mail_notify: Optional[Callable[[str, str], None]] = None,
        faults: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.db = db
        self.clock = clock
        self.network = network or Network()
        self.moira_host = moira_host
        self.journal = journal
        self.client = DirectClient(db, clock, journal=journal,
                                   caller="root", client="dcm")
        self.locks = lock_manager or LockManager()
        self.zephyr_notify = zephyr_notify
        self.mail_notify = mail_notify
        # E1 ablation and the pipeline's reference (set on a built DCM):
        # every due service built in full and pushed whole — no
        # MR_NO_CHANGE, no patching, no deltas
        self.always_regenerate = False
        # fault-injection harness (tests/benchmarks); begin_cycle applies
        # scheduled network weather at the top of each invocation
        self.faults = faults
        # backoff + circuit breakers + retry budget for propagation
        self.governor = PropagationGovernor(retry_policy)
        # (service, mach_id) -> binding: a renamed machine keeps its host
        self._bindings: dict[tuple[str, int], ServiceBinding] = {}
        self._generated: dict[str, GeneratorResult] = {}
        # service -> data-version vector of its inputs at generation
        # time
        self._gen_versions: dict[str, dict[str, int]] = {}
        # services whose files were rebuilt on changed_since's word alone
        self._unproven: set[str] = set()
        # service -> journal watermark at generation time (hard-error
        # origin attribution; 0 = no journal)
        self._gen_seq: dict[str, int] = {}
        self.runs = 0
        # cumulative counters across every invocation of either trigger,
        # bumped where the work happens (classify / generate / push merge)
        self.total_generations = 0
        self.total_no_change = 0
        self.total_propagations = 0
        self.total_bytes = 0

    # -- deployment wiring ----------------------------------------------------

    def bind_host(self, service: str, machine: str | int,
                  binding: ServiceBinding) -> None:
        """Associate a service's machine — its name, resolved to its
        ``mach_id`` now, or the ``mach_id`` — with a simulated host."""
        if isinstance(machine, str):
            rows = self.db.table("machine").select({"name": machine.upper()})
            if not rows:
                raise ValueError(f"no machine {machine!r}")
            machine = rows[0]["mach_id"]
        self._bindings[(service.upper(), machine)] = binding

    def has_generation(self, service: str) -> bool:
        """Does this process hold a generation of *service*?"""
        return service.upper() in self._generated

    def binding_for(self, service: str,
                    mach_id: int) -> Optional[ServiceBinding]:
        """The binding for a service/machine pair, or None."""
        return self._bindings.get((service.upper(), mach_id))

    def _view(self, now: int) -> GenContext:
        """A fresh extraction snapshot over the database."""
        return GenContext(self.db, now)

    # -- trigger 1: the cron invocation ----------------------------------------

    def run_once(self) -> DCMReport:
        """One §5.7.1 invocation; returns the structured report."""
        report = DCMReport()
        now = self.clock.now()
        # 1. the disable file
        if self.moira_host is not None and \
                self.moira_host.fs.exists("/etc/nodcm"):
            report.disabled_reason = "/etc/nodcm exists"
            return report
        # 2. the dcm_enable value ("if this value is zero, it will exit,
        #    logging this action")
        if not self.db.get_value("dcm_enable"):
            report.disabled_reason = "dcm_enable is 0"
            report.log.append("dcm: updates disabled in database")
            return report
        report.ran = True
        self.runs += 1
        if self.faults is not None:
            self.faults.begin_cycle(self.network)
        self.governor.begin_cycle()

        # one extraction snapshot for the whole cycle; its version
        # vector is read before any data is, so a concurrent change
        # mid-cycle is re-detected next cycle
        ctx = self._view(now)
        services = self._eligible_services(report)
        plans: dict[str, _Plan] = {}
        for service in services:
            name = service["name"]
            if not self._due(service, now):
                continue
            report.services_due += 1
            plan = plans[name] = self._classify(service, now, ctx)
            report.log.extend(plan.log)
            gen = plan.generation
            if plan.status == "locked":
                report.skipped_locked += 1
            elif plan.status == "harderror":
                report.generation_errors.append((name, gen.error))
                report.hard_failure_origins.append((name, gen.origin))
            elif plan.changed:
                report.generations += 1
                report.generations_incremental += gen.incremental
                report.generated_services.append(name)
                report.files_generated += gen.result.file_count()
            else:
                report.generations_no_change += 1
                report.no_change_services.append(name)
        for service in services:
            if service["harderror"]:
                continue    # this cycle's generation failed
            plan = plans.get(service["name"])
            summary = self._deliver(
                service, plan if plan and plan.status != "locked" else None,
                now)
            report.skipped_locked += (len(summary.locked)
                                      + summary.service_locked)
            report.propagations_attempted += summary.attempted
            report.propagations_succeeded += len(summary.succeeded)
            report.bytes_propagated += summary.bytes_sent
            report.soft_failures += summary.soft_failures
            report.hard_failures += len(summary.hard_origins)
            report.hard_failure_origins.extend(summary.hard_origins)
            report.log.extend(summary.log)
        # the cycle's one fsync, before cron reports it done
        self.sync()
        report.retries_deferred = self.governor.cycle_deferred
        report.breaker_skips = self.governor.cycle_breaker_skips
        report.breaker_probes = self.governor.cycle_probes
        report.budget_deferred = self.governor.cycle_budget_deferred
        report.breaker_open_hosts = self.governor.open_hosts()
        return report

    def _eligible_services(self, report: DCMReport) -> list[dict]:
        rows = self.db.table("servers").rows
        report.services_scanned = len(rows)
        return [dict(row) for row in rows
                if row["enable"] and not row["harderror"]
                and row["update_int"] > 0
                and get_generator(row["name"]) is not None]

    def _due(self, service: dict, now: int) -> bool:
        """Cron classifies a service when its interval has elapsed, when
        an operator set a host override, or when a host is owed files
        this process does not hold (a restarted DCM)."""
        name = service["name"]
        return (now >= service["dfcheck"] + service["update_int"] * 60
                or any(row["override"] for row in self.db.table(
                    "serverhosts").select({"service": name}))
                or (name not in self._generated and bool(service["dfgen"])
                    and bool(self._stale_hosts(service))))

    # -- trigger 2: the CDC extractor ------------------------------------------

    def converge_service(self, name: str, now: int, *,
                         origin_seq: int = 0) -> dict:
        """Classify and deliver one service *now* — the CDC extractor's
        entry point, with no interval check: a committed write dirtied
        the service.

        Returns a counter dict; ``status`` is one of ``converged``,
        ``no_change``, ``skipped``, ``locked``, or ``harderror``, and
        ``retry`` asks the extractor to re-queue the service until
        ``retry_at``, the governor's earliest admission time over the
        hosts still owed a push; the re-entry finds the inputs
        unchanged and pushes the held generation to just those hosts.
        Its bookkeeping writes are not fsync'd here: the caller's
        :meth:`sync` makes them durable — the extractor's, once per
        round, before its cursor moves."""
        out = {"service": name, "status": "converged", "reason": "",
               "generated": False, "incremental": False,
               "pushes": 0, "delta_pushes": 0, "full_pushes": 0,
               "marked_converged": 0, "soft_failures": 0,
               "hard_failures": 0, "deferred": 0, "bytes": 0,
               "files_changed": 0, "origin_seq": origin_seq,
               "retry": False, "retry_at": now, "log": []}
        rows = self.db.table("servers").select({"name": name})
        service = dict(rows[0]) if rows else None
        reason = ("unknown service" if service is None else
                  "no generator" if get_generator(name) is None else
                  "disabled" if not service["enable"] else
                  "harderror" if service["harderror"] else
                  "dcm_enable is 0" if not self.db.get_value("dcm_enable")
                  else "")
        if reason:
            out["status"], out["reason"] = "skipped", reason
            return out
        plan = self._classify(service, now, self._view(now), origin_seq)
        out["log"].extend(plan.log)
        if plan.status == "locked":
            out["status"], out["retry"] = "locked", True
            return out
        gen = plan.generation
        if plan.status == "harderror":
            out["status"], out["reason"] = "harderror", gen.error
            return out
        if gen is not None:
            out["generated"], out["incremental"] = True, gen.incremental
        out["marked_converged"] = len(plan.marks)
        out["files_changed"] = len({path for _, _, files in plan.pushes
                                    for path in files})
        if plan.status == "no_change":
            out["status"] = "no_change"
            out["reason"] = ("content unchanged" if plan.changed
                             else "inputs unchanged")
            return out

        summary = self._deliver(service, plan, now)
        out["pushes"] = len(summary.succeeded)
        out["delta_pushes"] = len(plan.delta_hosts.intersection(
            summary.succeeded))
        out["full_pushes"] = out["pushes"] - out["delta_pushes"]
        out["bytes"] = summary.bytes_sent
        out["soft_failures"] = summary.soft_failures
        out["hard_failures"] = len(summary.hard_origins)
        out["deferred"] = len(summary.deferred)
        out["log"].extend(summary.log)
        held = summary.locked or summary.service_locked
        out["retry"] = bool(summary.deferred or summary.soft_failures
                            or held)
        if summary.service_locked:
            out["status"] = "locked"
        elif out["retry"] and not held:
            out["retry_at"] = min(
                (self.governor.next_admission_at(name, machine_name)
                 for _, machine_name in self._stale_hosts(service)),
                default=now)
        if service["harderror"]:
            out["status"] = "harderror"
            out["reason"] = service["errmsg"]
        return out

    # -- step 1: classify (exclusive service lock) -------------------------------

    def _classify(self, service: dict, now: int, ctx: GenContext,
                  origin_seq: Optional[int] = None) -> _Plan:
        """Under the EXCLUSIVE service lock: the no-change check (the
        recorded version vector against *ctx*'s, over the columns the
        generator reads; a process holding no vector counts a CDC call
        as changed and otherwise falls back to the paper's
        ``changed_since(dfgen)``), the guarded generate step, and the
        per-host plan (:meth:`_plan`).

        Unchanged inputs mean the database is the ``dfgen`` generation,
        so files this process does not hold are rebuilt as that base;
        one only ``changed_since`` vouched for is pushed whole at the
        next change.  ``dfgen`` moves, and hosts with an empty delta are
        marked converged, only when the bytes moved: a content-identical
        regeneration moves neither ``dfgen`` nor any host.
        *origin_seq* is the dirtying write's seq from the CDC extractor
        (None = cron: a hard error is attributed to the journal
        watermark now)."""
        name = service["name"]
        generator = get_generator(name)
        try:
            with self.locks.held(f"service:{name}", LockMode.EXCLUSIVE):
                vector = generator.vector_for(ctx.versions)
                held = self._generated.get(name)
                recorded = self._gen_versions.get(name)
                changes = (None if recorded is None else self._changes(
                    generator, vector, recorded, ctx.db))
                changed = (
                    self.always_regenerate or not service["dfgen"]
                    or (bool(changes) if changes is not None else
                        origin_seq is not None or
                        generator.changed_since(ctx.db, service["dfgen"])))
                gen = None
                if changed or held is None:
                    hosts = self.db.table("serverhosts").select(
                        {"service": name})
                    gen = self._generate(service, generator,
                                         ctx.for_service(hosts), vector,
                                         origin_seq, changes)
                    if gen.error:
                        return _Plan(status="harderror", changed=changed,
                                     generation=gen)
                    result = gen.result
                else:
                    result = held
                    # the vector moves on past columns no output reads
                    self._gen_versions[name] = vector
                if changed:
                    previous = (None if self.always_regenerate
                                or name in self._unproven else held)
                    how = ("patched" if gen.incremental else "generated")
                    log = f"{how} {result.file_count()} files"
                else:
                    previous = result
                    if changes is None and gen is not None:
                        # whole seconds: a write in dfgen's own second
                        # may be in these files and on no host
                        self._unproven.add(name)
                    self.total_no_change += 1
                    log = "no change"
                plan = self._plan(service, result, previous)
                plan.changed, plan.generation = changed, gen
                plan.log.append(f"dcm: {name}: {log}")
                if previous is None or result != previous:
                    self._unproven.discard(name)
                    self._set_service_flags(service, dfgen=now, dfcheck=now)
                    plan.log.extend(f"dcm: {name}/{machine_name}: "
                                    "unchanged, marked converged"
                                    for _, machine_name in plan.marks)
                else:
                    self._set_service_flags(service, dfcheck=now)
                    plan.marks = []     # they hold these bytes already
                    if not plan.pushes:
                        plan.status = "no_change"
                return plan
        except LockHeld:
            return _Plan(status="locked",
                         log=[f"dcm: {name}: locked, skipping"])

    def _changes(self, generator, vector: dict[str, int],
                 recorded: dict[str, int], db: Database) -> dict:
        """What moved since *recorded*: changed dependency table -> the
        changed-row-log entries touching a column the generator reads
        (None where a log is unavailable or has overflowed).  A table
        whose entries all touched columns no output reads is left out,
        so an empty dict means nothing the files show has moved."""
        changes = {}
        for table_name, version in vector.items():
            old = recorded.get(table_name)
            if old == version:
                continue
            log = (db.table(table_name).changes_since(old)
                   if old is not None else None)
            if log is not None:
                log = generator.relevant(table_name, log)
                if not log:
                    continue
            changes[table_name] = log
        # tables that vanished from the vector count as changed too
        for table_name in recorded:
            if table_name not in vector:
                changes[table_name] = None
        return changes

    def _plan(self, service: dict, result: GeneratorResult,
              previous: Optional[GeneratorResult]) -> _Plan:
        """The one host policy: a live host holding *previous* (the
        generation at ``dfgen``) receives only the files whose bytes
        changed — a patched one as its delta member — or, when none
        did, is a mark; every other live host (stale, failed,
        overridden, or *previous* unknown) receives *result*'s full
        payload."""
        plan = _Plan()
        for host_row, machine_name in self._live_hosts(service["name"]):
            if previous is not None and \
                    self._holds(host_row, service["dfgen"]):
                files = result.delta_for(machine_name, previous)
                if not files:
                    plan.marks.append((host_row, machine_name))
                    continue
                plan.delta_hosts.add(machine_name)
            else:
                files = result.payload_for(machine_name)
            plan.pushes.append((host_row, machine_name, files))
        return plan

    @staticmethod
    def _holds(host_row: dict, dfgen: int) -> bool:
        """Does the host hold the ``dfgen`` generation?"""
        return bool(dfgen and host_row["success"]
                    and host_row["lts"] >= dfgen
                    and not host_row["override"])

    def _live_hosts(self, name: str) -> list[tuple[dict, str]]:
        """Enabled, error-free serverhost rows of service *name* joined
        to machine names, in the deterministic serverhosts order."""
        live = []
        for row in self.db.table("serverhosts").select({"service": name}):
            if not row["enable"] or row["hosterror"]:
                continue
            machine = self.db.table("machine").select(
                {"mach_id": row["mach_id"]})
            if machine:
                live.append((dict(row), machine[0]["name"]))
        return live

    def _stale_hosts(self, service: dict) -> list[tuple[dict, str]]:
        """Live hosts that do not hold the ``dfgen`` generation."""
        return [(row, machine)
                for row, machine in self._live_hosts(service["name"])
                if not self._holds(row, service["dfgen"])]

    def _generate(self, service: dict, generator, ctx: GenContext,
                  vector: dict[str, int],
                  origin_seq: Optional[int] = None,
                  changes: Optional[dict] = None) -> _Generation:
        """The guarded generate step: patch the held result from
        *changes* when the generator knows how, else build in full;
        remember the result with its input vector and origin seq.  Any
        generator exception is a hard error: ``harderror`` on the
        service, one MOIRA/DCM zephyrgram, the message returned."""
        name = service["name"]
        previous = self._generated.get(name)
        result, message = None, ""
        try:
            if previous is not None and changes is not None \
                    and not self.always_regenerate:
                result = generator.generate_incremental(ctx, previous,
                                                        changes)
            incremental = result is not None
            if result is None:
                result = generator.generate(ctx)
        except Exception as exc:
            message = f"generator failed: {exc!r}"
        origin = origin_seq
        if origin is None:      # the journal watermark right now
            origin = (self.journal.current_seq()
                      if self.journal is not None else 0)
        if message:
            self._set_service_flags(service, harderror=1, errmsg=message)
            self._notify_hard_error(name, message, origin)
            return _Generation(error=message, origin=origin)
        self._generated[name] = result
        self._gen_versions[name] = vector
        self._gen_seq[name] = origin
        self.total_generations += 1
        return _Generation(result, incremental, origin=origin)

    def _set_service_flags(self, service: dict, *,
                           dfgen: Optional[int] = None,
                           dfcheck: Optional[int] = None,
                           harderror: int = 0, errmsg: str = "") -> None:
        """Write the service's internal flags, keeping the caller's
        *service* copy in step; dfgen / dfcheck stay put unless given."""
        if dfgen is not None:
            service["dfgen"] = dfgen
        if dfcheck is not None:
            service["dfcheck"] = dfcheck
        service["harderror"], service["errmsg"] = harderror, errmsg
        self.client.query(
            "set_server_internal_flags", service["name"],
            str(service["dfgen"]), str(service["dfcheck"]), "0",
            str(harderror), errmsg, fsync=False)

    # -- step 2: deliver (host-scan lock) ------------------------------------------

    def _deliver(self, service: dict, plan: Optional[_Plan],
                 now: int) -> _PushSummary:
        """Admit and push *plan* — or, for a service not classified this
        cycle (None), the held generation to its stale hosts — under
        §5.7.1's host-scan lock: SHARED for a UNIQUE service, EXCLUSIVE
        for a REPLICAT one; then one write records the plan's marks and
        every push's outcome (none if the round raises: a re-push)."""
        name = service["name"]
        mode = (LockMode.EXCLUSIVE if service["type"] == "REPLICAT"
                else LockMode.SHARED)
        marks = [] if plan is None else plan.marks
        try:
            with self.locks.held(f"service:{name}", mode):
                if plan is None:
                    held = self._generated.get(name)
                    if held is None:
                        return _PushSummary()
                    plan = self._plan(service, held, held)
                # backoff, open breakers and the per-cycle retry budget
                # skip a host without burning a timeout on it
                admitted, deferred = [], []
                for entry in plan.pushes:
                    ok, _reason = self.governor.admit(name, entry[1], now)
                    (admitted if ok else deferred).append(entry)
                summary = self._push_plan(service, admitted, now)
        except LockHeld:
            summary, deferred = _PushSummary(service_locked=True, log=[
                f"dcm: {name}: locked for host scan"]), []
        summary.deferred = [machine for _, machine, _ in deferred]
        summary.log.extend(f"dcm: {name}/{machine}: deferred by governor"
                           for machine in summary.deferred)
        summary.log.extend(f"dcm: {name}/{machine}: locked, will retry"
                           for machine in summary.locked)
        summary.outcomes[:0] = [self._converged(host_row, machine, now)
                                for host_row, machine in marks]
        self._write_outcomes(name, summary)
        return summary

    def _push_plan(self, service: dict,
                   plan: list[tuple[dict, str, dict]],
                   now: int) -> _PushSummary:
        """The host-push loop — §5.7.1's serverhosts scan: push every
        admitted ``(host_row, machine, files)`` of *plan* in serverhosts
        order under its per-host exclusive lock, folding each outcome
        into the summary as it lands.  Each distinct file set is tarred
        and checksummed once (the paper's "prepare only one set of
        files").  A hard failure on a replicated service ends the scan
        ("no more updates will be attempted")."""
        name = service["name"]
        # file-set content -> (tar, its transfer checksum)
        built: dict[frozenset, tuple[bytes, str]] = {}
        summary = _PushSummary()
        for host_row, machine_name, files in plan:
            if self.journal is not None:
                # a newer epoch stops the scan before the next push
                self.journal.refuse_if_fenced()
            key = frozenset(files.items())
            if key not in built:
                payload = build_payload(files, mtime=now)
                built[key] = (payload, checksum(payload))
            payload, digest = built[key]
            try:
                with self.locks.held(f"host:{name}/{machine_name}",
                                     LockMode.EXCLUSIVE):
                    binding = self.binding_for(name, host_row["mach_id"])
                    if binding is None:
                        outcome = UpdateResult(
                            UpdateOutcome.SOFT_FAILURE,
                            message="no binding for host")
                    else:
                        summary.attempted += 1
                        outcome = push_update(
                            host=binding.host, daemon=binding.daemon,
                            network=self.network,
                            target=service["target_file"],
                            payload=payload,
                            script=default_script(
                                files, binding.post_command or None),
                            faults=self.faults, digest=digest)
                    if self._apply_host_outcome(service, machine_name,
                                                host_row, outcome, now,
                                                summary):
                        break
            except LockHeld:
                summary.locked.append(machine_name)
        self.total_propagations += len(summary.succeeded)
        self.total_bytes += summary.bytes_sent
        return summary

    # -- per-host bookkeeping ---------------------------------------------------------

    @staticmethod
    def _outcome(host_row: dict, machine_name: str,
                 **flags) -> tuple[dict, tuple[str, ...]]:
        """*host_row* and its ``set_server_host_internal`` group: the
        row's flags with *flags* applied, InProgress 0."""
        row = {**host_row, **flags}
        return host_row, (
            machine_name, str(row["override"]), str(row["success"]), "0",
            str(row["hosterror"]), row["hosterrmsg"], str(row["ltt"]),
            str(row["lts"]))

    def _converged(self, host_row: dict, machine_name: str,
                   now: int) -> tuple[dict, tuple[str, ...]]:
        """The host holds the current generation: success, lts = now,
        override and errors cleared."""
        return self._outcome(host_row, machine_name, success=1, override=0,
                             hosterror=0, hosterrmsg="", ltt=now, lts=now)

    def _apply_host_outcome(self, service: dict, machine_name: str,
                            host_row: dict, outcome: UpdateResult,
                            now: int, summary: _PushSummary) -> bool:
        """Record one host's outcome with the governor and in *summary*
        (its bookkeeping group, log line and counts).  A hard failure is
        also attributed to the generation's origin seq, zephyred and
        mailed; on a replicated service it poisons the service record
        and returns True: the scan ends."""
        name = service["name"]
        if outcome.ok:
            self.governor.record_success(name, machine_name)
            summary.outcomes.append(
                self._converged(host_row, machine_name, now))
            summary.succeeded.append(machine_name)
            summary.bytes_sent += outcome.bytes_sent
            summary.log.append(f"dcm: {name}/{machine_name}: updated")
            return False
        message = outcome.message or error_message(outcome.error)
        if outcome.outcome is UpdateOutcome.SOFT_FAILURE:
            self.governor.record_soft(name, machine_name, now)
            summary.outcomes.append(self._outcome(
                host_row, machine_name, success=0, ltt=now,
                hosterrmsg=message))
            summary.soft_failures += 1
            summary.log.append(
                f"dcm: {name}/{machine_name}: soft failure: {message}")
            return False
        self.governor.record_hard(name, machine_name)
        summary.outcomes.append(self._outcome(
            host_row, machine_name, success=0, ltt=now,
            hosterror=outcome.error, hosterrmsg=message))
        summary.log.append(
            f"dcm: {name}/{machine_name}: HARD failure: {message}")
        what, origin = f"{name}/{machine_name}", self._gen_seq.get(name, 0)
        summary.hard_origins.append((what, origin))
        self._notify_hard_error(what, message, origin, mail=True)
        if service["type"] != "REPLICAT":
            return False
        # "no more updates will be attempted to hosts supporting this
        # service"
        self._set_service_flags(service, harderror=1, errmsg=message)
        return True

    def _write_outcomes(self, name: str, summary: _PushSummary) -> None:
        """One ``set_server_host_internal`` for every host in *summary*'s
        outcomes.  A host detached mid-round fails it whole
        (``MR_SERVICE``): drop and log that group, write the rest."""
        outcomes = summary.outcomes
        while outcomes:
            try:
                self.client.query("set_server_host_internal", name, *(
                    arg for _, group in outcomes for arg in group),
                    fsync=False)
                return
            except MoiraError as exc:
                live = {row["mach_id"] for row in self.db.table(
                    "serverhosts").select({"service": name})}
                kept = [entry for entry in outcomes
                        if entry[0]["mach_id"] in live]
                if exc.code != MR_SERVICE or len(kept) == len(outcomes):
                    raise
                summary.log.extend(
                    f"dcm: {name}/{group[0]}: detached mid-round, outcome "
                    "dropped" for host_row, group in outcomes
                    if host_row["mach_id"] not in live)
                outcomes = kept

    def sync(self) -> None:
        """Group commit: the one fsync that makes every bookkeeping
        write since the last one durable.  Each write already reached
        the WAL file (``write`` + ``flush``) after the pushes it
        describes; a crash before this fsync costs a re-push, never an
        acknowledged client write (those fsync'd before they were
        acknowledged)."""
        if self.journal is not None:
            self.journal.sync()

    def _notify_hard_error(self, what: str, message: str,
                           origin_seq: int, *, mail: bool = False) -> None:
        """Hard errors zephyr class MOIRA instance DCM (§5.7.1); a host's
        also mails the maintainers.  The text carries the originating
        journal seq when one is known, so a stuck consumer is
        attributable to a specific committed write, not just a
        wall-clock time."""
        text = f"{what}: {message}"
        if origin_seq:
            text += f" [origin seq {origin_seq}]"
        if self.zephyr_notify is not None:
            self.zephyr_notify("MOIRA", "DCM", text)
        if mail and self.mail_notify is not None:
            self.mail_notify("moira-maintainers", text)

    # -- observability ---------------------------------------------------------------

    def dcm_stats_tuples(self) -> list[tuple[str, ...]]:
        """Per-target retry/breaker rows for the ``_dcm_stats``
        pseudo-query: (service, machine, breaker, attempts, successes,
        soft, hard, breaker_opens, consecutive_soft)."""
        return self.governor.stats_tuples()
