"""The Data Control Manager proper — the §5.7.1 scan algorithm.

On each invocation (cron or the Trigger_DCM request) the DCM:

1. exits quietly if the disable file ``/etc/nodcm`` exists on the Moira
   host, or (logging it) if the ``dcm_enable`` database value is zero;
2. scans the servers relation for services that are enabled, have no
   hard error, a non-zero interval, and a registered generator;
3. for each such service due for an update, takes an exclusive service
   lock, sets InProgress, and runs the generator — recording success
   (dfgen+dfcheck), MR_NO_CHANGE (dfcheck only), soft errors (errmsg),
   or hard errors (harderror + errmsg + a zephyrgram to MOIRA/DCM);
4. for each such service — "regardless of the result of attempting to
   build data files" — scans its serverhosts: enabled, no host error,
   not successfully updated since dfgen (or override), pushing files
   with the §5.9 update protocol under per-host exclusive locks;
5. on replicated services, a hard host failure also poisons the
   service record "so that no more updates will be attempted".

The incremental pipeline on top of the paper's algorithm:

* **Exact change tracking** — each generation records the data-version
  vector of its input relations; the MR_NO_CHANGE check compares
  vectors instead of scanning modtimes, and generators with changed
  inputs may patch their previous result (``generate_incremental``)
  from the tables' changed-row logs.
* **One shared extraction snapshot per cycle** — a single
  :class:`GenContext` serves every service, so cross-relation maps
  (active users, membership closures...) are derived once per cycle,
  not once per service.
* **One propagation engine** — cron (:meth:`DCM.run_once`) and the CDC
  extractor (:meth:`DCM.converge_service`) are *policy*: each decides
  which hosts are due and which files each one receives.  Both then
  use the same *mechanism*: one guarded generate step (``_generate``)
  and one host-push loop (``_push_plan``) that tars each distinct file
  set once, pushes every host under its per-host exclusive lock —
  inline at ``push_pool_width`` 1, on a bounded thread pool otherwise:
  width 1 of the same loop, not another loop — cancels not-yet-started
  pushes once a replicated host fails hard, and merges the outcomes in
  deterministic host order.  ``legacy_pipeline=True`` keeps the seed's
  per-service contexts and modtime checks and makes two caller-side
  choices, no governor admission and width 1 (the benchmark baseline).

The paper names incremental update as future work; this realises it.
The DCM talks to the database through the direct glue library
(:class:`DirectClient`) as the paper specifies, authenticating as root.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
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
from repro.errors import error_message
from repro.hosts.host import SimulatedHost
from repro.hosts.update_daemon import UpdateDaemon
from repro.sim.clock import Clock
from repro.sim.faults import FaultInjector
from repro.sim.network import Network

__all__ = ["DCM", "DCMReport", "ServiceBinding"]

DEFAULT_PUSH_POOL_WIDTH = 8


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
class _Cycle:
    """One cron invocation's shared state: the clock reading, the report
    being filled, one extraction snapshot, and one database version
    vector (None on the legacy pipeline, which checks modtimes)."""

    now: int
    report: DCMReport
    ctx: GenContext
    versions: Optional[dict[str, int]]

    def vector(self, generator) -> Optional[dict[str, int]]:
        """*generator*'s slice of the cycle's version vector."""
        return (generator.vector_for(self.versions)
                if self.versions is not None else None)


@dataclass
class _Generation:
    """What the guarded generate step did: the files, or the hard error."""

    result: Optional[GeneratorResult] = None
    incremental: bool = False
    error: str = ""
    origin: int = 0


@dataclass
class _HostOutcome:
    """One host's slot in a push round.  ``result`` stays None when the
    host lock was held elsewhere (``locked``) or the push was cancelled
    by a replicated hard failure."""

    machine: str
    locked: bool = False
    attempted: bool = False
    result: Optional[UpdateResult] = None
    log: list[str] = field(default_factory=list)


@dataclass
class _PushSummary:
    """One push round folded in host order — what a caller reports."""

    attempted: int = 0
    succeeded: list[str] = field(default_factory=list)   # machine names
    locked: list[str] = field(default_factory=list)      # machine names
    soft_failures: int = 0
    bytes_sent: int = 0
    # (service/machine, origin journal seq) per hard failure
    hard_origins: list[tuple[str, int]] = field(default_factory=list)
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
        push_pool_width: int = DEFAULT_PUSH_POOL_WIDTH,
        legacy_pipeline: bool = False,
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
        # E1 ablation (set on a built DCM): disable the
        # dfcheck/MR_NO_CHANGE optimisation
        self.always_regenerate = False
        # benchmark baseline: per-service contexts and modtime checks,
        # plus two caller-side choices — no governor admission, width 1
        self.legacy_pipeline = legacy_pipeline
        # propagation fan-out width; 1 = the push loop runs inline
        self.push_pool_width = (1 if legacy_pipeline
                                else max(1, push_pool_width))
        # fault-injection harness (tests/benchmarks); begin_cycle applies
        # scheduled network weather at the top of each invocation
        self.faults = faults
        # backoff + circuit breakers + retry budget for propagation;
        # admission is skipped on the legacy pipeline (the paper's
        # retry-every-cycle loop, and the benchmark baseline)
        self.governor = PropagationGovernor(retry_policy)
        self._bindings: dict[tuple[str, str], ServiceBinding] = {}
        self._generated: dict[str, GeneratorResult] = {}
        # service -> data-version vector of its inputs at generation time
        self._gen_versions: dict[str, dict[str, int]] = {}
        # service -> id() of the database the vector was read from.
        # Version counters are per-database-instance (an extraction
        # replica's differ from the primary's), so a recorded vector is
        # only comparable against the same instance — anything else is
        # treated as "no recorded vector" and regenerates fully.
        self._gen_db: dict[str, int] = {}
        # service -> journal watermark at generation time (hard-error
        # origin attribution; 0 = no journal)
        self._gen_seq: dict[str, int] = {}
        self.runs = 0
        # cumulative counters across every invocation of either trigger,
        # bumped where the work happens (generate step / push merge)
        self.total_generations = 0
        self.total_no_change = 0
        self.total_propagations = 0
        self.total_bytes = 0

    # -- deployment wiring ----------------------------------------------------

    def bind_host(self, service: str, machine: str,
                  binding: ServiceBinding) -> None:
        """Associate a service/machine pair with a simulated host."""
        self._bindings[(service.upper(), machine.upper())] = binding

    def binding_for(self, service: str,
                    machine: str) -> Optional[ServiceBinding]:
        """The binding for a service/machine pair, or None."""
        return self._bindings.get((service.upper(), machine.upper()))

    # -- one invocation ------------------------------------------------------------

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

        # one extraction snapshot and one version vector for the whole
        # cycle: versions are captured before any data is read, so a
        # concurrent change mid-cycle is re-detected next cycle
        cycle = _Cycle(now, report, GenContext(self.db, now),
                       None if self.legacy_pipeline
                       else self.db.versions())

        services = self._eligible_services(report)
        for service in services:
            self._maybe_generate(service, cycle)
        for service in services:
            self._host_scan(service, cycle)
        report.retries_deferred = self.governor.cycle_deferred
        report.breaker_skips = self.governor.cycle_breaker_skips
        report.breaker_probes = self.governor.cycle_probes
        report.budget_deferred = self.governor.cycle_budget_deferred
        report.breaker_open_hosts = self.governor.open_hosts()
        return report

    # -- service scan ------------------------------------------------------------

    def _eligible_services(self, report: DCMReport) -> list[dict]:
        rows = self.db.table("servers").rows
        report.services_scanned = len(rows)
        eligible = []
        for row in rows:
            if not row["enable"] or row["harderror"]:
                continue
            if row["update_int"] <= 0:
                continue
            if get_generator(row["name"]) is None:
                continue
            eligible.append(dict(row))
        return eligible

    def _maybe_generate(self, service: dict, cycle: _Cycle) -> None:
        name, now, report = service["name"], cycle.now, cycle.report
        interval_seconds = service["update_int"] * 60
        if now < service["dfcheck"] + interval_seconds and \
                not self._any_override(name):
            # not yet time for another update — unless an operator set
            # a host override, which makes the service immediately due
            # (the no-change check below still avoids wasted extracts)
            return
        report.services_due += 1
        try:
            with self.locks.held(f"service:{name}", LockMode.EXCLUSIVE):
                self._set_service_flags(service, inprogress=1)
                generator = get_generator(name)
                if not self.always_regenerate and service["dfgen"] and \
                        not self._inputs_changed(generator, service,
                                                 cycle.vector(generator)):
                    # MR_NO_CHANGE: only dfcheck moves forward
                    self.total_no_change += 1
                    report.generations_no_change += 1
                    report.no_change_services.append(name)
                    report.log.append(f"dcm: {name}: no change")
                    self._set_service_flags(service, dfcheck=now)
                    return
                gen = self._cycle_generate(service, cycle)
                if gen is None:
                    return
                report.generations += 1
                if gen.incremental:
                    report.generations_incremental += 1
                report.generated_services.append(name)
                report.files_generated += gen.result.file_count()
                how = "patched" if gen.incremental else "generated"
                report.log.append(
                    f"dcm: {name}: {how} {gen.result.file_count()} files")
                self._set_service_flags(service, dfgen=now, dfcheck=now)
        except LockHeld:
            report.skipped_locked += 1
            report.log.append(f"dcm: {name}: locked, skipping")

    def _cycle_generate(self, service: dict, cycle: _Cycle, *,
                        record_vector: bool = True
                        ) -> Optional[_Generation]:
        """Cron's call of the generate step: extract through the cycle's
        shared snapshot; a generator hard error lands in the report and
        returns None.  *record_vector* False remembers the files without
        their input vector — for a generation that does not move
        ``dfgen``, so the next due check cannot pair today's vector with
        yesterday's ``dfgen`` and falls back to ``changed_since``."""
        name = service["name"]
        generator = get_generator(name)
        hosts = self.db.table("serverhosts").select({"service": name})
        if self.legacy_pipeline:
            ctx = GenContext(self.db, cycle.now, hosts=hosts)
        else:
            ctx = cycle.ctx.for_service(hosts)
        gen = self._generate(
            service, generator, ctx,
            cycle.vector(generator) if record_vector else None)
        if gen.error:
            cycle.report.generation_errors.append((name, gen.error))
            cycle.report.hard_failure_origins.append((name, gen.origin))
            return None
        return gen

    def _inputs_changed(self, generator, service: dict,
                        vector: Optional[dict[str, int]]) -> bool:
        """Exact version-vector comparison, falling back to the modtime
        scan when no vector was recorded (fresh DCM over an old
        database, or the legacy pipeline)."""
        recorded = self._recorded_vector(service["name"], self.db)
        if vector is not None and recorded is not None:
            return vector != recorded
        return generator.changed_since(self.db, service["dfgen"])

    def _recorded_vector(self, name: str,
                         db: Database) -> Optional[dict[str, int]]:
        """The vector recorded for *name*, but only when it was read
        from *db* — version counters from another database instance
        (primary vs extraction replica) are incomparable."""
        if self._gen_db.get(name) != id(db):
            return None
        return self._gen_versions.get(name)

    def _collect_changes(self, generator, recorded: dict[str, int],
                         vector: dict[str, int], db: Database):
        """Changed dependency tables -> their changed-row logs (None
        where a log is unavailable or has overflowed)."""
        changes = {}
        for table_name, version in vector.items():
            old = recorded.get(table_name)
            if old == version:
                continue
            changes[table_name] = (
                db.table(table_name).changes_since(old)
                if old is not None else None)
        # tables that vanished from the vector count as changed too
        for table_name in recorded:
            if table_name not in vector:
                changes[table_name] = None
        return changes

    def _any_override(self, service_name: str) -> bool:
        return any(row["override"]
                   for row in self.db.table("serverhosts").select(
                       {"service": service_name}))

    def _set_service_flags(self, service: dict, *, inprogress: int = 0,
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
            str(service["dfgen"]), str(service["dfcheck"]),
            str(inprogress), str(harderror), errmsg)

    # -- host scan (cron's policy: which hosts, which files) -----------------------

    def _host_scan(self, service: dict, cycle: _Cycle) -> None:
        name, report = service["name"], cycle.report
        if service.get("harderror"):
            return
        mode = (LockMode.EXCLUSIVE if service["type"] == "REPLICAT"
                else LockMode.SHARED)
        try:
            with self.locks.held(f"service:{name}", mode):
                self._update_hosts(service, cycle)
        except LockHeld:
            report.skipped_locked += 1
            report.log.append(f"dcm: {name}: locked for host scan")

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

    def _pending_targets(self, service: dict) -> list[tuple[dict, str]]:
        """Live hosts not successfully updated since the last generation
        (or overridden)."""
        return [(row, machine)
                for row, machine in self._live_hosts(service["name"])
                if row["lts"] < service["dfgen"] or row["override"]]

    def _update_hosts(self, service: dict, cycle: _Cycle) -> None:
        name, now, report = service["name"], cycle.now, cycle.report
        result = self._generated.get(name)
        targets = self._pending_targets(service)
        if result is None and (
                service["dfgen"]
                or any(row["override"] for row, _ in targets)):
            # Either a previous DCM process generated these files (on
            # the real system they'd still be on the Moira disk), or an
            # operator's override demands files that were never built —
            # regenerate in place.
            gen = self._cycle_generate(
                service, cycle, record_vector=not service["dfgen"])
            if gen is None:
                return  # generator hard error: the service is flagged
            result = gen.result
            if not service["dfgen"]:
                self._set_service_flags(service, dfgen=now, dfcheck=now)
                targets = self._pending_targets(service)
        if result is None:
            return  # nothing has ever been generated

        if not self.legacy_pipeline:
            targets, _deferred = self._admit(name, targets, now)
        if not targets:
            return
        # every pending host gets its full payload
        summary = self._push_plan(
            service,
            [(row, machine, result.payload_for(machine))
             for row, machine in targets], now)
        report.skipped_locked += len(summary.locked)
        report.propagations_attempted += summary.attempted
        report.propagations_succeeded += len(summary.succeeded)
        report.bytes_propagated += summary.bytes_sent
        report.soft_failures += summary.soft_failures
        report.hard_failures += len(summary.hard_origins)
        report.hard_failure_origins.extend(summary.hard_origins)
        report.log.extend(summary.log)

    def _admit(self, name: str, plan: list[tuple],
               now: int) -> tuple[list[tuple], list[tuple]]:
        """Split ``(host_row, machine, ...)`` entries through the
        propagation governor into (admitted, deferred): backoff
        deferrals, open breakers, and the per-cycle retry budget all
        skip a host *without* burning a timeout on it."""
        admitted, deferred = [], []
        for entry in plan:
            ok, _reason = self.governor.admit(name, entry[1], now)
            (admitted if ok else deferred).append(entry)
        return admitted, deferred

    # -- the propagation engine: one generate step, one push loop ------------------
    #
    # Mechanism only.  Which hosts are due and which files each receives
    # is the caller's policy (cron: _update_hosts; CDC: _converge_locked);
    # nothing below knows which of them is calling.

    def _generate(self, service: dict, generator, ctx: GenContext,
                  vector: Optional[dict[str, int]],
                  origin_seq: Optional[int] = None) -> _Generation:
        """The guarded generate step: patch the previous result when the
        generator knows how, else build in full, and remember the result
        with its input vector (tagged with its source database) and the
        journal watermark for attribution.

        Any generator exception is a hard error: the service is flagged
        ``harderror``, MOIRA/DCM is zephyred with the origin seq, and
        the message comes back for the caller's report.
        """
        name = service["name"]
        previous = self._generated.get(name)
        recorded = self._recorded_vector(name, ctx.db)
        result, message = None, ""
        try:
            if previous is not None and recorded is not None and \
                    vector is not None and not self.always_regenerate:
                result = generator.generate_incremental(
                    ctx, previous, self._collect_changes(
                        generator, recorded, vector, ctx.db))
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
        if vector is not None:
            self._gen_versions[name] = vector
            self._gen_db[name] = id(ctx.db)
        else:
            self._gen_versions.pop(name, None)
            self._gen_db.pop(name, None)
        self._gen_seq[name] = origin
        self.total_generations += 1
        return _Generation(result, incremental, origin=origin)

    def _push_plan(self, service: dict,
                   plan: list[tuple[dict, str, dict[str, bytes]]],
                   now: int) -> _PushSummary:
        """The host-push loop: push every admitted ``(host_row, machine,
        files)`` of *plan* (serverhosts order) under its per-host
        exclusive lock.

        The expensive part — the tar — is built once per distinct file
        set; replicated hosts all share one payload (the paper's
        "prepare only one set of files").  At ``push_pool_width`` 1, or
        with a single target, the loop runs inline; otherwise the same
        loop fans out over a bounded thread pool.  Safety comes from the
        per-host locks and the database's own lock; determinism from
        merging every slot back in plan order.  A replicated hard
        failure sets the poison event so not-yet-started pushes are
        cancelled, matching the paper's "no more updates will be
        attempted".
        """
        name = service["name"]
        built: dict[frozenset, bytes] = {}     # file-set content -> tar
        payloads: list[bytes] = []              # one per plan entry
        for _, _, files in plan:
            key = frozenset(files.items())
            if key not in built:
                built[key] = build_payload(files, mtime=now)
            payloads.append(built[key])
        poison = threading.Event()
        slots = [_HostOutcome(machine=machine) for _, machine, _ in plan]

        def push_host(index: int) -> None:
            host_row, machine_name, files = plan[index]
            slot = slots[index]
            if poison.is_set():
                return
            try:
                with self.locks.held(
                        f"host:{name}/{machine_name}",
                        LockMode.EXCLUSIVE):
                    self._set_host_flags(name, machine_name, host_row,
                                         inprogress=1)
                    binding = self.binding_for(name, machine_name)
                    if binding is None:
                        slot.result = UpdateResult(
                            UpdateOutcome.SOFT_FAILURE,
                            message="no binding for host")
                    else:
                        slot.attempted = True
                        slot.result = push_update(
                            host=binding.host, daemon=binding.daemon,
                            network=self.network,
                            target=service["target_file"],
                            payload=payloads[index],
                            script=default_script(
                                files, binding.post_command or None),
                            faults=self.faults)
                    hard = self._apply_host_outcome(
                        service, machine_name, host_row, slot.result,
                        now, slot.log)
                    if hard and service["type"] == "REPLICAT":
                        poison.set()
            except LockHeld:
                slot.locked = True

        width = min(self.push_pool_width, len(plan))
        if width <= 1:
            for index in range(len(plan)):
                push_host(index)
        else:
            with ThreadPoolExecutor(
                    max_workers=width,
                    thread_name_prefix=f"dcm-push-{name}") as pool:
                list(pool.map(push_host, range(len(plan))))
        return self._merge_outcomes(service, slots)

    def _merge_outcomes(self, service: dict,
                        slots: list[_HostOutcome]) -> _PushSummary:
        """Fold the slots into one summary in host order, applying the
        service-level consequences of a hard failure — origin
        attribution, zephyrgram, mail, replicated-service poisoning —
        exactly once."""
        name = service["name"]
        origin = self._gen_seq.get(name, 0)
        summary = _PushSummary()
        poisoned_by = ""
        for slot in slots:
            if slot.locked:
                summary.locked.append(slot.machine)
                continue
            outcome = slot.result
            if outcome is None:
                continue    # cancelled: the service was poisoned first
            summary.attempted += slot.attempted
            summary.log.extend(slot.log)
            if outcome.ok:
                summary.succeeded.append(slot.machine)
                summary.bytes_sent += outcome.bytes_sent
            elif outcome.outcome is UpdateOutcome.SOFT_FAILURE:
                summary.soft_failures += 1
            else:
                what = f"{name}/{slot.machine}"
                message = self._failure_message(outcome)
                summary.hard_origins.append((what, origin))
                self._notify_hard_error(what, message, origin, mail=True)
                poisoned_by = poisoned_by or message
        if summary.hard_origins and service["type"] == "REPLICAT":
            # "no more updates will be attempted to hosts supporting
            # this service"
            self._set_service_flags(service, harderror=1,
                                    errmsg=poisoned_by)
        self.total_propagations += len(summary.succeeded)
        self.total_bytes += summary.bytes_sent
        return summary

    # -- per-host bookkeeping ---------------------------------------------------------

    @staticmethod
    def _failure_message(outcome: UpdateResult) -> str:
        return outcome.message or error_message(outcome.error)

    def _mark_host_updated(self, name: str, machine_name: str,
                           host_row: dict, now: int) -> None:
        """The host holds the current generation: success, lts = now,
        override and errors cleared."""
        self._set_host_flags(name, machine_name, host_row,
                             inprogress=0, success=1, override=0,
                             ltt=now, lts=now, hosterror=0, errmsg="")

    def _apply_host_outcome(self, service: dict, machine_name: str,
                            host_row: dict, outcome: UpdateResult,
                            now: int, log: list[str]) -> bool:
        """Write one host's flags and log lines; True on hard failure.

        Service-level consequences (notifications, replicated-service
        poisoning) belong to the merge, so this is safe to run from
        propagation workers.
        """
        name = service["name"]
        if outcome.ok:
            self.governor.record_success(name, machine_name)
            self._mark_host_updated(name, machine_name, host_row, now)
            log.append(f"dcm: {name}/{machine_name}: updated")
            return False
        message = self._failure_message(outcome)
        if outcome.outcome is UpdateOutcome.SOFT_FAILURE:
            self.governor.record_soft(name, machine_name, now)
            self._set_host_flags(name, machine_name, host_row,
                                 inprogress=0, success=0, ltt=now,
                                 errmsg=message)
            log.append(
                f"dcm: {name}/{machine_name}: soft failure: {message}")
            return False
        self.governor.record_hard(name, machine_name)
        self._set_host_flags(name, machine_name, host_row, inprogress=0,
                             success=0, ltt=now, hosterror=outcome.error,
                             errmsg=message)
        log.append(
            f"dcm: {name}/{machine_name}: HARD failure: {message}")
        return True

    def _set_host_flags(self, service: str, machine: str, host_row: dict,
                        *, inprogress: int, success: int | None = None,
                        override: int | None = None,
                        ltt: int | None = None, lts: int | None = None,
                        hosterror: int | None = None,
                        errmsg: str | None = None) -> None:
        self.client.query(
            "set_server_host_internal", service, machine,
            str(host_row["override"] if override is None else override),
            str(host_row["success"] if success is None else success),
            str(inprogress),
            str(host_row["hosterror"] if hosterror is None else hosterror),
            host_row["hosterrmsg"] if errmsg is None else errmsg,
            str(host_row["ltt"] if ltt is None else ltt),
            str(host_row["lts"] if lts is None else lts))

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

    # -- CDC-driven convergence ------------------------------------------------------

    def converge_service(self, name: str, now: int, *,
                         origin_seq: int = 0,
                         extract_db: Optional[Database] = None) -> dict:
        """Regenerate one service *now* and push only what changed.

        The CDC extractor's entry point: no interval check — the caller
        already knows a committed write dirtied this service.  Extraction
        may run against *extract_db* (a dedicated extraction replica);
        bookkeeping always writes through the primary.  Hosts converged
        to the previous generation receive a delta payload (only the
        files whose bytes changed — the §5.8 install path applies tar
        members individually, so the rest of the host tree is
        untouched); stale or overridden hosts get the full payload.  A
        host whose delta is empty is marked converged without a push —
        a coalesced push.

        Returns a counter dict; ``status`` is one of ``converged``,
        ``no_change``, ``skipped``, ``locked``, or ``harderror``, and
        ``retry`` asks the extractor to keep the service queued (soft
        failures / governor deferrals) until ``retry_at``, the
        governor's earliest admission time over the hosts still owed a
        push.  The re-entry finds the version vector unchanged and
        pushes the recorded generation to just those hosts.
        """
        out = {"service": name, "status": "converged", "reason": "",
               "generated": False, "incremental": False,
               "pushes": 0, "delta_pushes": 0, "full_pushes": 0,
               "marked_converged": 0, "soft_failures": 0,
               "hard_failures": 0, "deferred": 0, "bytes": 0,
               "files_changed": 0, "origin_seq": origin_seq,
               "retry": False, "retry_at": now, "log": []}

        def skipped(reason: str) -> dict:
            out["status"] = "skipped"
            out["reason"] = reason
            return out

        rows = self.db.table("servers").select({"name": name})
        if not rows:
            return skipped("unknown service")
        service = dict(rows[0])
        generator = get_generator(name)
        if generator is None:
            return skipped("no generator")
        if not service["enable"]:
            return skipped("disabled")
        if service["harderror"]:
            return skipped("harderror")
        if not self.db.get_value("dcm_enable"):
            return skipped("dcm_enable is 0")
        db = extract_db if extract_db is not None else self.db
        try:
            with self.locks.held(f"service:{name}", LockMode.EXCLUSIVE):
                return self._converge_locked(service, generator, db, now,
                                             origin_seq, out)
        except LockHeld:
            out["status"] = "locked"
            out["retry"] = True
            out["log"].append(f"cdc: {name}: locked, will retry")
            return out

    def _converge_locked(self, service: dict, generator, db: Database,
                         now: int, origin_seq: int, out: dict) -> dict:
        name = service["name"]
        vector = generator.vector_for(db.versions())
        previous = self._generated.get(name)
        recorded = self._recorded_vector(name, db)
        if previous is not None and recorded == vector:
            # nothing to generate; hosts that missed the recorded
            # generation (a retry, an override) are owed all of it
            stale = self._pending_targets(service)
            if not stale:
                self.total_no_change += 1
                out["status"] = "no_change"
                out["reason"] = "version vector unchanged"
                return out
            return self._converge_push(
                service, [(row, machine, previous.payload_for(machine))
                          for row, machine in stale], set(), now, out)
        if recorded is None:
            # files remembered without their inputs (regenerated in
            # place, or read from another database instance) are not
            # known to be what any host holds: no deltas against them
            previous = None
        prev_dfgen = service["dfgen"]
        hosts = self.db.table("serverhosts").select({"service": name})
        gen = self._generate(service, generator,
                             GenContext(db, now, hosts=hosts), vector,
                             origin_seq)
        if gen.error:
            out["status"] = "harderror"
            out["reason"] = gen.error
            return out
        result = gen.result
        out["generated"] = True
        out["incremental"] = gen.incremental

        # policy: a fresh host (converged to the previous generation)
        # gets the delta, or is marked converged when the delta is
        # empty; a stale or overridden host gets the full payload
        plan: list[tuple[dict, str, dict[str, bytes]]] = []
        marks: list[tuple[dict, str]] = []
        delta_hosts: set[str] = set()
        changed_files: set[str] = set()
        for host_row, machine_name in self._live_hosts(name):
            fresh = (prev_dfgen and previous is not None
                     and host_row["success"]
                     and host_row["lts"] >= prev_dfgen
                     and not host_row["override"])
            if fresh:
                files = result.delta_for(machine_name, previous)
                if not files:
                    marks.append((host_row, machine_name))
                    continue
                delta_hosts.add(machine_name)
            else:
                files = result.payload_for(machine_name)
            changed_files.update(files)
            plan.append((host_row, machine_name, files))
        out["files_changed"] = len(changed_files)
        if not plan:
            # new bytes reached no host (content-identical regeneration):
            # keep dfgen where it is so every converged host stays
            # converged and the next cron cycle stays a no-op
            out["status"] = "no_change"
            out["reason"] = "content unchanged"
            return out

        self._set_service_flags(service, dfgen=now, dfcheck=now)
        for host_row, machine_name in marks:
            self._mark_host_updated(name, machine_name, host_row, now)
            out["log"].append(
                f"cdc: {name}/{machine_name}: unchanged, "
                "marked converged")
        out["marked_converged"] = len(marks)
        return self._converge_push(service, plan, delta_hosts, now, out)

    def _converge_push(self, service: dict, plan: list[tuple],
                       delta_hosts: set[str], now: int, out: dict) -> dict:
        """Admit and push a CDC *plan*; fold the round into *out*."""
        name = service["name"]
        plan, deferred = self._admit(name, plan, now)
        out["deferred"] = len(deferred)
        out["log"].extend(
            f"cdc: {name}/{machine_name}: deferred by governor"
            for _, machine_name, _ in deferred)
        summary = self._push_plan(service, plan, now)
        out["pushes"] = len(summary.succeeded)
        out["delta_pushes"] = len(delta_hosts.intersection(
            summary.succeeded))
        out["full_pushes"] = out["pushes"] - out["delta_pushes"]
        out["bytes"] = summary.bytes_sent
        out["soft_failures"] = summary.soft_failures
        out["hard_failures"] = len(summary.hard_origins)
        out["log"].extend(summary.log)
        out["log"].extend(
            f"cdc: {name}/{machine_name}: locked, will retry"
            for machine_name in summary.locked)
        out["retry"] = bool(deferred or summary.soft_failures
                            or summary.locked)
        if out["retry"] and not summary.locked:
            out["retry_at"] = min(
                (self.governor.next_admission_at(name, machine_name)
                 for _, machine_name in self._pending_targets(service)),
                default=now)
        if service.get("harderror"):
            out["status"] = "harderror"
            out["reason"] = service["errmsg"]
        return out

    # -- observability ---------------------------------------------------------------

    def dcm_stats_tuples(self) -> list[tuple[str, ...]]:
        """Per-target retry/breaker rows for the ``_dcm_stats``
        pseudo-query: (service, machine, breaker, attempts, successes,
        soft, hard, breaker_opens, consecutive_soft)."""
        return self.governor.stats_tuples()
