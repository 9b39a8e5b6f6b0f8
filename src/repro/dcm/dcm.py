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
* **Parallel propagation** — per-host pushes fan out over a bounded
  thread pool (``push_pool_width``), reusing the per-host exclusive
  locks; payload tars are prebuilt once per distinct file set, report
  counters are merged in deterministic host order, and a replicated
  hard failure still poisons the service and cancels not-yet-started
  pushes.  ``legacy_pipeline=True`` restores the seed's per-service
  contexts, modtime checks, and strictly sequential push path (the
  benchmark baseline).

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
class _HostOutcome:
    """One host's slice of a propagation fan-out, merged in host order."""

    machine: str
    locked: bool = False
    cancelled: bool = False
    attempted: bool = False
    result: Optional[UpdateResult] = None
    hard: bool = False
    message: str = ""
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
        always_regenerate: bool = False,
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
        # E1 ablation: disable the dfcheck/MR_NO_CHANGE optimisation
        self.always_regenerate = always_regenerate
        # propagation fan-out width; 1 = the paper's sequential push
        self.push_pool_width = max(1, push_pool_width)
        # benchmark baseline: per-service contexts, modtime checks,
        # sequential pushes, per-host tar builds (the seed behaviour)
        self.legacy_pipeline = legacy_pipeline
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
        # cumulative counters across all invocations (for reporting)
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
        cycle_ctx = GenContext(self.db, now)
        cycle_versions = (None if self.legacy_pipeline
                          else self.db.versions())

        services = self._eligible_services(report)
        for service in services:
            self._maybe_generate(service, now, report, cycle_ctx,
                                 cycle_versions)
        for service in services:
            self._host_scan(service, now, report, cycle_ctx,
                            cycle_versions)
        self.total_generations += report.generations
        self.total_no_change += report.generations_no_change
        self.total_propagations += report.propagations_succeeded
        self.total_bytes += report.bytes_propagated
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

    def _maybe_generate(self, service: dict, now: int, report: DCMReport,
                        cycle_ctx: GenContext,
                        cycle_versions: Optional[dict[str, int]]) -> None:
        name = service["name"]
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
                self._set_service_flags(name, inprogress=1,
                                        dfgen=service["dfgen"],
                                        dfcheck=service["dfcheck"])
                generator = get_generator(name)
                vector = (generator.vector_for(cycle_versions)
                          if cycle_versions is not None else None)
                if not self.always_regenerate and service["dfgen"] and \
                        not self._inputs_changed(generator, service,
                                                 vector):
                    # MR_NO_CHANGE: only dfcheck moves forward
                    report.generations_no_change += 1
                    report.no_change_services.append(name)
                    report.log.append(f"dcm: {name}: no change")
                    self._set_service_flags(name, inprogress=0,
                                            dfgen=service["dfgen"],
                                            dfcheck=now)
                    service["dfcheck"] = now
                    return
                try:
                    hosts = self.db.table("serverhosts").select(
                        {"service": name})
                    if self.legacy_pipeline:
                        ctx = GenContext(self.db, now, hosts=hosts)
                    else:
                        ctx = cycle_ctx.for_service(hosts)
                    result, incremental = self._generate(generator, name,
                                                         ctx, vector)
                except Exception as exc:  # a generator hard error
                    message = f"generator failed: {exc!r}"
                    origin = self._origin_seq()
                    report.generation_errors.append((name, message))
                    report.hard_failure_origins.append((name, origin))
                    self._set_service_flags(
                        name, inprogress=0, dfgen=service["dfgen"],
                        dfcheck=service["dfcheck"], harderror=1,
                        errmsg=message)
                    service["harderror"] = 1
                    self._notify_hard_error(name, message,
                                            origin_seq=origin)
                    return
                self._record_generation(name, result, vector, self.db)
                report.generations += 1
                if incremental:
                    report.generations_incremental += 1
                report.generated_services.append(name)
                report.files_generated += result.file_count()
                how = "patched" if incremental else "generated"
                report.log.append(
                    f"dcm: {name}: {how} {result.file_count()} files")
                self._set_service_flags(name, inprogress=0, dfgen=now,
                                        dfcheck=now)
                service["dfgen"] = now
                service["dfcheck"] = now
        except LockHeld:
            report.skipped_locked += 1
            report.log.append(f"dcm: {name}: locked, skipping")

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

    def _record_generation(self, name: str, result: GeneratorResult,
                           vector: Optional[dict[str, int]],
                           db: Database,
                           origin_seq: Optional[int] = None) -> None:
        """Remember a generation: result, input vector (tagged with its
        source database), and the journal watermark for attribution."""
        self._generated[name] = result
        if vector is not None:
            self._gen_versions[name] = vector
            self._gen_db[name] = id(db)
        else:
            self._gen_versions.pop(name, None)
            self._gen_db.pop(name, None)
        self._gen_seq[name] = (self._origin_seq() if origin_seq is None
                               else origin_seq)

    def _origin_seq(self) -> int:
        """The journal watermark right now (0 without a journal)."""
        return (self.journal.current_seq()
                if self.journal is not None else 0)

    def _generate(self, generator, name: str, ctx: GenContext,
                  vector: Optional[dict[str, int]]
                  ) -> tuple[GeneratorResult, bool]:
        """Run a generator, incrementally when it knows how."""
        previous = self._generated.get(name)
        recorded = self._recorded_vector(name, ctx.db)
        if previous is not None and recorded is not None and \
                vector is not None and not self.always_regenerate:
            changes = self._collect_changes(generator, recorded, vector,
                                            ctx.db)
            patched = generator.generate_incremental(ctx, previous,
                                                     changes)
            if patched is not None:
                return patched, True
        return generator.generate(ctx), False

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

    def _set_service_flags(self, name: str, *, inprogress: int,
                           dfgen: int, dfcheck: int, harderror: int = 0,
                           errmsg: str = "") -> None:
        self.client.query("set_server_internal_flags", name, str(dfgen),
                          str(dfcheck), str(inprogress), str(harderror),
                          errmsg)

    # -- host scan -----------------------------------------------------------------

    def _host_scan(self, service: dict, now: int, report: DCMReport,
                   cycle_ctx: GenContext,
                   cycle_versions: Optional[dict[str, int]]) -> None:
        name = service["name"]
        if service.get("harderror"):
            return
        mode = (LockMode.EXCLUSIVE if service["type"] == "REPLICAT"
                else LockMode.SHARED)
        try:
            with self.locks.held(f"service:{name}", mode):
                self._update_hosts(service, now, report, cycle_ctx,
                                   cycle_versions)
        except LockHeld:
            report.skipped_locked += 1
            report.log.append(f"dcm: {name}: locked for host scan")

    def _hosts_needing_update(self, service: dict) -> list[dict]:
        rows = self.db.table("serverhosts").select(
            {"service": service["name"]})
        out = []
        for row in rows:
            if not row["enable"] or row["hosterror"]:
                continue
            if row["lts"] >= service["dfgen"] and not row["override"]:
                continue  # already successfully updated since generation
            out.append(dict(row))
        return out

    def _update_hosts(self, service: dict, now: int, report: DCMReport,
                      cycle_ctx: GenContext,
                      cycle_versions: Optional[dict[str, int]]) -> None:
        name = service["name"]
        result = self._generated.get(name)
        pending = self._hosts_needing_update(service)
        if result is None and (
                service["dfgen"]
                or any(h["override"] for h in pending)):
            # Either a previous DCM process generated these files (on
            # the real system they'd still be on the Moira disk), or an
            # operator's override demands files that were never built —
            # regenerate in place.
            generator = get_generator(name)
            hosts = self.db.table("serverhosts").select({"service": name})
            if self.legacy_pipeline:
                ctx = GenContext(self.db, now, hosts=hosts)
            else:
                ctx = cycle_ctx.for_service(hosts)
            result = generator.generate(ctx)
            self._record_generation(
                name, result,
                (generator.vector_for(cycle_versions)
                 if cycle_versions is not None else None),
                self.db)
            if not service["dfgen"]:
                self._set_service_flags(name, inprogress=0, dfgen=now,
                                        dfcheck=now)
                service["dfgen"] = service["dfcheck"] = now
        if result is None:
            return  # nothing has ever been generated

        targets = self._named_targets(service)
        if not self.legacy_pipeline:
            targets = self._admit_targets(service, targets, now)
        if not targets:
            return
        width = 1 if self.legacy_pipeline else self.push_pool_width
        if width <= 1 or len(targets) <= 1:
            self._push_sequential(service, targets, result, now, report)
        else:
            self._push_parallel(service, targets, result, now, report,
                                width)

    def _admit_targets(self, service: dict,
                       targets: list[tuple[dict, str]],
                       now: int) -> list[tuple[dict, str]]:
        """Filter pending hosts through the propagation governor:
        backoff deferrals, open breakers, and the per-cycle retry
        budget all skip a host *without* burning a timeout on it."""
        admitted = []
        name = service["name"]
        for host_row, machine_name in targets:
            ok, _reason = self.governor.admit(name, machine_name, now)
            if ok:
                admitted.append((host_row, machine_name))
        return admitted

    def _named_targets(self, service: dict) -> list[tuple[dict, str]]:
        """Pending serverhost rows joined to machine names, in the
        deterministic serverhosts order."""
        targets = []
        for host_row in self._hosts_needing_update(service):
            machine = self.db.table("machine").select(
                {"mach_id": host_row["mach_id"]})
            if not machine:
                continue
            targets.append((host_row, machine[0]["name"]))
        return targets

    # -- sequential propagation (the paper's loop) ---------------------------------

    def _push_sequential(self, service: dict,
                         targets: list[tuple[dict, str]],
                         result: GeneratorResult, now: int,
                         report: DCMReport) -> None:
        name = service["name"]
        for host_row, machine_name in targets:
            try:
                with self.locks.held(
                        f"host:{name}/{machine_name}",
                        LockMode.EXCLUSIVE):
                    self._set_host_flags(name, machine_name, host_row,
                                         inprogress=1)
                    outcome = self._push_one(service, machine_name,
                                             result, now, report)
                    self._record_host_outcome(service, machine_name,
                                              host_row, outcome, now,
                                              report)
            except LockHeld:
                report.skipped_locked += 1
            if service.get("harderror"):
                break  # replicated service poisoned: stop updating hosts

    # -- parallel propagation -------------------------------------------------------

    def _push_parallel(self, service: dict,
                       targets: list[tuple[dict, str]],
                       result: GeneratorResult, now: int,
                       report: DCMReport, width: int) -> None:
        """Fan the per-host pushes over a bounded thread pool.

        Safety comes from the existing per-host exclusive locks (taken
        inside each worker) and the database's own lock; determinism
        comes from prebuilding each distinct payload once and merging
        every worker's counters back into the report in the original
        serverhosts order.  A replicated hard failure sets the poison
        event so not-yet-started pushes are cancelled, matching the
        paper's "no more updates will be attempted".
        """
        name = service["name"]
        # the expensive part — the tar — is built once per distinct file
        # set; replicated hosts all share the "*" payload (the paper's
        # "prepare only one set of files")
        files_by_key: dict[str, dict[str, bytes]] = {}
        payloads: dict[str, bytes] = {}
        for _, machine_name in targets:
            key = result.payload_key(machine_name)
            if key not in payloads:
                files_by_key[key] = result.payload_for(machine_name)
                payloads[key] = build_payload(files_by_key[key],
                                              mtime=now)
        poison = threading.Event()
        if service.get("harderror"):
            poison.set()
        slots: list[_HostOutcome] = [
            _HostOutcome(machine=machine) for _, machine in targets]

        def push_host(index: int) -> None:
            host_row, machine_name = targets[index]
            slot = slots[index]
            if poison.is_set():
                slot.cancelled = True
                return
            key = result.payload_key(machine_name)
            try:
                with self.locks.held(
                        f"host:{name}/{machine_name}",
                        LockMode.EXCLUSIVE):
                    self._set_host_flags(name, machine_name, host_row,
                                         inprogress=1)
                    outcome = self._push_prebuilt(
                        service, machine_name, payloads[key],
                        files_by_key[key], slot)
                    slot.result = outcome
                    slot.hard = self._apply_host_outcome(
                        service, machine_name, host_row, outcome, now,
                        slot.log)
                    if slot.hard:
                        slot.message = (outcome.message or
                                        error_message(outcome.error))
                        if service["type"] == "REPLICAT":
                            poison.set()
            except LockHeld:
                slot.locked = True

        with ThreadPoolExecutor(
                max_workers=min(width, len(targets)),
                thread_name_prefix=f"dcm-push-{name}") as pool:
            list(pool.map(push_host, range(len(targets))))

        self._merge_outcomes(service, slots, report)

    def _push_prebuilt(self, service: dict, machine_name: str,
                       payload: bytes, files: dict[str, bytes],
                       slot: _HostOutcome):
        binding = self.binding_for(service["name"], machine_name)
        if binding is None:
            return UpdateResult(UpdateOutcome.SOFT_FAILURE,
                                message="no binding for host")
        slot.attempted = True
        script = default_script(files, binding.post_command or None)
        return push_update(
            host=binding.host, daemon=binding.daemon,
            network=self.network, target=service["target_file"],
            payload=payload, script=script, faults=self.faults)

    def _merge_outcomes(self, service: dict, slots: list[_HostOutcome],
                        report: DCMReport) -> None:
        """Fold worker results into the report in host order, then apply
        service-level consequences exactly once."""
        name = service["name"]
        first_hard: Optional[_HostOutcome] = None
        for slot in slots:
            if slot.locked:
                report.skipped_locked += 1
                continue
            if slot.cancelled or slot.result is None:
                continue
            if slot.attempted:
                report.propagations_attempted += 1
            outcome = slot.result
            if outcome.ok:
                report.propagations_succeeded += 1
                report.bytes_propagated += outcome.bytes_sent
            elif outcome.outcome is UpdateOutcome.SOFT_FAILURE:
                report.soft_failures += 1
            else:
                report.hard_failures += 1
                if first_hard is None:
                    first_hard = slot
            report.log.extend(slot.log)
        origin = self._gen_seq.get(name, 0)
        for slot in slots:
            if slot.hard:
                report.hard_failure_origins.append(
                    (f"{name}/{slot.machine}", origin))
                self._notify_hard_error(f"{name}/{slot.machine}",
                                        slot.message, origin_seq=origin)
                if self.mail_notify is not None:
                    self.mail_notify(
                        "moira-maintainers",
                        f"{name}/{slot.machine}: "
                        f"{self._attributed(slot.message, origin)}")
        if first_hard is not None and service["type"] == "REPLICAT" \
                and not service.get("harderror"):
            # "no more updates will be attempted to hosts supporting
            # this service"
            self._set_service_flags(name, inprogress=0,
                                    dfgen=service["dfgen"],
                                    dfcheck=service["dfcheck"],
                                    harderror=1,
                                    errmsg=first_hard.message)
            service["harderror"] = 1

    # -- the per-host push and its bookkeeping --------------------------------------

    def _push_one(self, service: dict, machine_name: str,
                  result: GeneratorResult, now: int, report: DCMReport):
        binding = self.binding_for(service["name"], machine_name)
        if binding is None:
            return UpdateResult(UpdateOutcome.SOFT_FAILURE,
                                message="no binding for host")
        files = result.payload_for(machine_name)
        payload = build_payload(files, mtime=now)
        script = default_script(files, binding.post_command or None)
        report.propagations_attempted += 1
        return push_update(
            host=binding.host, daemon=binding.daemon,
            network=self.network, target=service["target_file"],
            payload=payload, script=script, faults=self.faults)

    def _apply_host_outcome(self, service: dict, machine_name: str,
                            host_row: dict, outcome, now: int,
                            log: list[str]) -> bool:
        """Write one host's flags and log lines; True on hard failure.

        Service-level consequences (notifications, replicated-service
        poisoning) are the caller's job, so this is safe to run from
        propagation workers.
        """
        name = service["name"]
        if outcome.ok:
            self.governor.record_success(name, machine_name)
            self._set_host_flags(name, machine_name, host_row,
                                 inprogress=0, success=1, override=0,
                                 ltt=now, lts=now, hosterror=0, errmsg="")
            log.append(f"dcm: {name}/{machine_name}: updated")
            return False
        message = outcome.message or error_message(outcome.error)
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

    def _record_host_outcome(self, service: dict, machine_name: str,
                             host_row: dict, outcome, now: int,
                             report: DCMReport) -> None:
        """Sequential-path bookkeeping: flags, counters, notifications,
        and replicated-service poisoning, all in one step."""
        name = service["name"]
        if outcome.ok:
            report.propagations_succeeded += 1
            report.bytes_propagated += outcome.bytes_sent
            self._apply_host_outcome(service, machine_name, host_row,
                                     outcome, now, report.log)
            return
        message = outcome.message or error_message(outcome.error)
        if outcome.outcome is UpdateOutcome.SOFT_FAILURE:
            report.soft_failures += 1
            self._apply_host_outcome(service, machine_name, host_row,
                                     outcome, now, report.log)
            return
        # hard failure
        report.hard_failures += 1
        origin = self._gen_seq.get(name, 0)
        report.hard_failure_origins.append(
            (f"{name}/{machine_name}", origin))
        self._apply_host_outcome(service, machine_name, host_row,
                                 outcome, now, report.log)
        self._notify_hard_error(f"{name}/{machine_name}", message,
                                origin_seq=origin)
        if self.mail_notify is not None:
            self.mail_notify(
                "moira-maintainers",
                f"{name}/{machine_name}: "
                f"{self._attributed(message, origin)}")
        if service["type"] == "REPLICAT":
            # "no more updates will be attempted to hosts supporting
            # this service"
            self._set_service_flags(name, inprogress=0,
                                    dfgen=service["dfgen"],
                                    dfcheck=service["dfcheck"],
                                    harderror=1, errmsg=message)
            service["harderror"] = 1

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

    @staticmethod
    def _attributed(message: str, origin_seq: int) -> str:
        """Stamp the originating journal seq onto an error message so a
        stuck consumer is attributable to a specific committed write,
        not just a wall-clock time."""
        if origin_seq:
            return f"{message} [origin seq {origin_seq}]"
        return message

    def _notify_hard_error(self, what: str, message: str, *,
                           origin_seq: int = 0) -> None:
        """Hard errors zephyr class MOIRA instance DCM (§5.7.1), carrying
        the originating journal seq when one is known."""
        if self.zephyr_notify is not None:
            self.zephyr_notify(
                "MOIRA", "DCM",
                f"{what}: {self._attributed(message, origin_seq)}")

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
        failures / governor deferrals — the backoff machinery owns the
        pacing).
        """
        out = {"service": name, "status": "converged", "reason": "",
               "generated": False, "incremental": False,
               "pushes": 0, "delta_pushes": 0, "full_pushes": 0,
               "marked_converged": 0, "soft_failures": 0,
               "hard_failures": 0, "deferred": 0, "bytes": 0,
               "files_changed": 0, "origin_seq": origin_seq,
               "retry": False, "log": []}

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
        recorded = self._recorded_vector(name, db)
        previous = self._generated.get(name)
        if previous is not None and recorded is not None and \
                vector == recorded and not self._any_override(name):
            out["status"] = "no_change"
            out["reason"] = "version vector unchanged"
            return out
        prev_dfgen = service["dfgen"]
        hosts = self.db.table("serverhosts").select({"service": name})
        ctx = GenContext(db, now, hosts=hosts)
        try:
            result, incremental = self._generate(generator, name, ctx,
                                                 vector)
        except Exception as exc:
            message = f"generator failed: {exc!r}"
            self._set_service_flags(name, inprogress=0,
                                    dfgen=service["dfgen"],
                                    dfcheck=service["dfcheck"],
                                    harderror=1, errmsg=message)
            self._notify_hard_error(name, message, origin_seq=origin_seq)
            out["status"] = "harderror"
            out["reason"] = message
            return out
        self._record_generation(name, result, vector, db,
                                origin_seq=origin_seq)
        out["generated"] = True
        out["incremental"] = incremental

        # classify hosts: fresh (converged to the previous generation,
        # delta-eligible) vs stale (full payload)
        pushes: list[tuple[dict, str, dict, bool]] = []
        marks: list[tuple[dict, str]] = []
        changed_files: set[str] = set()
        for row in hosts:
            if not row["enable"] or row["hosterror"]:
                continue
            machine = self.db.table("machine").select(
                {"mach_id": row["mach_id"]})
            if not machine:
                continue
            machine_name = machine[0]["name"]
            host_row = dict(row)
            fresh = (prev_dfgen and previous is not None
                     and host_row["success"]
                     and host_row["lts"] >= prev_dfgen
                     and not host_row["override"])
            if fresh:
                delta = result.delta_for(machine_name, previous)
                if not delta:
                    marks.append((host_row, machine_name))
                    continue
                changed_files.update(delta)
                pushes.append((host_row, machine_name, delta, True))
            else:
                full = result.payload_for(machine_name)
                changed_files.update(full)
                pushes.append((host_row, machine_name, full, False))
        out["files_changed"] = len(changed_files)
        if not pushes:
            # new bytes reached no host (content-identical regeneration):
            # keep dfgen where it is so every converged host stays
            # converged and the next cron cycle stays a no-op
            out["status"] = "no_change"
            out["reason"] = "content unchanged"
            return out

        self._set_service_flags(name, inprogress=0, dfgen=now,
                                dfcheck=now)
        service["dfgen"] = service["dfcheck"] = now
        for host_row, machine_name in marks:
            self._set_host_flags(name, machine_name, host_row,
                                 inprogress=0, success=1, override=0,
                                 ltt=now, lts=now, hosterror=0,
                                 errmsg="")
            out["marked_converged"] += 1
            out["log"].append(
                f"cdc: {name}/{machine_name}: unchanged, "
                "marked converged")
        for host_row, machine_name, files, is_delta in pushes:
            if service.get("harderror"):
                break   # replicated service poisoned mid-loop
            ok, _reason = self.governor.admit(name, machine_name, now)
            if not ok:
                out["deferred"] += 1
                out["retry"] = True
                out["log"].append(
                    f"cdc: {name}/{machine_name}: deferred by governor")
                continue
            try:
                with self.locks.held(f"host:{name}/{machine_name}",
                                     LockMode.EXCLUSIVE):
                    self._set_host_flags(name, machine_name, host_row,
                                         inprogress=1)
                    outcome = self._push_files(service, machine_name,
                                               files, now)
                    hard = self._apply_host_outcome(
                        service, machine_name, host_row, outcome, now,
                        out["log"])
                    if outcome.ok:
                        out["pushes"] += 1
                        out["delta_pushes" if is_delta
                            else "full_pushes"] += 1
                        out["bytes"] += outcome.bytes_sent
                    elif hard:
                        out["hard_failures"] += 1
                        message = (outcome.message
                                   or error_message(outcome.error))
                        self._notify_hard_error(f"{name}/{machine_name}",
                                                message,
                                                origin_seq=origin_seq)
                        if self.mail_notify is not None:
                            self.mail_notify(
                                "moira-maintainers",
                                f"{name}/{machine_name}: "
                                f"{self._attributed(message, origin_seq)}")
                        if service["type"] == "REPLICAT":
                            self._set_service_flags(
                                name, inprogress=0,
                                dfgen=service["dfgen"],
                                dfcheck=service["dfcheck"],
                                harderror=1, errmsg=message)
                            service["harderror"] = 1
                    else:
                        out["soft_failures"] += 1
                        out["retry"] = True
            except LockHeld:
                out["retry"] = True
                out["log"].append(
                    f"cdc: {name}/{machine_name}: locked, will retry")
        if service.get("harderror"):
            out["status"] = "harderror"
            out["reason"] = service.get("errmsg", "hard failure")
        self.total_propagations += out["pushes"]
        self.total_bytes += out["bytes"]
        return out

    def _push_files(self, service: dict, machine_name: str,
                    files: dict[str, bytes], now: int):
        """One push of an explicit file set (full or delta payload)."""
        binding = self.binding_for(service["name"], machine_name)
        if binding is None:
            return UpdateResult(UpdateOutcome.SOFT_FAILURE,
                                message="no binding for host")
        payload = build_payload(files, mtime=now)
        script = default_script(files, binding.post_command or None)
        return push_update(
            host=binding.host, daemon=binding.daemon,
            network=self.network, target=service["target_file"],
            payload=payload, script=script, faults=self.faults)

    # -- observability ---------------------------------------------------------------

    def dcm_stats_tuples(self) -> list[tuple[str, ...]]:
        """Per-target retry/breaker rows for the ``_dcm_stats``
        pseudo-query: (service, machine, breaker, attempts, successes,
        soft, hard, breaker_opens, consecutive_soft)."""
        return self.governor.stats_tuples()
