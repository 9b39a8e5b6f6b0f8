"""Assemble a complete simulated Athena deployment.

The deployment matches the paper's production shape by default: one
Hesiod server receiving 11 .db files every 6 hours, 20 NFS locker
servers on a 12-hour cycle, one mail hub taking /usr/lib/aliases daily,
and three Zephyr servers taking ACL files daily; a DCM fired by cron
every 15 minutes ("the distribution of server-specific files can occur
every 15 minutes"); the Moira server fronting the database; and a
Kerberos realm everybody authenticates against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.client.lib import DirectClient, MoiraClient
from repro.db.journal import Journal
from repro.db.schema import build_database
from repro.dcm.dcm import DCM, ServiceBinding
from repro.dcm.retry import RetryPolicy
from repro.hosts.host import SimulatedHost
from repro.hosts.update_daemon import UpdateDaemon
from repro.kerberos.kdc import KDC
from repro.server.access import AccessCache, seed_capacls
from repro.server.moira_server import MoiraServer
from repro.servers.hesiod import HesiodServer
from repro.servers.mailhub import MailHub
from repro.servers.nfs import NFSServer
from repro.servers.zephyrd import ZephyrServer
from repro.sim.clock import Clock
from repro.sim.cron import Cron
from repro.sim.faults import FaultInjector
from repro.sim.network import Network
from repro.workload.population import PopulationSpec, load_population

__all__ = ["AthenaDeployment", "DeploymentConfig"]

# DCM cron period: "the distribution ... can occur every 15 minutes"
DCM_CRON_SECONDS = 15 * 60
# cron pacing of the CDC extractor pump (idle ticks are a flag check)
CDC_PUMP_SECONDS = 1

# (service, interval minutes, target file, script path, type)
SERVICE_TABLE = [
    ("HESIOD", 6 * 60, "/tmp/hesiod.out", "/u1/sms/bin/hesiod.sh",
     "REPLICAT"),
    ("NFS", 12 * 60, "/tmp/nfs.out", "/u1/sms/bin/nfs.sh", "UNIQUE"),
    ("MAIL", 24 * 60, "/tmp/mail.out", "/u1/sms/bin/mail.sh", "UNIQUE"),
    ("ZEPHYR", 24 * 60, "/tmp/zephyr.out", "/u1/sms/bin/zephyr.sh",
     "REPLICAT"),
]


@dataclass
class DeploymentConfig:
    """Deployment knobs: population shape and feature toggles."""
    population: PopulationSpec = field(default_factory=PopulationSpec)
    access_cache: bool = True
    push_pool_width: int = 8  # DCM propagation fan-out (1 = sequential)
    legacy_dcm: bool = False  # seed-era pipeline (benchmark baseline)
    server_workers: Optional[int] = None  # None = min(8, cpus); 0 = inline
    # robustness knobs
    faults: Optional[FaultInjector] = None  # shared injection harness
    wal_path: Optional[Union[str, Path]] = None  # fsync'd on-disk journal
    retry_policy: Optional[RetryPolicy] = None  # backoff/breaker/budget
    admission_limit: Optional[int] = None  # queued frames before MR_BUSY
    request_deadline: Optional[float] = None  # seconds in queue before shed
    # replication knobs (0 replicas = the seed single-server shape)
    replicas: int = 0
    replica_workers: int = 0  # worker pool per replica (0 = inline)
    staleness_budget: float = 0.25  # max wait for read-your-writes, s
    replica_tcp: bool = False  # real sockets: feeds + clients dial TCP
    # WAL layout (default = seed: one monolithic file)
    wal_segments: bool = False
    # storage engine (default = the MVCC in-memory engine)
    backend: str = "memory"  # any repro.db.backend registered name
    backend_path: Optional[str] = None  # on-disk store where supported
    # CDC push pipeline (docs/DCM_PIPELINE.md): consume the WAL as a
    # change stream and converge managed hosts per-mutation instead of
    # per-cron-cycle.
    cdc: bool = False
    cdc_source: str = "journal"  # "journal" (in-process) or "replica"


class AthenaDeployment:
    """Everything, wired."""

    def __init__(self, config: Optional[DeploymentConfig] = None):
        self.config = config or DeploymentConfig()
        self.clock = Clock()
        self.faults = self.config.faults
        self.network = Network(seed=self.config.population.seed,
                               faults=self.faults)
        if self.config.backend == "memory":
            self.db = build_database()
        else:
            from repro.db.backend import create_backend
            self.db = create_backend(self.config.backend,
                                     self.config.backend_path)
        self.kdc = KDC(self.clock)
        self.journal = Journal(path=self.config.wal_path,
                               faults=self.faults,
                               rotate_segments=self.config.wal_segments)

        # the synthetic campus
        self.handles = load_population(self.db, self.config.population,
                                       now=self.clock.now())

        # simulated infrastructure hosts + the services living on them
        self.hosts: dict[str, SimulatedHost] = {}
        self.daemons: dict[str, UpdateDaemon] = {}
        self.hesiod: Optional[HesiodServer] = None
        self.mailhub: Optional[MailHub] = None
        self.nfs_servers: dict[str, NFSServer] = {}
        self.zephyr_servers: dict[str, ZephyrServer] = {}
        self._build_hosts()

        # the Moira machinery
        self.admin_list_id = seed_capacls(self.db, now=self.clock.now())
        self.moira_host = self._make_host("MOIRA7.MIT.EDU")
        self.server = MoiraServer(
            self.db, self.clock, self.kdc, journal=self.journal,
            access_cache=AccessCache(enabled=self.config.access_cache),
            workers=self.config.server_workers,
            faults=self.faults,
            admission_limit=self.config.admission_limit,
            request_deadline=self.config.request_deadline)
        self.dcm = DCM(
            self.db, self.clock, network=self.network,
            moira_host=self.moira_host, journal=self.journal,
            zephyr_notify=self._zephyr_notify,
            mail_notify=self._mail_notify,
            push_pool_width=self.config.push_pool_width,
            legacy_pipeline=self.config.legacy_dcm,
            faults=self.faults,
            retry_policy=self.config.retry_policy)
        self.server.dcm_trigger = self.dcm.run_once
        self.server.dcm_stats = self.dcm.dcm_stats_tuples
        self._register_services()
        self._bind_dcm()

        self.cron = Cron(self.clock)
        self.cron.add("dcm", DCM_CRON_SECONDS,
                      lambda when: self.dcm.run_once())

        self.notifications: list[tuple[str, str, str]] = []
        self.mail_sent: list[tuple[str, str]] = []

        # the read-replica tier (an extension; see docs/REPLICATION.md)
        self.replica_cluster = None
        if self.config.replicas > 0:
            from repro.replication.topology import ReplicaCluster
            self.replica_cluster = ReplicaCluster(
                self, self.config.replicas,
                workers=self.config.replica_workers,
                staleness_budget=self.config.staleness_budget,
                faults=self.faults,
                tcp=self.config.replica_tcp)

        # the CDC push pipeline (docs/DCM_PIPELINE.md): WAL-as-change-
        # stream extraction driving sub-second host convergence; the
        # cron DCM above stays intact as the byte-identity oracle
        self.cdc = None
        if self.config.cdc:
            self.cdc = self._build_cdc()

    def _build_cdc(self):
        from repro.dcm.cdc import (
            CdcExtractor,
            JournalChangeSource,
            ReplicaChangeSource,
        )
        if self.config.cdc_source == "replica":
            if self.replica_cluster is None:
                raise ValueError("cdc_source='replica' needs replicas>0")
            replica = self.replica_cluster.replicas[0]
            source = ReplicaChangeSource(replica)
            extract_db = replica.db
        elif self.config.cdc_source == "journal":
            source = JournalChangeSource(self.journal)
            extract_db = None
        else:
            raise ValueError(
                f"unknown cdc_source {self.config.cdc_source!r}")
        cdc = CdcExtractor(
            self.dcm, source, self.clock,
            journal=self.journal, extract_db=extract_db)
        self.server.cdc_stats = cdc.stats_tuples
        # the pump rides cron like the DCM does; has_work keeps idle
        # ticks to a flag check (the commit listener sets the flag)
        self.cron.add(
            "cdc", CDC_PUMP_SECONDS,
            lambda when: cdc.pump(when) if cdc.has_work else None)
        return cdc

    def pump_cdc(self) -> dict:
        """One explicit extractor round (tests; event-driven callers)."""
        if self.cdc is None:
            raise ValueError("deployment has no CDC pipeline (cdc=True)")
        return self.cdc.pump()

    # -- construction helpers --------------------------------------------------

    def _make_host(self, name: str) -> SimulatedHost:
        host = SimulatedHost(name)
        self.hosts[host.name] = host
        self.daemons[host.name] = UpdateDaemon(host, faults=self.faults)
        return host

    def _build_hosts(self) -> None:
        h = self.handles
        hesiod_host = self._make_host(h.hesiod_machine)
        # legacy_dcm reproduces the seed era end to end, including the
        # shlex-based record parser the fast splitter replaced
        self.hesiod = HesiodServer(hesiod_host,
                                   fast_parse=not self.config.legacy_dcm)
        self.hesiod.start()
        self.daemons[hesiod_host.name].register_command(
            "restart_hesiod", self.hesiod.restart)

        mail_host = self._make_host(h.mailhub_machine)
        self.mailhub = MailHub(mail_host)
        self.daemons[mail_host.name].register_command(
            "install_aliases", self.mailhub.install_aliases)

        for name in h.nfs_machines:
            host = self._make_host(name)
            server = NFSServer(host, ["/u1"])
            self.nfs_servers[host.name] = server
            self.daemons[host.name].register_command(
                "apply_nfs_update", server.apply_update)

        for name in h.zephyr_machines:
            host = self._make_host(name)
            server = ZephyrServer(host)
            self.zephyr_servers[host.name] = server
            self.daemons[host.name].register_command(
                "install_zephyr_acls", server.install_acls)

        for name in h.pop_machines:
            self._make_host(name)

    def _register_services(self) -> None:
        servers = self.db.table("servers")
        serverhosts = self.db.table("serverhosts")
        machines = self.db.table("machine")
        now = self.clock.now()
        audit = {"modtime": now, "modby": "root", "modwith": "deploy"}

        service_hosts = {
            "HESIOD": [self.handles.hesiod_machine],
            "NFS": self.handles.nfs_machines,
            "MAIL": [self.handles.mailhub_machine],
            "ZEPHYR": self.handles.zephyr_machines,
        }
        for name, interval, target, script, stype in SERVICE_TABLE:
            # dfcheck starts at deployment time so the first generation
            # happens one full interval from now, not on the first tick
            servers.insert(
                dict(name=name, update_int=interval, target_file=target,
                     script=script, dfgen=0, dfcheck=now, type=stype,
                     enable=1, inprogress=0, harderror=0, errmsg="",
                     acl_type="LIST", acl_id=self.admin_list_id, **audit),
                now=now)
            for machine_name in service_hosts[name]:
                mach = machines.select({"name": machine_name})[0]
                serverhosts.insert(
                    dict(service=name, mach_id=mach["mach_id"], enable=1,
                         override=0, success=0, inprogress=0, hosterror=0,
                         hosterrmsg="", ltt=0, lts=0, value1=0, value2=0,
                         value3="", **audit),
                    now=now)
        # POP serverhosts for pobox placement (value2 = capacity)
        servers.insert(
            dict(name="POP", update_int=0, target_file="", script="",
                 dfgen=0, dfcheck=0, type="REPLICAT", enable=0,
                 inprogress=0, harderror=0, errmsg="", acl_type="LIST",
                 acl_id=self.admin_list_id, **audit), now=now)
        users = self.db.table("users")
        for machine_name in self.handles.pop_machines:
            mach = machines.select({"name": machine_name})[0]
            assigned = users.count({"pop_id": mach["mach_id"],
                                    "potype": "POP"})
            serverhosts.insert(
                dict(service="POP", mach_id=mach["mach_id"], enable=1,
                     override=0, success=0, inprogress=0, hosterror=0,
                     hosterrmsg="", ltt=0, lts=0, value1=assigned,
                     value2=8000, value3="", **audit),
                now=now)

    def _bind_dcm(self) -> None:
        post_commands = {
            "HESIOD": "restart_hesiod",
            "NFS": "apply_nfs_update",
            "MAIL": "install_aliases",
            "ZEPHYR": "install_zephyr_acls",
        }
        service_hosts = {
            "HESIOD": [self.handles.hesiod_machine],
            "NFS": self.handles.nfs_machines,
            "MAIL": [self.handles.mailhub_machine],
            "ZEPHYR": self.handles.zephyr_machines,
        }
        for service, machines in service_hosts.items():
            for machine in machines:
                key = machine.upper()
                self.dcm.bind_host(service, machine, ServiceBinding(
                    host=self.hosts[key], daemon=self.daemons[key],
                    post_command=post_commands[service]))

    # -- notification sinks -------------------------------------------------------

    def _zephyr_notify(self, klass: str, instance: str,
                       message: str) -> None:
        self.notifications.append((klass, instance, message))
        for server in self.zephyr_servers.values():
            if server.host.alive:
                server.send("moira", klass, instance, message,
                            when=self.clock.now())
                break

    def _mail_notify(self, address: str, message: str) -> None:
        self.mail_sent.append((address, message))

    # -- conveniences -----------------------------------------------------------------

    def direct_client(self, caller: str = "root") -> DirectClient:
        """A privileged direct glue-library client."""
        return DirectClient(self.db, self.clock, journal=self.journal,
                            caller=caller)

    def client_for(self, login: str, password: str,
                   client_name: str = "app") -> MoiraClient:
        """An authenticated MoiraClient for *login* (registers the
        Kerberos principal on first use)."""
        if not self.kdc.principal_exists(login):
            self.kdc.add_principal(login, password)
        creds = self.kdc.kinit(login, password)
        client = MoiraClient(dispatcher=self.server, kdc=self.kdc,
                             credentials=creds, clock=self.clock)
        client.connect().auth(client_name)
        return client

    def replica_set_client(self, login: Optional[str] = None,
                           password: str = "pw",
                           client_name: str = "app", *,
                           pooled: bool = False):
        """A :class:`~repro.client.lib.ReplicaSet` router over the
        primary and the configured replica tier."""
        if self.replica_cluster is None:
            raise ValueError("deployment has no replicas configured")
        if login is not None and not self.kdc.principal_exists(login):
            self.kdc.add_principal(login, password)
        return self.replica_cluster.replica_set(login, password,
                                                client_name,
                                                pooled=pooled)

    def make_admin(self, login: str) -> None:
        """Put *login* on the moira-admins capability list."""
        self.direct_client().query("add_member_to_list", "moira-admins",
                                   "USER", login)

    def run_hours(self, hours: float) -> int:
        """Advance simulated time, firing cron (and so the DCM)."""
        return self.cron.run_for(int(hours * 3600))

    def compact_wal(self, *, force: bool = False) -> dict:
        """Compact the journal, bounded by replica applied-seq pins.

        Each replica pins everything past what it has applied, so the
        default compaction only folds records every replica has seen —
        feeds never find a hole.  Registered CDC cursors pin the same
        way (inside ``Journal.compact`` itself).  ``force=True``
        ignores all pins: a replica still below the resulting floor
        detects it on its next pull and resyncs from a snapshot
        (docs/REPLICATION.md); a CDC extractor resets its cursor and
        reconverges every service (docs/DCM_PIPELINE.md).
        """
        from repro.db.recovery import SUPERSEDABLE_QUERIES
        pins = ()
        if self.replica_cluster is not None:
            pins = tuple(r.applied_seq
                         for r in self.replica_cluster.replicas)
        return self.journal.compact(supersedable=SUPERSEDABLE_QUERIES,
                                    pins=pins, force=force)
