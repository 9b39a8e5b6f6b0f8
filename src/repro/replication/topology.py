"""Replica topologies for tests and benchmarks: in-process or real TCP.

A :class:`ReplicaCluster` stands up N :class:`ReplicaServer`\\ s whose
feeds pull from a deployment's primary.  Two transports:

* **in-process** (default) — feeds are in-process protocol connections:
  the same frames a TCP feed would carry, without the sockets.  Fast,
  deterministic, what most tests want.
* **TCP** (``tcp=True``) — the primary and every replica get a real
  :class:`~repro.protocol.transport.TcpServerTransport` on an ephemeral
  port; feeds and router clients dial actual sockets.  This is the
  failover/chaos shape: killing a node is ``transport.stop()``, and a
  partition is a connection that really breaks mid-frame.

Whenever the deployment has a KDC, feed connections authenticate as the
``repl`` service principal (kinit'd from its srvtab) — the primary
refuses snapshot/tail pulls from anyone else with ``MR_PERM``.

The cluster also builds :class:`~repro.client.lib.ReplicaSet` routers
wired to the primary plus every replica, and a
:class:`~repro.replication.failover.FailoverCoordinator` over the whole
topology.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.client.lib import MoiraClient, ReplicaSet
from repro.protocol.transport import (
    TcpServerTransport,
    connect_inproc,
    connect_tcp,
)
from repro.replication.feed import REPL_SERVICE_PRINCIPAL
from repro.replication.replica import ReplicaServer
from repro.sim.faults import FaultInjector

__all__ = ["ReplicaCluster"]


class ReplicaCluster:
    """N read replicas fed from one deployment's primary."""

    def __init__(
        self,
        deployment,
        count: int,
        *,
        staleness_budget: float = 0.25,
        faults: Optional[FaultInjector] = None,
        sync: bool = True,
        tcp: bool = False,
    ):
        self.deployment = deployment
        self.tcp = tcp
        d = deployment
        self.primary_transport: Optional[TcpServerTransport] = None
        self.replica_transports: list[TcpServerTransport] = []
        if tcp:
            self.primary_transport = TcpServerTransport(
                d.server, port=0).start()

        self.replicas = [
            ReplicaServer(
                d.clock,
                feed_factory=self._primary_feed_factory(f"replica{i}"),
                kdc=d.kdc,
                name=f"replica{i}",
                staleness_budget=staleness_budget,
                faults=faults,
                feed_credentials=self.feed_credentials(),
            )
            for i in range(count)
        ]
        if tcp:
            self.replica_transports = [
                TcpServerTransport(r.server, port=0).start()
                for r in self.replicas
            ]
        self._register_endpoints()
        if sync:
            self.sync_all()

    # -- wiring --------------------------------------------------------------

    def feed_credentials(self):
        """A fresh ``repl`` credential cache, or None without a KDC.

        Fresh per call: each replica (and each healed node) carries its
        own cache, as a real srvtab-booted daemon would.
        """
        kdc = self.deployment.kdc
        if kdc is None:
            return None
        return kdc.kinit_keytab(REPL_SERVICE_PRINCIPAL,
                                kdc.srvtab(REPL_SERVICE_PRINCIPAL))

    def _primary_feed_factory(self, peer: str):
        """A zero-arg factory for feed connections to the primary."""
        if self.tcp:
            transport = self.primary_transport
            return lambda: connect_tcp(*transport.address)
        d = self.deployment
        return lambda: connect_inproc(d.server, peer=f"{peer}-feed")

    def feed_factory_for(self, replica: Union[int, ReplicaServer]):
        """A zero-arg feed-connection factory targeting *replica* —
        what :meth:`FailoverCoordinator.promote` re-points survivors
        with after that replica becomes the primary."""
        if isinstance(replica, int):
            replica = self.replicas[replica]
        if self.tcp:
            transport = self.replica_transports[
                self.replicas.index(replica)]
            return lambda: connect_tcp(*transport.address)
        server = replica.server
        return lambda: connect_inproc(server, peer="retargeted-feed")

    def _address_of(self, node: str) -> str:
        if not self.tcp:
            return "inproc"
        if node == "primary":
            host, port = self.primary_transport.address
        else:
            idx = next(i for i, r in enumerate(self.replicas)
                       if r.name == node)
            host, port = self.replica_transports[idx].address
        return f"{host}:{port}"

    def _register_endpoints(self) -> None:
        """Seed every node's endpoint-role map (`_repl_status` rows)."""
        entries = {"primary": (self._address_of("primary"), "primary")}
        for replica in self.replicas:
            entries[replica.name] = (self._address_of(replica.name),
                                     "replica")
        self.deployment.server.repl_endpoints = dict(entries)
        for replica in self.replicas:
            replica.server.repl_endpoints = dict(entries)

    def coordinator(self, *, faults: Optional[FaultInjector] = None):
        """A :class:`FailoverCoordinator` over this topology."""
        from repro.replication.failover import FailoverCoordinator
        d = self.deployment
        return FailoverCoordinator(
            d.server, self.replicas,
            primary_wal=d.config.wal_path,
            faults=faults)

    # -- lifecycle -----------------------------------------------------------

    def sync_all(self) -> None:
        """Pull every replica up to the primary's current watermark."""
        for replica in self.replicas:
            replica.step()

    def start(self, interval: Optional[float] = None) -> "ReplicaCluster":
        """Start every replica's pump thread."""
        for replica in self.replicas:
            replica.start(interval)
        return self

    def stop(self) -> None:
        for replica in self.replicas:
            replica.stop()
        for transport in self.replica_transports:
            transport.stop()
        if self.primary_transport is not None:
            self.primary_transport.stop()

    # -- clients -------------------------------------------------------------

    def replica_set(
        self,
        login: Optional[str] = None,
        password: str = "pw",
        client_name: str = "app",
        *,
        retry_policy=None,
        seed: int = 0,
    ) -> ReplicaSet:
        """A router over the primary and every replica.

        With *login* every connection authenticates (replicas run the
        same access checks as the primary, against their own copy of
        the ACL tables); without it, connections stay unauthenticated —
        §5.6.2's cheap read path for public retrievals.
        """
        d = self.deployment
        if login is not None and not d.kdc.principal_exists(login):
            d.kdc.add_principal(login, password)

        def connect(node: str, busy_retries: int = 3,
                    authenticate: bool = True) -> MoiraClient:
            creds = None
            if authenticate and login is not None:
                creds = d.kdc.kinit(login, password)
            if self.tcp:
                if node == "primary":
                    address = self.primary_transport.address
                else:
                    idx = next(i for i, r in enumerate(self.replicas)
                               if r.name == node)
                    address = self.replica_transports[idx].address
                client = MoiraClient(tcp_address=address, kdc=d.kdc,
                                     credentials=creds, clock=d.clock,
                                     busy_retries=busy_retries)
            else:
                dispatcher = (d.server if node == "primary" else
                              next(r.server for r in self.replicas
                                   if r.name == node))
                client = MoiraClient(dispatcher=dispatcher, kdc=d.kdc,
                                     credentials=creds, clock=d.clock,
                                     busy_retries=busy_retries)
            client.connect()
            if creds is not None:
                client.auth(client_name)
            return client

        primary = connect("primary")
        # replicas answer MR_BUSY when behind the session token; the
        # router (not the transport-level retry) owns that fallback
        replicas = [connect(r.name, busy_retries=0)
                    for r in self.replicas]
        return ReplicaSet(primary, replicas, retry_policy=retry_policy,
                          seed=seed)
