"""The failover story over real sockets.

Three layers, bottom up:

* **Transport lifecycle** — ephemeral binds whose port is readable from
  construction, idempotent ``stop()``, and a hard no-restart contract:
  exactly what chaos teardown paths lean on.
* **Torn TCP frames** — a cutting proxy severs the feed connection
  mid-``_repl_tail`` reply stream.  The pull fails, the replica applies
  *nothing* (the feed is collected before apply, so a torn stream is
  atomic), and a retarget past the fault catches all the way up —
  parametrized over the memory and sqlite storage backends, because
  feed serialization must not care what the primary stores rows in.
* **TCP topology** — a deployment with ``replica_tcp=True``: router
  reads/writes over sockets, feed auth enforced on the wire
  (``MR_PERM`` to anyone but the ``repl`` principal), and a full
  kill → promote → re-route cycle where "kill" is ``transport.stop()``.
"""

from __future__ import annotations

import socket
import threading
from types import SimpleNamespace

import pytest

from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.backend import create_backend
from repro.db.backup import mrbackup
from repro.db.journal import Journal
from repro.errors import MoiraError, MR_PERM
from repro.kerberos.kdc import KDC
from repro.protocol.transport import TcpServerTransport, connect_tcp
from repro.protocol.wire import MajorRequest
from repro.queries.base import QueryContext, execute_query
from repro.replication.feed import REPL_SERVICE_PRINCIPAL
from repro.replication.replica import ReplicaServer
from repro.server import MoiraServer, seed_capacls
from repro.sim.clock import DEFAULT_EPOCH, Clock
from repro.sim.faults import FaultInjector
from repro.workload import PopulationSpec

BASE = DEFAULT_EPOCH + 3000

SMALL = dict(users=10, unregistered_users=2, nfs_servers=2, maillists=3,
             clusters=2, machines_per_cluster=2, printers=2,
             network_services=3)


# -- plumbing ------------------------------------------------------------------


class _NullDispatcher:
    """The least dispatcher a transport will accept."""

    def open_connection(self, peer):
        return 1

    def handle_frame_stream(self, conn_id, frame):
        return iter(())

    def sync(self):
        pass

    def close_connection(self, conn_id):
        pass


class _CuttingProxy:
    """A TCP proxy that tears the feed mid-frame.

    Forwards both directions byte-for-byte, metering server→client
    traffic; once *budget* metered bytes have flowed, the connection is
    torn down on the spot — the client sees a reply stream that stops
    partway through a frame.  ``budget=None`` never cuts (a pure
    byte-counter, used to size the torn run).
    """

    def __init__(self, target, budget=None):
        self.target = target
        self.budget = budget
        self.server_bytes = 0
        self.cuts = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = self._listener.getsockname()
        self._stopped = False
        self._lock = threading.Lock()
        self._socks: list[socket.socket] = []
        self._accepter = threading.Thread(target=self._accept_loop,
                                          daemon=True)
        self._accepter.start()

    def _accept_loop(self):
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            try:
                upstream = socket.create_connection(self.target, timeout=5)
            except OSError:
                client.close()
                continue
            with self._lock:
                self._socks += [client, upstream]
            threading.Thread(target=self._pump, args=(client, upstream, False),
                             daemon=True).start()
            threading.Thread(target=self._pump, args=(upstream, client, True),
                             daemon=True).start()

    def _pump(self, src, dst, metered):
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    break
                if metered and self.budget is not None:
                    room = self.budget - self.server_bytes
                    if len(data) >= room:
                        chunk = data[:max(0, room)]
                        if chunk:
                            dst.sendall(chunk)
                            self.server_bytes += len(chunk)
                        self.cuts += 1
                        break
                if metered:
                    self.server_bytes += len(data)
                dst.sendall(data)
        except OSError:
            pass
        finally:
            for sock in (src, dst):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    def stop(self):
        if self._stopped:
            return
        self._stopped = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            socks = list(self._socks)
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass


def repl_creds(kdc):
    return kdc.kinit_keytab(REPL_SERVICE_PRINCIPAL,
                            kdc.srvtab(REPL_SERVICE_PRINCIPAL))


def dump(db, directory):
    mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def tcp_world(backend_name, tmp_path):
    """A TCP-served primary on the chosen storage backend."""
    if backend_name == "sqlite":
        db = create_backend("sqlite", str(tmp_path / "primary.sqlite"))
    else:
        db = create_backend(backend_name)
    clock = Clock()
    clock.set(BASE)
    seed_capacls(db)
    ctx = QueryContext(db=db, clock=clock, caller="root", client="seed",
                       privileged=True)
    execute_query(ctx, "add_user",
                  ["tft", "7777", "/bin/csh", "Torn", "Frame", "", "1",
                   "mitt", "1990"])
    execute_query(ctx, "add_member_to_list", ["moira-admins", "USER", "tft"])
    kdc = KDC(clock)
    kdc.add_principal("tft", "pw")
    server = MoiraServer(db, clock, kdc, journal=Journal())
    transport = TcpServerTransport(server, port=0).start()
    return SimpleNamespace(db=db, clock=clock, kdc=kdc, server=server,
                           transport=transport)


def tcp_replica(world, name):
    transport = world.transport
    return ReplicaServer(
        world.clock,
        feed_factory=lambda: connect_tcp(*transport.address),
        kdc=world.kdc, name=name,
        feed_credentials=repl_creds(world.kdc))


def admin_client(world):
    from repro.client.lib import MoiraClient
    client = MoiraClient(tcp_address=world.transport.address,
                         kdc=world.kdc,
                         credentials=world.kdc.kinit("tft", "pw"),
                         clock=world.clock)
    client.connect().auth("test")
    return client


# -- transport lifecycle -------------------------------------------------------


class TestTransportLifecycle:
    def test_ephemeral_port_is_readable_before_start(self):
        transport = TcpServerTransport(_NullDispatcher(), port=0)
        try:
            assert transport.port > 0
            assert transport.port == transport.address[1]
        finally:
            transport.stop()

    def test_stop_is_idempotent_and_joins_the_thread(self):
        transport = TcpServerTransport(_NullDispatcher(), port=0).start()
        assert transport._thread is not None
        transport.stop()
        assert transport._thread is None
        transport.stop()    # second (and third) call: no-op, no EBADF
        transport.stop()

    def test_double_start_reuses_the_serve_thread(self):
        transport = TcpServerTransport(_NullDispatcher(), port=0)
        try:
            first = transport.start()._thread
            assert transport.start()._thread is first
        finally:
            transport.stop()

    def test_start_after_stop_raises(self):
        transport = TcpServerTransport(_NullDispatcher(), port=0)
        transport.stop()
        with pytest.raises(RuntimeError):
            transport.start()


# -- torn TCP frames mid-tail --------------------------------------------------


class TestTornTcpFrames:
    """A feed pull whose reply stream tears mid-frame applies nothing."""

    N = 6

    @pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
    @pytest.mark.parametrize("fraction", [0.35, 0.75])
    def test_torn_tail_is_atomic_then_recoverable(self, backend_name,
                                                  fraction, tmp_path):
        world = tcp_world(backend_name, tmp_path)
        proxies = []
        try:
            victim = tcp_replica(world, "victim")
            sizer = tcp_replica(world, "sizer")
            victim.sync_snapshot()
            sizer.sync_snapshot()

            client = admin_client(world)
            for i in range(1, self.N + 1):
                world.clock.set(BASE + 100 + i)
                client.query("add_machine",
                             f"TORNFRAME{i}.MIT.EDU", "VAX")
            client.close()

            # size the stream: one full pull through a counting proxy
            meter = _CuttingProxy(world.transport.address)
            proxies.append(meter)
            sizer.retarget(lambda: connect_tcp(*meter.address),
                           credentials=repl_creds(world.kdc))
            sizer.step()
            assert sizer.applied_seq == self.N
            assert meter.server_bytes > 0

            # the torn run: cut mid-stream at *fraction* of those bytes
            budget = max(1, int(meter.server_bytes * fraction))
            cutter = _CuttingProxy(world.transport.address, budget=budget)
            proxies.append(cutter)
            victim.retarget(lambda: connect_tcp(*cutter.address),
                            credentials=repl_creds(world.kdc))
            with pytest.raises((MoiraError, OSError)):
                victim.step()
            assert cutter.cuts == 1
            # atomicity: the torn stream applied nothing at all
            assert victim.applied_seq == 0

            # retarget past the fault: full catch-up, byte-identical
            victim.retarget(
                lambda: connect_tcp(*world.transport.address),
                credentials=repl_creds(world.kdc))
            victim.step()
            assert victim.applied_seq == self.N
            assert dump(victim.db, tmp_path / "replica") == \
                dump(world.db, tmp_path / "primary")
        finally:
            for proxy in proxies:
                proxy.stop()
            world.transport.stop()
            close = getattr(world.db, "close", None)
            if callable(close):
                close()


# -- the TCP topology ----------------------------------------------------------


class TestTcpTopology:
    @pytest.fixture()
    def world(self):
        d = AthenaDeployment(DeploymentConfig(
            population=PopulationSpec(**SMALL),
            replicas=2,
            staleness_budget=0.05, replica_tcp=True,
            faults=FaultInjector()))
        yield d
        d.replica_cluster.stop()
        d.server.shutdown()

    def test_router_reads_and_writes_flow_over_sockets(self, world):
        cluster = world.replica_cluster
        assert cluster.primary_transport is not None
        assert len(cluster.replica_transports) == 2
        admin = world.handles.logins[0]
        world.make_admin(admin)
        rs = world.replica_set_client(admin)
        rs.query("add_machine", "TCPRTR.MIT.EDU", "VAX")
        for _ in range(4):
            rows = rs.query("get_machine", "TCPRTR.MIT.EDU")
            assert rows[0][0] == "TCPRTR.MIT.EDU"
        stats = rs.stats()
        assert stats["writes"] == 1
        assert stats["reads_replica"] == 4
        rs.close()

    def test_feed_auth_is_enforced_on_the_wire(self, world):
        address = world.replica_cluster.primary_transport.address
        conn = connect_tcp(*address)
        try:
            # status probe stays open (how routers find the primary)...
            replies = conn.call(MajorRequest.QUERY, ["_repl_status"])
            assert replies[-1].code == 0
            # ...but snapshot/tail pulls demand the repl principal
            for query in (["_repl_tail", "0"], ["_repl_snapshot"]):
                replies = conn.call(MajorRequest.QUERY, query)
                assert replies[-1].code == MR_PERM
        finally:
            conn.close()

    def test_kill_promote_reroute_over_tcp(self, world):
        """The E17 shape: transport.stop() is the kill, the coordinator
        fences + promotes, and the router re-routes the retried write."""
        cluster = world.replica_cluster
        admin = world.handles.logins[0]
        world.make_admin(admin)
        rs = world.replica_set_client(admin)
        rs.query("add_machine", "PREKILL.MIT.EDU", "VAX")
        cluster.sync_all()

        cluster.primary_transport.stop()    # the kill

        coordinator = cluster.coordinator()
        candidate = cluster.replicas[0]
        record = coordinator.promote(
            candidate,
            feed_factory=cluster.feed_factory_for(candidate),
            credentials=cluster.feed_credentials(),
            catch_up_feed=False)
        assert record.epoch == 2
        assert candidate.role == "primary"

        # the write that hits the dead address fails (the router cannot
        # prove it never committed), but the failover re-points the
        # primary slot so the client's retry lands on the new primary
        with pytest.raises(MoiraError):
            rs.query("add_machine", "POSTKILL.MIT.EDU", "VAX")
        assert rs.stats()["failovers"] == 1
        rs.query("add_machine", "POSTKILL.MIT.EDU", "VAX")

        # zero loss + read-your-writes on the survivor tier
        for name in ("PREKILL.MIT.EDU", "POSTKILL.MIT.EDU"):
            rows = rs.query("get_machine", name)
            assert rows[0][0] == name
        survivor = cluster.replicas[1]
        assert survivor.epoch == record.epoch
        rs.close()
