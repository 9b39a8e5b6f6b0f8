"""Concurrency may not change a single reply byte.

N client threads drive their own connections through ``submit_frame``
on the default worker pool; the same plans then run one connection
after another through ``handle_frame`` on an inline server over an
identically built world.  Every connection's reply stream must hash
the same both ways — content and per-connection order are the
contract, whatever the interleaving.  (This is the oracle the
withdrawn E10 / E14 speed benchmarks carried; no timing is asserted.)

The last test is E13's: rows served by pooled replicas are the rows
the primary serves.
"""

from __future__ import annotations

import hashlib
import threading

import pytest

from repro.client.lib import MoiraClient
from repro.core import AthenaDeployment, DeploymentConfig
from repro.protocol.wire import MajorRequest, encode_request
from repro.workload import PopulationSpec

CLIENTS = 6
REQUESTS = 20
MACHINES = 16
SMALL = dict(users=30, unregistered_users=0, nfs_servers=2, maillists=4,
             clusters=1, machines_per_cluster=2, printers=2,
             network_services=4)

MIXES = {"read_only": 0.0, "mixed_90_10": 0.1, "write_heavy": 0.8}


def build_world(**config) -> AthenaDeployment:
    d = AthenaDeployment(DeploymentConfig(
        population=PopulationSpec(**SMALL), **config))
    direct = d.direct_client()
    for k in range(MACHINES):
        direct.query("add_machine", f"SEED{k}.MIT.EDU", "VAX")
    return d


def plan(d: AthenaDeployment, client: int, write_frac: float) -> list:
    """One connection's frames.  Reads hit pre-seeded rows by exact
    name and writes touch client-private targets on two writer shards,
    so the connection's replies do not depend on what the others do."""
    login = d.handles.logins[client]
    frames = []
    for j in range(REQUESTS):
        write = int(j * write_frac) != int((j + 1) * write_frac)
        if write and j % 2:
            query = ["update_user_shell", login, f"/bin/sh{j}"]
        elif write:
            query = ["add_machine", f"C{client}X{j}.MIT.EDU", "VAX"]
        elif j % 2:
            query = ["get_user_by_login", d.handles.logins[-1 - client]]
        else:
            query = ["get_machine",
                     f"SEED{(client * 7 + j * 3) % MACHINES}.MIT.EDU"]
        frames.append(encode_request(MajorRequest.QUERY, query)[4:])
    return frames


def connect(d: AthenaDeployment) -> list[int]:
    admin = d.handles.logins[0]
    d.make_admin(admin)
    conn_ids = []
    for i in range(CLIENTS):
        conn_id = d.server.open_connection(f"stream-{i}")
        d.server._connections[conn_id].principal = admin
        conn_ids.append(conn_id)
    return conn_ids


def run_clients(client) -> None:
    """``client(i)`` on CLIENTS threads, released together; any
    exception or a thread still running after the join fails."""
    errors: list[BaseException] = []
    gate = threading.Barrier(CLIENTS)

    def guarded(i: int) -> None:
        try:
            gate.wait(timeout=30)
            client(i)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,))
               for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not [t for t in threads if t.is_alive()] and not errors, \
        errors[:3]


def serial_digests(write_frac: float) -> list[str]:
    d = build_world(server_workers=0)
    digests = []
    for i, conn_id in enumerate(connect(d)):
        digest = hashlib.sha256()
        for body in plan(d, i, write_frac):
            for reply in d.server.handle_frame(conn_id, body):
                digest.update(reply)
        digests.append(digest.hexdigest())
    return digests


def pooled_digests(write_frac: float) -> list[str]:
    d = build_world()       # the default worker pool
    conn_ids = connect(d)
    digests = [hashlib.sha256() for _ in range(CLIENTS)]

    def client(i: int) -> None:
        for body in plan(d, i, write_frac):
            done = threading.Event()
            d.server.submit_frame(
                conn_ids[i], body,
                lambda reply: (digests[i].update(reply), True)[1],
                done.set)
            assert done.wait(timeout=60), f"client {i} stalled"

    try:
        run_clients(client)
    finally:
        d.server.shutdown()
    return [digest.hexdigest() for digest in digests]


@pytest.mark.parametrize("mix", MIXES)
def test_pooled_reply_streams_match_the_serial_run(mix):
    assert pooled_digests(MIXES[mix]) == serial_digests(MIXES[mix])


def test_pooled_replicas_serve_the_primarys_rows():
    d = build_world(server_workers=2, replicas=2, replica_workers=2)
    d.replica_cluster.sync_all()
    names = [f"SEED{k}.MIT.EDU" for k in range(MACHINES)]
    primary = MoiraClient(dispatcher=d.server).connect()
    expected = {name: primary.query("get_machine", name)
                for name in names}
    primary.close()
    routers = [d.replica_cluster.replica_set(pooled=True, seed=i)
               for i in range(CLIENTS)]

    def client(i: int) -> None:
        for j in range(REQUESTS):
            name = names[(i * 7 + j * 3) % MACHINES]
            assert routers[i].query("get_machine", name) == \
                expected[name]

    try:
        run_clients(client)
        assert sum(router.stats()["reads_replica"]
                   for router in routers) == CLIENTS * REQUESTS
    finally:
        for router in routers:
            router.close()
        d.replica_cluster.stop()
        d.server.shutdown()
