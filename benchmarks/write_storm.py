"""A mixed-footprint durable write storm.

N admin clients write as fast as they can for a fixed window, each
rotating through four footprints — ``update_user_shell`` (users),
``add_cluster`` (machines), ``add_zephyr_class`` (zephyr + users) and
``add_machine`` (machines + quota) — against a deployment with an
fsync'd WAL.  The traffic arrives one of two ways:

* ``tcp`` — N TCP connections to one transport, whose one selector
  thread runs every ready request, then syncs once for all of them;
* ``inproc`` — N client threads calling the server in-process, each
  syncing before it takes its reply, so a thread whose write another
  thread's fsync covered skips its own.

The script prints writes per second and, from the server's own
``_wal_stats`` rows, the mean group-commit window (appends per fsync)
and fsyncs per write over the window.

Run with:  PYTHONPATH=src python benchmarks/write_storm.py tcp
           [--clients 8] [--seconds 8] [--seed 1]
"""

import argparse
import tempfile
import threading
import time
from pathlib import Path

PASSWORD = "pw"


def ops(logins, client, seed):
    """The client's endless write plan: four footprints, rotating."""
    n = 0
    while True:
        tag = f"s{seed}c{client}n{n}"
        kind = (n + client) % 4
        if kind == 0:
            login = logins[(client * 997 + n) % len(logins)]
            yield ("update_user_shell", login, f"/bin/{tag}")
        elif kind == 1:
            yield ("add_cluster", f"cl-{tag}", "storm", "nowhere")
        elif kind == 2:
            yield ("add_zephyr_class", f"zc-{tag}", *["NONE"] * 8)
        else:
            yield ("add_machine", f"m-{tag}.mit.edu", "VAX")
        n += 1


def counters(client) -> dict[str, int]:
    """The ``_wal_stats`` integer rows this storm reads."""
    rows = dict(client.query("_wal_stats"))
    return {key: int(rows[key]) for key in (
        "_wal.appends", "_wal.fsyncs", "_batch.batches",
        "_batch.batched_writes")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("tcp", "inproc"))
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    from repro.client import MoiraClient
    from repro.core import AthenaDeployment, DeploymentConfig
    from repro.protocol.transport import TcpServerTransport
    from repro.workload import PopulationSpec

    with tempfile.TemporaryDirectory() as tmp:
        d = AthenaDeployment(DeploymentConfig(
            population=PopulationSpec(), wal_path=Path(tmp) / "wal"))
        logins = d.handles.logins
        transport = (TcpServerTransport(d.server).start()
                     if args.mode == "tcp" else None)
        clients = []
        for i in range(args.clients):
            login = logins[-1 - i]
            d.kdc.add_principal(login, PASSWORD)
            d.make_admin(login)
            where = ({"tcp_address": transport.address[:2]}
                     if transport else {"dispatcher": d.server})
            clients.append(MoiraClient(
                kdc=d.kdc, clock=d.clock,
                credentials=d.kdc.kinit(login, PASSWORD),
                **where).connect().auth("storm"))

        done = [0] * args.clients
        failed = [0] * args.clients
        gate = threading.Barrier(args.clients + 1)
        stop = threading.Event()

        def run(i):
            plan = ops(logins, i, args.seed)
            gate.wait()
            while not stop.is_set():
                try:
                    clients[i].query(*next(plan))
                    done[i] += 1
                except Exception:
                    failed[i] += 1

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(args.clients)]
        for thread in threads:
            thread.start()
        before = counters(clients[0])
        gate.wait()
        start = time.perf_counter()
        time.sleep(args.seconds)
        stop.set()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        after = counters(clients[0])
        delta = {key: after[key] - before[key] for key in after}

        print(f"mode={args.mode} "
              f"clients={args.clients} seed={args.seed} "
              f"writes={sum(done)} failed={sum(failed)} "
              f"writes_per_s={sum(done) / elapsed:.0f} "
              f"mean_window="
              f"{delta['_batch.batched_writes'] / delta['_batch.batches']:.3f} "
              f"fsyncs_per_write="
              f"{delta['_wal.fsyncs'] / delta['_wal.appends']:.3f}")
        for client in clients:
            client.close()
        if transport is not None:
            transport.stop()
        d.server.shutdown()
        d.journal.close()


if __name__ == "__main__":
    main()
