"""The perf harness's regression gates, one table.

Each gate reads one figure out of a ``perf.run --smoke`` document,
prints it, and fails the run when it is above its ceiling.

Run with:  python -m perf.run --smoke --trace 0 > smoke.json
           python -m perf.run --smoke --trace 1 > traced.json
           python benchmarks/perf_gates.py smoke.json traced.json
"""

import json
import sys


def named(name):
    """An end-to-end figure the workload names."""
    return lambda workload: workload["end_to_end"]["named"][name]


def layer(name):
    """A per-layer figure of the traced run."""
    return lambda workload: workload["per_layer"]["layers"][name]


def framing(workload):
    """(transport + handle_frame self) / execute self."""
    layers = workload["per_layer"]["layers"]
    return (layers["protocol.transport_self_us"]
            + layers["server.handle_frame_self_us"]) / layers[
                "queries.execute_self_us"]


def access_share(workload):
    """access check / execute self."""
    layers = workload["per_layer"]["layers"]
    return layers["server.access.check_us"] / layers[
        "queries.execute_self_us"]


#: (document, workload, figure, reading, ceiling, what a failure means)
GATES = (
    # A reply written in pieces on a Nagle socket stalls ~40 ms for the
    # client's delayed ACK; perf counts ops over 20 ms.
    ("smoke", "point_read_tcp", "tcp_stall_ratio",
     named("tcp_stall_ratio"), 0.02, "stalls on the wire"),
    ("smoke", "selfservice_sessions_tcp", "tcp_stall_ratio",
     named("tcp_stall_ratio"), 0.02, "stalls on the wire"),
    # Whole-file pushes measured 28,672 B per mutation here at smoke
    # size; line deltas ~2,100.  A tenth of the whole-file figure
    # catches a silent fallback to shipping whole files.
    ("traced", "propagate_cdc", "bytes_pushed_per_mutation",
     layer("dcm.bytes_pushed_per_mutation"), 2867,
     "pushes whole files again"),
    # An fsync per write measured 1.00 here at smoke size; one per
    # extraction round or cron cycle 0.26, and 0.45 once a round
    # journals one outcome write per service (fewer writes, same
    # fsyncs).  0.7 catches a silent return to fsyncing every service
    # and host flag write.
    ("traced", "propagate_cdc", "db.journal.fsyncs_per_write",
     layer("db.journal.fsyncs_per_write"), 0.7,
     "fsyncs every bookkeeping write again"),
    # Framing every reply and parsing it back in the same process read
    # (transport + handle_frame self) / execute self = 1.7-3.2 here at
    # smoke size; handing the rows over as text, 0.96-1.22.  A ratio of
    # self times keeps host speed out of the check.
    ("traced", "scan_read_inproc", "(transport + handle_frame) / execute",
     framing, 1.5, "frames its replies in process again"),
    # An access cache keyed on (principal, query, args) hit one check
    # in six over the 500 logins and read check / execute = 54.3 / 25.8
    # = 2.1 here at smoke size; keeping a capability grant per
    # (principal, query), 3.2 / 32 = 0.1.  Another ratio of layer
    # times, so host speed stays out of the check.
    ("traced", "point_read_tcp", "access check / execute",
     access_share, 1.0, "pays a full access check per read again"),
    # Holding each row twice, as the writer's dict and as the head
    # version's frozen copy, read 14,022 B of traced heap per user here
    # at smoke size; one dict per row state (copy on write) and a slot
    # list of open entries per record, 10,144 B.  A ceiling between
    # the two catches a silent return to copying each row.
    ("traced", "point_read_tcp", "db.bytes_per_user",
     layer("db.bytes_per_user"), 12000, "holds each row twice again"),
    # An entry per structure for every record (scan list, each index,
    # each composite), a slot list per record and a list per bucket
    # read 10,144 B per user here at smoke size; one entry per record
    # shared by every structure until a key moves, and a bucket of one
    # held as the entry itself, 6,063 B.  Between the two.
    ("traced", "point_read_tcp", "db.bytes_per_user",
     layer("db.bytes_per_user"), 8000,
     "keeps an entry per structure again"),
)


def load(path):
    """A perf document; its last line is the contract, not JSON."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    return json.loads("\n".join(lines[:-1]))


def main(smoke_path, traced_path):
    documents = {"smoke": load(smoke_path), "traced": load(traced_path)}
    failed = []
    for document, name, figure, reading, ceiling, meaning in GATES:
        value = reading(documents[document]["workloads"][name])
        verdict = "ok" if value <= ceiling else "FAIL"
        print(f"{name}: {figure} {value:.4g} (ceiling {ceiling}) {verdict}")
        if value > ceiling:
            failed.append(f"{name} {meaning}")
    if failed:
        sys.exit("; ".join(failed))


if __name__ == "__main__":
    main(*sys.argv[1:])
