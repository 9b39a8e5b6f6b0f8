"""The names every later change is judged with.

``BENCHMARK.json`` at the repo root is the driver-facing copy of
``WORKLOADS``, ``END_TO_END`` and ``PER_LAYER`` (the harness test checks
the two agree).  ``PER_LAYER`` also records, per metric, the end-to-end
metric it should move and on which workload — the contract's schema has
no field for that, so it lives here and in perf/README.md.
"""

from __future__ import annotations

import re

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "NAMED", "NAME_RE",
           "benchmark_json", "RUN_SECONDS", "COMMAND"]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_SECONDS = 8
COMMAND = ["python3", "perf/run.py"]

WORKLOADS = [
    ("point_read_tcp",
     "one-tuple admin reads over 2 TCP connections, keys uniform over 10k "
     "logins (past the 4,096-entry AccessCache): protocol+server do the "
     "work, db almost none"),
    ("scan_read_inproc",
     "large-result and closure reads over 2 inline clients: db scans, "
     "MVCC chains and reply encoding dominate, sockets do nothing"),
    ("write_durable_tcp",
     "durable writes over 2 TCP connections then a restart from "
     "checkpoint+WAL: shard lock, group commit, WAL fsync, replay and "
     "mrrestore"),
    ("selfservice_sessions_tcp",
     "non-admin sessions (Zipf over 2,000 principals): kinit, connect, "
     "auth, 18 reads about self, 2 writes; reads beside writes, access "
     "relaxations, cache invalidation"),
    ("propagate_cdc",
     "mutate -> pump_cdc -> marker on every bound host: dcm, hosts and "
     "servers do all the work, server and protocol none"),
]

# (name, unit, better, bound).  Every workload reports every one of
# these, and each must hold still from run to run on every workload, so
# they are the three numbers that neither the host's drifting speed nor
# the two regimes of the TCP read path can move (perf/README.md, "Why
# three").  Throughput and latency are in NAMED.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("cpu_us_per_op", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

# Client-observed numbers (the issue's names, and the wall-clock ones
# every workload has).  They are taken with tracing off, printed by
# every run, and exported to the driver as ``client.<name>`` per-layer
# metrics: reported, compared by perf.repeat, not bounded.
NAMED = [
    ("ops_per_s", "1/s", "higher"),
    ("lat_p90_us", "us", "lower"),
    ("fail_ratio", "ratio", "lower"),
    ("cpu_raw_us_per_op", "us", "lower"),
    ("setup_raw_s", "s", "lower"),
    ("read_p50_us", "us", "lower"),
    ("read_p99_us", "us", "lower"),
    ("write_p50_us", "us", "lower"),
    ("write_p99_us", "us", "lower"),
    ("rows_per_s", "1/s", "higher"),
    ("session_p50_ms", "ms", "lower"),
    ("session_p90_ms", "ms", "lower"),
    ("freshness_p50_ms", "ms", "lower"),
    ("freshness_p90_ms", "ms", "lower"),
    ("full_cycle_s", "s", "lower"),
    ("recover_s", "s", "lower"),
    ("restore_s", "s", "lower"),
    ("replay_us_per_write", "us", "lower"),
]

_P = "point_read_tcp"
_S = "scan_read_inproc"
_W = "write_durable_tcp"
_U = "selfservice_sessions_tcp"
_C = "propagate_cdc"

# (name, unit, better, moves): *moves* = the end-to-end or client.*
# metric this layer metric should move, and where.
PER_LAYER = [
    ("protocol.encode_request_us", "us", "lower",
     f"client.ops_per_s, client.read_p50_us on {_P}"),
    ("protocol.decode_request_us", "us", "lower",
     f"client.ops_per_s, client.read_p50_us on {_P}"),
    ("protocol.encode_reply_us_per_tuple", "us", "lower",
     f"cpu_us_per_op, client.rows_per_s on {_S}"),
    ("protocol.decode_reply_us_per_tuple", "us", "lower",
     f"cpu_us_per_op, client.rows_per_s on {_S}"),
    ("protocol.tcp_noop_rtt_us", "us", "lower",
     f"client.lat_p90_us, client.ops_per_s on {_P}; no change on {_C}"),
    ("protocol.inproc_noop_us", "us", "lower",
     f"cpu_us_per_op, client.ops_per_s on {_S}"),
    ("protocol.transport_self_us", "us", "lower",
     f"client.lat_p90_us, client.ops_per_s on {_P}"),
    ("protocol.tcp_stall_ratio", "ratio", "lower",
     f"client.lat_p90_us, client.ops_per_s on {_P} and {_U}"),
    ("client.self_us", "us", "lower", f"client.read_p50_us on {_P}"),
    ("kerberos.kinit_us", "us", "lower",
     f"client.session_p50_ms on {_U} only"),
    ("kerberos.auth_us", "us", "lower",
     f"client.session_p50_ms on {_U} only"),
    ("kerberos.connect_auth_us", "us", "lower",
     f"client.session_p50_ms on {_U} only"),
    ("server.handle_frame_self_us", "us", "lower",
     f"cpu_us_per_op, client.read_p50_us on {_P}"),
    ("server.queue_wait_us", "us", "lower",
     f"client.read_p50_us on {_P}"),
    ("server.access.check_us", "us", "lower",
     f"client.read_p50_us on {_U}"),
    ("server.access.hit_ratio", "ratio", "higher",
     f"client.read_p50_us on {_U} (about 0 on {_P} by construction)"),
    ("server.write_batch.mean_window", "count", "higher",
     f"client.write_p50_us, client.write_p99_us on {_W}"),
    ("server.shard_wait_p50_us", "us", "lower",
     f"client.write_p50_us, client.write_p99_us on {_W}"),
    ("queries.execute_self_us", "us", "lower",
     f"cpu_us_per_op, client.read_p50_us on {_P}"),
    ("queries.closure_us", "us", "lower",
     f"cpu_us_per_op, client.ops_per_s on {_S}"),
    ("db.pin_us", "us", "lower", f"cpu_us_per_op on {_P}"),
    ("db.select_us_per_row", "us", "lower",
     f"cpu_us_per_op, client.rows_per_s on {_S}"),
    ("db.rows_scanned_per_row_returned", "ratio", "lower",
     f"cpu_us_per_op, client.rows_per_s on {_S}"),
    ("db.versions_created_per_write", "count", "lower",
     f"client.lat_p90_us on {_U}; peak_rss_mb on {_W}"),
    ("db.gc_runs", "count", "lower",
     f"client.read_p99_us, client.write_p99_us on {_U}"),
    ("db.gc_us", "us", "lower",
     f"client.read_p99_us, client.write_p99_us on {_U}"),
    ("db.bytes_per_user", "B", "lower",
     "peak_rss_mb, setup_s everywhere"),
    ("db.journal.record_us", "us", "lower",
     f"cpu_us_per_op, client.write_p50_us on {_W}"),
    ("db.journal.sync_us", "us", "lower",
     f"client.write_p50_us on {_W}"),
    ("db.journal.fsyncs_per_write", "ratio", "lower",
     f"client.write_p50_us, client.ops_per_s on {_W}"),
    ("db.journal.wal_bytes_per_write", "B", "lower",
     f"client.replay_us_per_write on {_W}"),
    ("db.recovery.replay_self_us_per_entry", "us", "lower",
     f"client.replay_us_per_write on {_W}"),
    ("db.backup.mrrestore_us_per_row", "us", "lower",
     f"client.restore_s on {_W}"),
    ("db.backup.mrbackup_s", "s", "lower", f"setup_s on {_W}"),
    ("dcm.cdc.pump_self_us", "us", "lower",
     f"client.freshness_p50_ms on {_C} only"),
    ("dcm.converge_us.HESIOD", "us", "lower",
     f"client.freshness_p50_ms on {_C} only"),
    ("dcm.converge_us.NFS", "us", "lower",
     f"client.freshness_p90_ms on {_C} only"),
    ("dcm.converge_us.MAIL", "us", "lower",
     f"client.freshness_p50_ms on {_C} only"),
    ("dcm.converge_us.ZEPHYR", "us", "lower",
     f"client.freshness_p50_ms on {_C} only"),
    ("dcm.generate_us.HESIOD", "us", "lower",
     f"client.freshness_p50_ms on {_C} only"),
    ("dcm.generate_us.NFS", "us", "lower",
     f"client.freshness_p90_ms on {_C} only"),
    ("dcm.generate_us.MAIL", "us", "lower",
     f"client.freshness_p50_ms on {_C} only"),
    ("dcm.generate_us.ZEPHYR", "us", "lower",
     f"client.freshness_p50_ms on {_C} only"),
    ("dcm.update.push_us_per_host", "us", "lower",
     f"client.freshness_p90_ms on {_C} (as max over hosts, not mean)"),
    ("dcm.host_pushes_per_mutation", "count", "lower",
     f"cpu_us_per_op, client.lat_p90_us, client.ops_per_s on {_C}"),
    ("dcm.bytes_pushed_per_mutation", "B", "lower",
     f"cpu_us_per_op, client.lat_p90_us, client.ops_per_s on {_C}"),
    ("dcm.no_change_ratio", "ratio", "higher",
     f"cpu_us_per_op, client.ops_per_s on {_C}"),
    ("dcm.full.generate_s", "s", "lower",
     f"client.full_cycle_s on {_C}"),
    ("dcm.full.push_s", "s", "lower", f"client.full_cycle_s on {_C}"),
    ("hosts.update_daemon.install_us", "us", "lower",
     f"client.freshness_p50_ms on {_C}"),
    ("servers.hesiod.restart_us", "us", "lower",
     f"client.freshness_p50_ms on {_C}"),
    ("workload.load_population_s", "s", "lower", "setup_s everywhere"),
    ("core.wire_s", "s", "lower", "setup_s everywhere"),
    ("host.fsync_us", "us", "lower",
     f"calibration: explains client.write_p50_us on {_W} across hosts"),
    ("host.nproc", "count", "higher", "calibration only"),
    ("host.cpu_slowness", "ratio", "lower",
     "calibration: cpu_us_per_op is client.cpu_raw_us_per_op over this"),
    ("perf.trace_overhead_ratio", "ratio", "lower",
     "none: how much the traced run distorts what it measures"),
    ("perf.trace_selftime_ratio", "ratio", "higher",
     "none: per-request self times / traced client latency (want ~1)"),
    ("perf.trace_orphan_spans", "count", "lower",
     "none: server-side spans no client request claimed"),
] + [(f"client.{name}", unit, better,
      "untraced client-observed value; see NAMED")
     for name, unit, better in NAMED]


def benchmark_json() -> dict:
    """The document BENCHMARK.json must hold."""
    return {
        "command": COMMAND,
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _moves in PER_LAYER],
    }
