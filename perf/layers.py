"""Per-layer metrics of one traced run.

Three sources, as perf/README.md describes: (a) spans from the
wrappers in ``perf.trace``; (b) isolation probes on the operations the
run actually sent; (c) the program's own public counters, read before
and after the window.  Layers are ``src/repro`` package names.

Imported only by a traced child.
"""

from __future__ import annotations

import itertools
import os
import time
import tracemalloc
from pathlib import Path

from repro.client.lib import MoiraClient
from repro.core import AthenaDeployment, DeploymentConfig
from repro.errors import MR_MORE_DATA
from repro.protocol import wire
from repro.protocol.transport import TcpServerTransport

from perf.metrics import PER_LAYER
from perf.stats import hist_quantile_us, median, ratio
from perf.trace import ROOT_PREFIXES, Tracer, coverage, self_times

__all__ = ["counters", "probes", "derive"]

US = 1e6
PROBE_OPS = 200
PROBE_TUPLES = 2000
NOOPS = 200
FSYNCS = 500
FSYNC_BYTES = 160

# query -> (relation, column) of the index probe the handler makes
SELECT_PROBE = {
    "get_user_by_login": ("users", "login"),
    "get_pobox": ("users", "login"),
    "get_finger_by_login": ("users", "login"),
    "get_filesys_by_label": ("filesys", "label"),
    "get_machine": ("machine", "name"),
    "get_user_by_class": ("users", "mit_year"),
}


# -- (c) the program's own counters ------------------------------------------


def counters(workload) -> dict:
    """Flat snapshot of the public counters the layer metrics use."""
    d = workload.d
    out = {}
    journal = d.journal.stats()
    for key in ("appends", "fsyncs", "wal_bytes"):
        out["journal." + key] = journal[key]
    mvcc = d.db.mvcc_stats()
    for key in ("versions_created", "gc_runs", "commits"):
        out["mvcc." + key] = mvcc.get(key, 0)
    access = d.server.access_cache.stats()
    out["access.hits"], out["access.misses"] = access["hits"], \
        access["misses"]
    if d.cdc is not None:
        for key, value in d.cdc.stats.items():
            out["cdc." + key] = value
    snapshot = d.server.metrics.snapshot()
    out["query.rows_scanned"] = sum(r["rows_scanned"]
                                    for r in snapshot.values())
    out["query.rows_returned"] = sum(r["rows_returned"]
                                     for r in snapshot.values())
    hist: list = []
    for row in d.server.metrics.shard_waits().values():
        hist = [a + b for a, b in
                itertools.zip_longest(hist, row["hist"], fillvalue=0)]
    out["shard.hist"] = hist
    # the write batcher's occupancy is public only as _wal_stats rows
    with MoiraClient(dispatcher=d.server) as client:
        for row in client.query("_wal_stats"):
            if row[0] in ("_batch.batches", "_batch.batched_writes"):
                out[row[0][1:]] = float(row[1])
    return out


def _delta(before: dict, after: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


# -- (b) isolation probes -----------------------------------------------------


def _sample_ops(workload) -> list:
    """The first operations client 0 sent, flattened."""
    ops: list = []
    for item in workload.plan(0):
        ops.extend(getattr(item, "ops", None) or (item,))
        if len(ops) >= PROBE_OPS:
            return ops[:PROBE_OPS]
    return ops


def _per_call_us(fn, argument_sets: list) -> float:
    if not argument_sets:
        return 0.0
    start = time.perf_counter()
    for args in argument_sets:
        fn(*args)
    return (time.perf_counter() - start) / len(argument_sets) * US


def _codec_probes(workload, ops: list) -> dict:
    requests = [(wire.MajorRequest.QUERY, [op.query, *op.args])
                for op in ops]
    frames = [wire.encode_request(*request) for request in requests]
    tuples: list = []
    direct = workload.d.direct_client()
    for op in ops:
        if op.kind == "read" and len(tuples) < PROBE_TUPLES:
            direct.mr_query(op.query, op.args,
                            lambda _n, row, _arg: tuples.append(row))
    del tuples[PROBE_TUPLES:]
    replies = [wire.encode_reply(MR_MORE_DATA, row) for row in tuples]
    return {
        "protocol.encode_request_us": _per_call_us(wire.encode_request,
                                                   requests),
        "protocol.decode_request_us": _per_call_us(
            wire.decode_request, [(f[4:],) for f in frames]),
        "protocol.encode_reply_us_per_tuple": _per_call_us(
            wire.encode_reply, [(MR_MORE_DATA, row) for row in tuples]),
        "protocol.decode_reply_us_per_tuple": _per_call_us(
            wire.decode_reply, [(f[4:],) for f in replies]),
    }


def _select_probe(workload, ops: list) -> float:
    """us per row of the raw snapshot select behind each sampled op."""
    db = workload.d.db
    spent, rows = 0.0, 0
    snapshot = db.pin_snapshot()
    try:
        for op in ops:
            probe = SELECT_PROBE.get(op.query)
            if probe is None:
                continue
            table = snapshot.table(probe[0])
            where = {probe[1]: op.args[0]}
            start = time.perf_counter()
            found = table.select(where)
            spent += time.perf_counter() - start
            rows += len(found)
    finally:
        db.unpin_snapshot(snapshot)
    return ratio(spent * US, rows)


def _noop_probes(workload) -> dict:
    server = workload.d.server
    transport = workload.transport
    own = transport is None
    if own:
        transport = TcpServerTransport(server).start()
    try:
        out = {}
        for name, kwargs in (
                ("protocol.tcp_noop_rtt_us",
                 {"tcp_address": transport.address[:2]}),
                ("protocol.inproc_noop_us", {"dispatcher": server})):
            with MoiraClient(**kwargs) as client:
                samples = []
                for _ in range(NOOPS):
                    start = time.perf_counter()
                    client.noop()
                    samples.append(time.perf_counter() - start)
            out[name] = median(samples) * US
        return out
    finally:
        if own:
            transport.stop()


def _fsync_probe(directory: Path) -> float:
    """Median of raw 160-byte append+fsync on the WAL's directory."""
    path = directory / "fsync.probe"
    record = b"x" * FSYNC_BYTES
    samples = []
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600)
    try:
        for _ in range(FSYNCS):
            start = time.perf_counter()
            os.write(fd, record)
            os.fsync(fd)
            samples.append(time.perf_counter() - start)
    finally:
        os.close(fd)
        path.unlink()
    return median(samples) * US


def _bytes_per_user(workload) -> float:
    """Traced heap after building the same population once more."""
    spec = workload.d.config.population
    tracemalloc.start()
    try:
        deployment = AthenaDeployment(DeploymentConfig(population=spec))
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    deployment.server.shutdown()
    return current / spec.users


def probes(workload) -> dict:
    """Run after the oracle, on the fixture the window used."""
    ops = _sample_ops(workload)
    out = _codec_probes(workload, ops)
    out["db.select_us_per_row"] = _select_probe(workload, ops)
    out.update(_noop_probes(workload))
    out["host.fsync_us"] = _fsync_probe(workload.tmp)
    out["host.nproc"] = float(os.cpu_count() or 1)
    out["db.bytes_per_user"] = _bytes_per_user(workload)
    return out


# -- (a) spans ----------------------------------------------------------------


class _SpanView:
    """Spans of one run, indexed for the derivations below.

    A *request* is the tree under a root span that started inside the
    window.  Within it, a *unit* is the tree under one ``client.*``
    call (one protocol request); spans outside any such call — a whole
    CDC round, a session's kinit — form the root's own unit.
    """

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.window = tracer.marks.get("window", (0.0, float("inf")))
        self.self_s = self_times(self.spans)
        lo, hi = self.window
        roots = {s.id for s in self.spans
                 if not s.parent and not s.orphan
                 and s.name.startswith(ROOT_PREFIXES)
                 and lo <= s.start <= hi}
        by_id = {s.id: s for s in self.spans}
        self.by_request: dict = {}
        self.by_unit: dict = {}
        for span in self.spans:
            if span.req not in roots:
                continue
            self.by_request.setdefault(span.req, []).append(span)
            unit, at = span.req, span
            while at is not None:
                if at.name.startswith("client."):
                    unit = at.id
                at = by_id.get(at.parent)
            self.by_unit.setdefault(unit, []).append(span)

    def in_window(self, prefix: str) -> list:
        lo, hi = self.window
        return [s for s in self.spans
                if s.name.startswith(prefix) and lo <= s.start <= hi]

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def sums(self, prefixes: tuple, *, self_time: bool,
             per_root: bool = False) -> list:
        """Per unit (or per request): summed self (or busy) time of
        the matching spans; groups without a match are left out."""
        out = []
        groups = self.by_request if per_root else self.by_unit
        for spans in groups.values():
            hit = [s for s in spans if s.name.startswith(prefixes)]
            if hit:
                out.append(sum(self.self_s[s.id] if self_time else s.busy
                               for s in hit))
        return out

    def request_self_total(self) -> float:
        return sum(self.self_s[s.id] for spans in self.by_request.values()
                   for s in spans)


def _window_busy_us(view: _SpanView, name: str) -> float:
    return median(s.busy for s in view.in_window(name)) * US


def _full_cycle(view: _SpanView) -> tuple:
    cycles = view.named("perf.full_cycle")
    if not cycles:
        return 0.0, 0.0
    cycle = cycles[0]
    inside = [s for s in view.spans
              if cycle.start <= s.start <= cycle.end]
    generate = sum(s.busy for s in inside
                   if s.name.startswith("dcm.generate."))
    push = coverage(cycle, [s for s in inside
                            if s.name == "dcm.update.push"])
    return generate, push


def derive(workload, tracer: Tracer, samples, before: dict, after: dict,
           probe_values: dict) -> dict:
    """Every PER_LAYER metric except the ones only the parent can know
    (``perf.trace_overhead_ratio`` and the untraced ``client.*``)."""
    view = _SpanView(tracer)
    out = {name: 0.0 for name, _unit, _better, _moves in PER_LAYER}
    out.update(probe_values)

    def per_request_us(*prefixes, self_time=True, per_root=False):
        return median(view.sums(prefixes, self_time=self_time,
                                 per_root=per_root)) * US

    out["protocol.transport_self_us"] = per_request_us("protocol.")
    out["client.self_us"] = per_request_us("client.")
    out["kerberos.kinit_us"] = _window_busy_us(view, "kerberos.kinit")
    out["kerberos.auth_us"] = per_request_us(
        "kerberos.make_authenticator", "kerberos.verify_authenticator",
        self_time=False, per_root=True)
    out["kerberos.connect_auth_us"] = per_request_us(
        "client.mr_connect", "client.mr_auth", self_time=False,
        per_root=True)
    out["server.handle_frame_self_us"] = per_request_us(
        "server.handle_frame", "server.submit")
    out["server.queue_wait_us"] = median(
        s.note for s in view.in_window("server.handle_frame")
        if s.note is not None) * US
    out["server.access.check_us"] = per_request_us("server.access.",
                                                   self_time=False)
    hits, misses = (_delta(before, after, "access.hits"),
                    _delta(before, after, "access.misses"))
    out["server.access.hit_ratio"] = ratio(hits, hits + misses)
    out["server.write_batch.mean_window"] = ratio(
        _delta(before, after, "batch.batched_writes"),
        _delta(before, after, "batch.batches"))
    out["server.shard_wait_p50_us"] = float(hist_quantile_us(
        [a - b for a, b in itertools.zip_longest(
            after["shard.hist"], before["shard.hist"], fillvalue=0)],
        0.50))
    out["queries.execute_self_us"] = per_request_us("queries.execute",
                                                    "queries.handler")
    out["queries.closure_us"] = per_request_us("queries.closure",
                                               self_time=False)
    out["db.pin_us"] = per_request_us("db.pin", "db.unpin",
                                      self_time=False)
    out["db.rows_scanned_per_row_returned"] = ratio(
        _delta(before, after, "query.rows_scanned"),
        _delta(before, after, "query.rows_returned"))
    writes = _delta(before, after, "journal.appends")
    out["db.versions_created_per_write"] = ratio(
        _delta(before, after, "mvcc.versions_created"), writes)
    out["db.gc_runs"] = float(_delta(before, after, "mvcc.gc_runs"))
    out["db.gc_us"] = sum(s.busy for s in view.in_window("db.gc")) * US
    out["db.journal.record_us"] = _window_busy_us(view,
                                                  "db.journal.record")
    out["db.journal.sync_us"] = _window_busy_us(view, "db.journal.sync")
    out["db.journal.fsyncs_per_write"] = ratio(
        _delta(before, after, "journal.fsyncs"), writes)
    out["db.journal.wal_bytes_per_write"] = ratio(
        _delta(before, after, "journal.wal_bytes"), writes)

    restores = view.named("db.backup.mrrestore")
    replays = view.named("db.recovery.replay_wal")
    replayed = workload.oracle.get("replayed", 0)
    if restores and replays:
        out["client.restore_s"] = restores[0].busy
        out["client.replay_us_per_write"] = ratio(
            replays[0].busy * US, replayed)
        out["db.recovery.replay_self_us_per_entry"] = ratio(
            view.self_s[replays[0].id] * US, replayed)
        out["db.backup.mrrestore_us_per_row"] = ratio(
            restores[0].busy * US, workload.oracle.get("rows_restored", 0))
    backups = view.named("db.backup.mrbackup")
    if backups:
        out["db.backup.mrbackup_s"] = backups[0].busy

    out["dcm.cdc.pump_self_us"] = per_request_us("dcm.cdc.")
    for service in ("HESIOD", "NFS", "MAIL", "ZEPHYR"):
        out["dcm.converge_us." + service] = _window_busy_us(
            view, "dcm.converge." + service)
        out["dcm.generate_us." + service] = _window_busy_us(
            view, "dcm.generate." + service)
    out["dcm.update.push_us_per_host"] = _window_busy_us(
        view, "dcm.update.push")
    if workload.cdc:
        mutations = samples.attempted
        out["dcm.host_pushes_per_mutation"] = ratio(
            _delta(before, after, "cdc.host_pushes"), mutations)
        out["dcm.bytes_pushed_per_mutation"] = ratio(
            _delta(before, after, "cdc.bytes_pushed"), mutations)
        out["dcm.no_change_ratio"] = ratio(
            _delta(before, after, "cdc.converges_no_change"),
            _delta(before, after, "cdc.converges"))
    out["dcm.full.generate_s"], out["dcm.full.push_s"] = _full_cycle(view)
    installs: dict = {}
    for span in view.in_window("hosts.update_daemon."):
        installs[span.parent] = installs.get(span.parent, 0.0) + span.busy
    out["hosts.update_daemon.install_us"] = median(installs.values()) * US
    out["servers.hesiod.restart_us"] = _window_busy_us(
        view, "servers.hesiod.restart")
    loads = view.named("workload.load_population")
    builds = view.named("perf.build")
    if loads and builds:
        out["workload.load_population_s"] = loads[0].busy
        out["core.wire_s"] = builds[0].busy - loads[0].busy

    client_total = sum(sum(samples.latency.get(name, ()))
                       for name in workload.unit_classes)
    out["perf.trace_selftime_ratio"] = ratio(view.request_self_total(),
                                              client_total)
    lo, hi = view.window
    out["perf.trace_orphan_spans"] = float(sum(
        1 for s in view.spans if s.orphan and lo <= s.start <= hi))
    return out
