"""Tests of the harness itself: ``python -m pytest perf -q``.

(Tier-1 ``testpaths`` stays ``tests``; these run on request.)
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from repro.errors import MR_NO_MATCH  # noqa: E402
from repro.protocol import wire  # noqa: E402

from perf import metrics, plans, stats  # noqa: E402
from perf.trace import Span, Tracer, coverage, self_times  # noqa: E402

FACTS = plans.Facts(
    logins=[f"user{i}" for i in range(4000)],
    machines=[f"M{i}.MIT.EDU" for i in range(30)],
    nfs_machines=[f"LOCKER-{i}.MIT.EDU" for i in range(4)],
    maillists=[f"list-{i}" for i in range(20)])


# -- percentile rule ---------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99) == 99
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([3, 1, 2], 50) == 2


def test_rule_wants_ten_samples_beyond_the_percentile():
    assert stats.supported_percentile(19) == 50
    assert stats.supported_percentile(99) == 50
    assert stats.supported_percentile(100) == 90
    assert stats.supported_percentile(999) == 90
    assert stats.supported_percentile(1000) == 99
    assert stats.supported_percentile(10_000) == 99.9
    summary = stats.summarize([float(i) for i in range(150)], 99.0)
    assert summary["n"] == 150 and not summary["tail_supported"]
    assert stats.summarize([float(i) for i in range(150)],
                           90.0)["tail_supported"]


def test_quartile_spread_matches_the_driver_formula():
    import statistics
    values = [10.0, 11, 12, 9, 10.5, 10.2, 9.8, 10.1, 13, 10]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == \
        (q3 - q1) / statistics.median(values)


def test_histogram_quantile_uses_bucket_upper_bound():
    hist = [0] * 28
    hist[3] = 10        # [8, 16) us
    hist[10] = 1
    assert stats.hist_quantile_us(hist, 0.5) == 15
    assert stats.hist_quantile_us(hist, 1.0) == 2047
    assert stats.hist_quantile_us([0] * 28, 0.5) == 0


# -- span arithmetic ---------------------------------------------------------


def _span(span_id, parent, start, end, *, generator=False, busy=None):
    span = Span(span_id, f"s{span_id}", generator)
    span.parent, span.start, span.end = parent, start, end
    span.busy = (end - start) if busy is None else busy
    return span


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = _span(1, 0, 0.0, 10.0)
    pool_a = _span(2, 1, 1.0, 4.0)      # two pool threads overlap
    pool_b = _span(3, 1, 2.0, 6.0)
    later = _span(4, 1, 8.0, 9.0)
    assert coverage(parent, [pool_a, pool_b, later]) == 6.0
    selfs = self_times([parent, pool_a, pool_b, later])
    assert selfs[1] == 4.0
    assert selfs[2] == 3.0 and selfs[3] == 4.0 and selfs[4] == 1.0


def test_generator_children_count_their_busy_slices_only():
    parent = _span(1, 0, 0.0, 10.0)
    stream = _span(2, 1, 1.0, 9.0, generator=True, busy=2.5)
    assert coverage(parent, [stream]) == 2.5
    assert self_times([parent, stream])[1] == 7.5


def test_children_are_clipped_to_the_parent_and_self_never_negative():
    parent = _span(1, 0, 5.0, 6.0)
    wide = _span(2, 1, 0.0, 100.0)
    assert coverage(parent, [wide]) == 1.0
    assert self_times([parent, wide])[1] == 0.0


def test_sequential_requests_sum_to_the_root():
    tracer = Tracer()
    root = tracer.begin("client.mr_query")
    stream = tracer.generator("protocol.stream")
    for _ in range(3):
        tracer.resume(stream)
        inner = tracer.begin("db.pin")
        tracer.end(inner)
        tracer.suspend(stream)
    tracer.finish(stream)
    tracer.end(root)
    selfs = self_times(tracer.spans)
    assert {s.req for s in tracer.spans} == {root.id}
    assert abs(sum(selfs.values()) - root.busy) < 1e-9
    assert stream.busy <= stream.end - stream.start


# -- parent attachment -------------------------------------------------------


def _on_thread(fn):
    box = []
    thread = threading.Thread(target=lambda: box.append(fn()))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    return box[0]


def test_same_thread_nesting_and_request_id():
    tracer = Tracer()
    root = tracer.begin("client.mr_query")
    child = tracer.begin("protocol.call")
    tracer.end(child)
    tracer.end(root)
    assert child.parent == root.id and child.req == root.id
    assert root.parent == 0 and not root.orphan


def test_pool_span_attaches_to_the_only_open_root():
    tracer = Tracer()
    root = tracer.begin("perf.round")

    def push():
        span = tracer.begin("dcm.update.push")
        tracer.end(span)
        return span
    pushed = _on_thread(push)
    tracer.end(root)
    assert pushed.parent == root.id and pushed.req == root.id


def test_two_open_roots_leave_an_unlinked_span_orphaned():
    tracer = Tracer()
    first = tracer.begin("client.mr_query")
    second = _on_thread(lambda: tracer.begin("client.mr_query"))
    stray = _on_thread(lambda: tracer.begin("db.journal.sync"))
    assert second.parent == 0 and not second.orphan     # never adopted
    assert stray.parent == 0 and stray.orphan
    tracer.end(first)


def test_server_span_attaches_by_connection():
    tracer = Tracer()
    tracer.decode_request = wire.decode_request

    class Conn:     # stands in for a ClientConnection (weak-referable)
        pass

    conns = [Conn(), Conn()]
    args = [["get_user_by_login", "alice"], ["get_user_by_login", "bob"]]
    streams = []
    for conn, query in zip(conns, args):
        stream = tracer.generator("protocol.stream")
        stream.start = 1.0      # already running on its client thread
        tracer.client_request(conn, stream, wire.MajorRequest.QUERY,
                              query)
        streams.append(stream)
    frame = wire.encode_request(wire.MajorRequest.QUERY, args[1])[4:]

    def serve(conn_id, body):
        span = tracer.begin("server.submit", (conn_id, body))
        tracer.end(span)
        return span
    served = _on_thread(lambda: serve(7, frame))
    assert served.parent == streams[1].id
    # the connection is remembered: a later, different frame on server
    # connection 7 still lands on the same client connection
    tracer.client_request(conns[1], streams[1], wire.MajorRequest.NOOP, [])
    other = wire.encode_request(wire.MajorRequest.NOOP, [])[4:]
    assert _on_thread(lambda: serve(7, other)).parent == streams[1].id
    # an unknown connection with a frame nobody sent stays an orphan
    ghost = wire.encode_request(wire.MajorRequest.QUERY, ["x"])[4:]
    lost = _on_thread(lambda: serve(8, ghost))
    assert lost.parent == 0 and lost.orphan


# -- plans -------------------------------------------------------------------


def test_same_seed_same_plan_other_seed_other_plan():
    for name in plans.PLANS:
        first = plans.plan_sha(name, FACTS, 5)
        assert first == plans.plan_sha(name, FACTS, 5)
        assert first != plans.plan_sha(name, FACTS, 6)


def test_clients_get_different_streams():
    a = list(itertools.islice(plans.point_read_plan(FACTS, 1, 0), 50))
    b = list(itertools.islice(plans.point_read_plan(FACTS, 1, 1), 50))
    assert a != b


def test_write_plan_predicts_every_reply_code():
    members: set = set()
    machines: set = set()
    own = set(FACTS.logins[1::2])
    for op in itertools.islice(plans.write_plan(FACTS, 3, 1), 5000):
        assert op.kind == "write" and op.expect == 0
        if op.query == "add_member_to_list":
            assert op.args[2] not in members      # would be MR_EXISTS
            members.add(op.args[2])
        elif op.query == "delete_member_from_list":
            assert op.args[2] in members          # would be MR_NO_MATCH
            members.remove(op.args[2])
        elif op.query == "add_machine":
            assert op.args[0] not in machines
            machines.add(op.args[0])
        else:
            assert op.args[0] in own              # disjoint halves


def test_session_plan_expects_no_match_on_the_empty_list():
    members: set = set()
    saw_empty = saw_full = False
    for session in itertools.islice(plans.session_plan(FACTS, 2, 0), 400):
        assert len(session.ops) == plans.SESSION_READS + 2
        reads, writes = session.ops[:-2], session.ops[-2:]
        assert all(op.kind == "read" for op in reads)
        assert all(op.kind == "write" for op in writes)
        for op in reads:
            if op.query == "get_members_of_list":
                assert op.expect == (0 if members else MR_NO_MATCH)
                saw_empty |= not members
                saw_full |= bool(members)
            else:
                assert op.expect == 0 and session.login in op.args
        last = writes[-1]
        if last.query == "add_member_to_list":
            assert session.login not in members
            members.add(session.login)
        elif last.query == "delete_member_from_list":
            members.remove(session.login)
    assert saw_empty and saw_full


def test_expected_code_is_a_success_other_codes_fail():
    op = plans.Op("get_members_of_list", ("l",), expect=MR_NO_MATCH)
    assert plans.is_expected(op, MR_NO_MATCH)
    assert not plans.is_expected(op, 0)
    assert plans.is_expected(plans.Op("get_machine", ("m",)), 0)


def test_cdc_rounds_rotate_and_burst():
    rounds = list(itertools.islice(plans.propagate_plan(FACTS, 1), 40))
    bursts = [r for r in rounds if len(r.ops) > 1]
    assert len(bursts) == 4
    assert all(len(r.ops) == plans.BURST_SIZE for r in bursts)
    assert {r.check for r in rounds} == {"shell", "none", "member",
                                         "pobox"}
    members = [r.markers[0] for r in rounds if r.check == "member"]
    assert len(members) == len(set(members))
    # the mix the workload weights its rounds by is the plan's period
    from collections import Counter
    assert Counter(r.kind for r in rounds) == plans.ROUND_MIX
    later = itertools.islice(plans.propagate_plan(FACTS, 2), 40, 80)
    assert Counter(r.kind for r in later) == plans.ROUND_MIX


# -- names -------------------------------------------------------------------


def test_names_units_and_reasons_fit_the_contract():
    doc = metrics.benchmark_json()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.match(name), name
    unit_re = __import__("re").compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert unit_re.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for workload in doc["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in doc["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert set(names[:5]) == set(plans.PLANS)


def test_benchmark_json_is_the_registry():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.benchmark_json()


# -- the untraced path -------------------------------------------------------


def test_untraced_smoke_run_is_correct_and_never_loads_the_wrappers(
        tmp_path):
    script = f"""
import json, sys, time
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]
from perf import child
result = child.run({{"workload": "point_read_tcp", "seed": 1,
                    "seconds": 0.5, "smoke": True, "trace": False,
                    "tmp": {str(tmp_path)!r}}}, time.perf_counter())
loaded = [m for m in ("perf.trace", "perf.layers") if m in sys.modules]
print(json.dumps({{"correct": result["correct"],
                  "failed": result["failed"], "loaded": loaded,
                  "e2e": result["e2e"], "named": sorted(result["named"])}}))
"""
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    e2e, named = report.pop("e2e"), report.pop("named")
    assert report == {"correct": True, "failed": 0, "loaded": []}
    # every bounded metric is reported and none is 0 (the contract)
    assert sorted(e2e) == sorted(n for n, *_rest in metrics.END_TO_END)
    assert all(value > 0 for value in e2e.values())
    assert set(named) <= {n for n, *_rest in metrics.NAMED} | {
        "tcp_stall_ratio"}
    assert {"ops_per_s", "lat_p90_us", "fail_ratio",
            "cpu_raw_us_per_op"} <= set(named)
