"""Resilient propagation + graceful degradation tests.

Covers the :class:`PropagationGovernor` state machine (backoff,
circuit breaker, per-cycle retry budget), its integration into the DCM
cycle report and the ``_dcm_stats`` pseudo-query, and client-side
MR_BUSY retry.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.client.lib import MoiraClient
from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.schema import build_database
from repro.dcm.retry import (
    BreakerState,
    PropagationGovernor,
    RetryPolicy,
)
from repro.errors import MR_BUSY
from repro.protocol.wire import (
    MajorRequest,
    decode_reply,
    encode_reply,
    encode_request,
)
from repro.server.moira_server import MoiraServer
from repro.sim import FaultInjector
from repro.sim.clock import Clock
from repro.workload import PopulationSpec


class TestRetryPolicy:
    def test_backoff_ladder(self):
        policy = RetryPolicy(jitter_frac=0.0)
        rng = random.Random(0)
        assert policy.backoff(0, rng) == 0.0
        assert policy.backoff(1, rng) == 60.0
        assert policy.backoff(2, rng) == 120.0
        assert policy.backoff(3, rng) == 240.0
        assert policy.backoff(10, rng) == 3600.0   # capped

    def test_jitter_bounds(self):
        policy = RetryPolicy(jitter_frac=0.25)
        rng = random.Random(42)
        for failures in (1, 2, 5):
            base = min(60.0 * 2.0 ** (failures - 1), 3600.0)
            for _ in range(50):
                got = policy.backoff(failures, rng)
                assert 0.75 * base <= got <= 1.25 * base


class TestGovernor:
    def gov(self, **kw):
        defaults = dict(jitter_frac=0.0, backoff_base=60.0,
                        breaker_threshold=3, breaker_cooldown=1800.0,
                        cycle_budget=64)
        defaults.update(kw)
        return PropagationGovernor(RetryPolicy(**defaults))

    def test_first_attempt_always_admitted(self):
        gov = self.gov()
        ok, reason = gov.admit("HESIOD", "ws1", now=0)
        assert ok and reason == "ok"

    def test_backoff_defers_then_readmits(self):
        gov = self.gov()
        gov.admit("HESIOD", "ws1", now=0)
        gov.record_soft("HESIOD", "ws1", now=0)   # next at 60
        assert gov.admit("HESIOD", "ws1", now=30) == (False, "backoff")
        assert gov.cycle_deferred == 1
        ok, reason = gov.admit("HESIOD", "ws1", now=61)
        assert ok and reason == "ok"

    def test_breaker_opens_after_threshold(self):
        gov = self.gov()
        now = 0
        for _ in range(3):
            gov.admit("HESIOD", "ws1", now=now)
            gov.record_soft("HESIOD", "ws1", now=now)
            now += 900
        health = gov.health("HESIOD", "ws1")
        assert health.breaker is BreakerState.OPEN
        assert health.breaker_opens == 1
        # within cooldown: skipped without an attempt
        assert gov.admit("HESIOD", "ws1", now=now) == \
            (False, "breaker_open")
        assert gov.cycle_breaker_skips == 1
        assert gov.open_hosts() == [("HESIOD", "WS1")]

    def test_half_open_probe_then_close(self):
        gov = self.gov()
        now = 0
        for _ in range(3):
            gov.admit("HESIOD", "ws1", now=now)
            gov.record_soft("HESIOD", "ws1", now=now)
            now += 900
        opened_at = gov.health("HESIOD", "ws1").opened_at
        probe_time = opened_at + 1801
        ok, reason = gov.admit("HESIOD", "ws1", now=probe_time)
        assert ok and reason == "probe"
        assert gov.cycle_probes == 1
        gov.record_success("HESIOD", "ws1")
        health = gov.health("HESIOD", "ws1")
        assert health.breaker is BreakerState.CLOSED
        assert health.consecutive_soft == 0

    def test_failed_probe_reopens(self):
        gov = self.gov()
        now = 0
        for _ in range(3):
            gov.admit("HESIOD", "ws1", now=now)
            gov.record_soft("HESIOD", "ws1", now=now)
            now += 900
        probe_time = gov.health("HESIOD", "ws1").opened_at + 1801
        ok, reason = gov.admit("HESIOD", "ws1", now=probe_time)
        assert ok and reason == "probe"
        gov.record_soft("HESIOD", "ws1", now=probe_time)
        assert gov.health("HESIOD", "ws1").breaker is BreakerState.OPEN

    def test_one_probe_per_cooldown_window(self):
        gov = self.gov()
        now = 0
        for _ in range(3):
            gov.admit("HESIOD", "ws1", now=now)
            gov.record_soft("HESIOD", "ws1", now=now)
            now += 900
        probe_time = gov.health("HESIOD", "ws1").opened_at + 1801
        assert gov.admit("HESIOD", "ws1", now=probe_time)[1] == "probe"
        # half-open, probe outstanding: the next cycles are skipped
        # until a full cooldown window has passed
        assert gov.admit("HESIOD", "ws1", now=probe_time + 900) == \
            (False, "breaker_open")
        assert gov.admit("HESIOD", "ws1",
                         now=probe_time + 1801)[1] == "probe"

    def test_budget_spares_first_attempts(self):
        gov = self.gov(cycle_budget=1)
        # two targets with a failure history, one fresh
        for machine in ("ws1", "ws2"):
            gov.admit("HESIOD", machine, now=0)
            gov.record_soft("HESIOD", machine, now=0)
        gov.begin_cycle()
        assert gov.admit("HESIOD", "ws1", now=100)[0]        # budget 1->0
        assert gov.admit("HESIOD", "ws2", now=100) == (False, "budget")
        assert gov.cycle_budget_deferred == 1
        # a first-attempt target is never charged against the budget
        assert gov.admit("HESIOD", "ws3", now=100) == (True, "ok")

    def test_hard_failure_resets_state(self):
        gov = self.gov()
        gov.admit("HESIOD", "ws1", now=0)
        gov.record_soft("HESIOD", "ws1", now=0)
        gov.record_hard("HESIOD", "ws1")
        health = gov.health("HESIOD", "ws1")
        assert health.breaker is BreakerState.CLOSED
        assert health.consecutive_soft == 0
        assert health.hard_failures == 1

    def test_stats_tuples_shape(self):
        gov = self.gov()
        gov.admit("HESIOD", "ws1", now=0)
        gov.record_soft("HESIOD", "ws1", now=0)
        rows = gov.stats_tuples()
        assert rows == [("HESIOD", "WS1", "closed", "1", "0", "1", "0",
                         "0", "1")]


def small_deployment(faults=None, **cfg):
    return AthenaDeployment(DeploymentConfig(
        population=PopulationSpec(
            users=15, unregistered_users=0, nfs_servers=2, maillists=2,
            clusters=1, machines_per_cluster=1, printers=1,
            network_services=3),
        faults=faults, **cfg))


class TestDCMResilience:
    def test_breaker_caps_attempts_to_dead_host(self):
        """A host dead for many cycles: the breaker limits attempts to
        the threshold plus one half-open probe per cooldown window,
        instead of one timeout-burning attempt every cycle."""
        faults = FaultInjector(seed=5)
        d = small_deployment(faults)
        hesiod = d.handles.hesiod_machine
        d.network.partition(hesiod)
        d.run_hours(7)   # generation due at 6h; pushes start failing
        d.run_hours(6)
        health = d.dcm.governor.health("HESIOD", hesiod)
        assert health.breaker is BreakerState.OPEN
        # ~7h of failures; retry-every-cycle would burn 4/h = 28+
        # timeouts.  The breaker concedes threshold (3) plus one probe
        # per 1800 s cooldown window (2/h), halving the attempt rate
        # and skipping the rest outright.
        assert 3 < health.attempts <= 3 + 2 * 7 + 1
        assert health.successes == 0
        # heal: the next probe closes the breaker and converges
        d.network.heal(hesiod)
        d.run_hours(2)
        row = d.db.table("serverhosts").select({"service": "HESIOD"})[0]
        assert row["success"] == 1
        assert d.dcm.governor.health(
            "HESIOD", hesiod).breaker is BreakerState.CLOSED

    def test_report_counters_surface_breaker_state(self):
        faults = FaultInjector(seed=5)
        d = small_deployment(faults)
        hesiod = d.handles.hesiod_machine
        d.network.partition(hesiod)
        d.run_hours(8)
        report = d.dcm.run_once()
        assert report.breaker_skips + report.breaker_probes >= 1
        assert ("HESIOD", hesiod) in report.breaker_open_hosts

    def test_dcm_stats_pseudo_query(self):
        faults = FaultInjector(seed=5)
        d = small_deployment(faults)
        d.network.partition(d.handles.hesiod_machine)
        d.run_hours(7)
        client = MoiraClient(dispatcher=d.server).connect()
        rows = client.query("_dcm_stats")
        client.close()
        by_first = {r[0] for r in rows}
        assert "HESIOD" in by_first
        hesiod_row = [r for r in rows if r[0] == "HESIOD"][0]
        assert hesiod_row[1] == d.handles.hesiod_machine
        assert int(hesiod_row[5]) >= 1   # soft failures recorded


def query_frame(name, *args):
    """A QUERY request frame body, as submit_frame receives it."""
    return encode_request(MajorRequest.QUERY, [name, *args])[4:]


class Replies:
    def __init__(self):
        self.frames = []
        self.done = threading.Event()

    def on_reply(self, frame):
        self.frames.append(decode_reply(frame[4:]))
        return True

    def on_done(self):
        self.done.set()


class TestLoadShedding:
    def test_no_limit_no_shedding(self):
        """The server keeps no admission queue to shed from: a frame
        handed in is answered, never with MR_BUSY."""
        server = MoiraServer(build_database(), Clock())
        conn = server.open_connection("test")
        r = Replies()
        assert server.submit_frame(conn, query_frame("_list_users"),
                                   r.on_reply, r.on_done)
        assert r.done.is_set()      # ran to completion on this thread
        assert [f.code for f in r.frames][-1] == 0
        assert MR_BUSY not in [f.code for f in r.frames]


class BusyDispatcher:
    """A stub server: answers MR_BUSY *busy* times, then succeeds."""

    def __init__(self, busy):
        self.busy_left = busy
        self.calls = 0

    def open_connection(self, peer):
        return 1

    def close_connection(self, conn_id):
        pass

    def sync(self):
        pass

    def handle_frame_stream(self, conn_id, frame):
        self.calls += 1
        if self.busy_left > 0:
            self.busy_left -= 1
            yield encode_reply(MR_BUSY, ("busy",))
            return
        yield encode_reply(0)


class TestClientBusyRetry:
    def test_idempotent_query_retries_until_success(self):
        stub = BusyDispatcher(busy=2)
        client = MoiraClient(dispatcher=stub, busy_backoff=0.0)
        client.connect()
        assert client.mr_query("get_user_by_login", ["x"]) == 0
        assert stub.calls == 3
        assert client.busy_retried == 2

    def test_retries_exhausted_reports_busy(self):
        stub = BusyDispatcher(busy=99)
        client = MoiraClient(dispatcher=stub, busy_retries=2,
                             busy_backoff=0.0)
        client.connect()
        assert client.mr_query("get_user_by_login", ["x"]) == MR_BUSY
        assert stub.calls == 3   # initial + 2 retries

    def test_mutation_is_never_retried(self):
        stub = BusyDispatcher(busy=99)
        client = MoiraClient(dispatcher=stub, busy_backoff=0.0)
        client.connect()
        assert client.mr_query("add_user", ["x"] * 9) == MR_BUSY
        assert stub.calls == 1   # MR_BUSY surfaced to the caller
        assert client.busy_retried == 0

    def test_pseudo_query_is_retryable(self):
        stub = BusyDispatcher(busy=1)
        client = MoiraClient(dispatcher=stub, busy_backoff=0.0)
        client.connect()
        assert client.mr_query("_dcm_stats", []) == 0
        assert stub.calls == 2
