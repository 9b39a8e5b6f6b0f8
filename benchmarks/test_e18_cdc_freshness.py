"""E18 — CDC freshness: mutation-to-converged-host latency.

The paper's DCM converges hosts on a cron cadence: a committed
mutation waits for the next cycle in which its service is due (hours).
The CDC pipeline treats the WAL as a change stream and converges the
affected hosts as the commit lands.  This bench measures the
difference and gates the claims:

* **Latency** — per design point (``E18_USERS``), N sampled mutations;
  each is committed and the extractor pumped once, event-driven, and
  the mutation must be on the Hesiod host when that one pump returns.
  The wall-clock cost of the pump (extract, regenerate, push, install)
  is the reported p50/p99.  A deployment adds the wait for its next
  1 s cron pump (``CDC_PUMP_SECONDS``); ``perf``'s ``propagate_cdc``
  workload (``client.freshness_p50_ms``) is the maintained measurement
  of the same path.
* **Baseline** — the same mutation applied to a cron-only world; the
  delay until the next converging cycle is read off the virtual clock
  the bench advances cycle by cycle (the paper's cadence: hours).  The
  gate: baseline p50 must exceed one pump period plus the CDC wall p50
  by ``E18_MIN_SPEEDUP`` (default 100x).
* **Storm** — ``E18_STORM`` registrations committed back to back, then
  pumped: coalescing must bound host pushes to under
  ``E18_STORM_FRAC`` (default 5%) of the mutation count.
* **Byte identity** — after the latency run and again after the storm,
  the CDC world's installed host files must be byte-identical to the
  cron-only oracle world that received the same mutations and
  converged the slow way, and a cron cycle on the CDC world itself
  must be a no-op.

The record lands in ``benchmarks/results/E18.json``.

Env knobs (CI smoke uses tiny values): E18_USERS (comma-separated
design points; the first is the gate point with oracle + storm),
E18_SAMPLES, E18_BASELINE_SAMPLES, E18_STORM, E18_STORM_FRAC,
E18_MIN_SPEEDUP.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import record
from repro.core import AthenaDeployment, DeploymentConfig
from repro.core.deployment import CDC_PUMP_SECONDS
from repro.workload import PopulationSpec

USERS = [int(x) for x in
         os.environ.get("E18_USERS", "10000,100000").split(",")]
SAMPLES = int(os.environ.get("E18_SAMPLES", "25"))
BASELINE_SAMPLES = int(os.environ.get("E18_BASELINE_SAMPLES", "3"))
STORM = int(os.environ.get("E18_STORM", "1000"))
STORM_FRAC = float(os.environ.get("E18_STORM_FRAC", "0.05"))
MIN_SPEEDUP = float(os.environ.get("E18_MIN_SPEEDUP", "100"))

BASELINE_WAIT_LIMIT_H = 50      # give up threshold, not a gate

# push residue and pid files: legitimately cadence-dependent, excluded
# from the identity comparison (see tests/test_cdc.py)
RESIDUE = (".moira_update", ".moira_old", ".pid")
SCRIPT_TEMP = "/tmp/moira_install_script"


def build_world(users: int, *, cdc: bool) -> AthenaDeployment:
    d = AthenaDeployment(DeploymentConfig(
        population=PopulationSpec.design_point(users), cdc=cdc))
    d.run_hours(25)     # every service converged at least once
    return d


def installed_files(d: AthenaDeployment) -> dict:
    snapshot = {}
    for name, host in sorted(d.hosts.items()):
        files = {}
        for path in host.fs.listdir(""):
            if path.endswith(RESIDUE) or path == SCRIPT_TEMP:
                continue
            files[path] = host.fs.read(path)
        snapshot[name] = files
    return snapshot


def add_user(client, login: str, uid: int) -> None:
    client.query("add_user", login, str(uid), "/bin/csh", "User",
                 login.capitalize(), "X", "1", str(900000 + uid), "G")


def percentile(values: list[float], frac: float) -> float:
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(len(ranked) * frac))]


def hesiod_passwd(d: AthenaDeployment) -> bytes:
    host = d.hosts[d.handles.hesiod_machine.upper()]
    return host.fs.read("/etc/hesiod/passwd.db")


def measure_latency(d: AthenaDeployment, samples: int,
                    uid_base: int, oracle=None) -> list[float]:
    """Wall seconds of the one pump that converges each of N
    mutations."""
    client = d.direct_client()
    oracle_client = oracle.direct_client() if oracle else None
    wall = []
    for i in range(samples):
        login = f"e18lat{uid_base + i}"
        add_user(client, login, uid_base + i)
        if oracle_client is not None:
            add_user(oracle_client, login, uid_base + i)
        start = time.perf_counter()
        d.pump_cdc()
        wall.append(time.perf_counter() - start)
        assert login.encode() in hesiod_passwd(d)
    return wall


def measure_baseline(d: AthenaDeployment, cdc_world: AthenaDeployment,
                     samples: int, uid_base: int) -> list[float]:
    """Cron-cadence convergence delay for the same mutations (also
    applied to the CDC world so the worlds stay comparable)."""
    client = d.direct_client()
    cdc_client = cdc_world.direct_client()
    delays = []
    for i in range(samples):
        login = f"e18base{uid_base + i}"
        add_user(client, login, uid_base + i)
        add_user(cdc_client, login, uid_base + i)
        cdc_world.pump_cdc()
        t0 = d.clock.now()
        marker = login.encode()
        while marker not in hesiod_passwd(d):
            d.run_hours(0.25)       # one cron period
            assert d.clock.now() - t0 < BASELINE_WAIT_LIMIT_H * 3600
        delays.append(float(d.clock.now() - t0))
    return delays


def run_storm(d: AthenaDeployment, oracle, count: int,
              uid_base: int) -> dict:
    client = d.direct_client()
    oracle_client = oracle.direct_client() if oracle else None
    pushes_before = d.cdc.stats["host_pushes"]
    coalesced_before = d.cdc.stats["pushes_coalesced"]
    start = time.perf_counter()
    for i in range(count):
        login = f"e18storm{uid_base + i}"
        add_user(client, login, uid_base + i)
        if oracle_client is not None:
            add_user(oracle_client, login, uid_base + i)
    d.pump_cdc()
    elapsed = time.perf_counter() - start
    assert f"e18storm{uid_base + count - 1}".encode() in \
        hesiod_passwd(d)
    return {
        "mutations": count,
        "host_pushes": d.cdc.stats["host_pushes"] - pushes_before,
        "coalesced": (d.cdc.stats["pushes_coalesced"]
                      - coalesced_before),
        "wall_s": round(elapsed, 3),
    }


def test_e18_cdc_freshness():
    lines = [
        "E18 — CDC freshness: mutation-to-converged-host latency",
        f"design points {USERS}, {SAMPLES} samples each; storm "
        f"{STORM} mutations (gate: pushes < {STORM_FRAC:.0%})", ""]
    values: dict = {"points": {}}
    gate_users = USERS[0]
    uid = 800_000

    for users in USERS:
        is_gate = users == gate_users
        cdc_world = build_world(users, cdc=True)
        oracle = build_world(users, cdc=False) if is_gate else None

        wall = measure_latency(cdc_world, SAMPLES, uid, oracle)
        uid += SAMPLES
        wall_p50 = percentile(wall, 0.50)
        wall_p99 = percentile(wall, 0.99)
        lines.append(
            f"{users}-user design point: every mutation on its host "
            f"after one pump; pump wall p50 {wall_p50 * 1000:.1f} ms "
            f"p99 {wall_p99 * 1000:.1f} ms")
        values["points"][str(users)] = {
            "samples": SAMPLES,
            "wall_p50_s": round(wall_p50, 4),
            "wall_p99_s": round(wall_p99, 4),
        }

        # a cron cycle right after CDC convergence must be a no-op —
        # the cheap identity oracle, checked at every design point
        report = cdc_world.dcm.run_once()
        assert report.propagations_attempted == 0

        if not is_gate:
            continue

        baseline = measure_baseline(oracle, cdc_world,
                                    BASELINE_SAMPLES, uid)
        uid += BASELINE_SAMPLES
        base_p50 = percentile(baseline, 0.50)
        speedup = base_p50 / (CDC_PUMP_SECONDS + wall_p50)
        lines.append(
            f"  cron baseline p50 {base_p50:.0f} s of cron cadence "
            f"({base_p50 / 3600:.1f} h) vs one {CDC_PUMP_SECONDS} s "
            f"pump period + {wall_p50 * 1000:.0f} ms: {speedup:.0f}x "
            f"(gate >= {MIN_SPEEDUP:.0f}x)")
        values["baseline"] = {
            "samples": BASELINE_SAMPLES,
            "cron_cadence_p50_s": base_p50,
            "speedup_vs_cdc": round(speedup, 1),
        }
        assert speedup >= MIN_SPEEDUP

        storm = run_storm(cdc_world, oracle, STORM, uid)
        uid += STORM
        frac = storm["host_pushes"] / storm["mutations"]
        lines.append(
            f"  storm: {storm['mutations']} mutations -> "
            f"{storm['host_pushes']} host pushes ({frac:.1%}), "
            f"{storm['coalesced']} coalesced, "
            f"{storm['wall_s']:.1f} s wall")
        values["storm"] = {**storm, "push_fraction": round(frac, 4)}
        assert frac < STORM_FRAC, \
            f"storm pushed {frac:.1%} of mutation count"

        # the full oracle: the cron-only world got every mutation and
        # converges the slow way; installed bytes must match exactly
        oracle.run_hours(25)
        assert installed_files(cdc_world) == installed_files(oracle)
        lines.append("  byte identity vs cron oracle: OK "
                     "(latency + storm mutations)")

    record("E18", values, lines)
