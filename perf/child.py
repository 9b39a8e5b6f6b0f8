"""One (workload, run) in a fresh interpreter.

``perf.run`` starts this file as a child process so heap, thread and
cache state never leak between runs; it prints one JSON object as its
last line.  With ``"trace": true`` the wrappers of ``perf.trace`` are
installed before the world is built; otherwise that module is never
imported.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

if __package__ in (None, ""):       # run as a file: make imports resolve
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

STARTED = time.perf_counter()   # set-up time includes loading the program

from perf.stats import (  # noqa: E402
    median, percentile, ratio, summarize)
from perf.workloads import (  # noqa: E402
    STALL_SECONDS, TAIL_PCT, make_workload)

US = 1e6


def _named(samples, workload) -> tuple:
    """The workload-specific client-observed numbers and their counts."""
    named, counts = dict(workload.named), {}
    for name, values in samples.latency.items():
        if name not in TAIL_PCT or not values:
            continue
        stats = summarize(values, TAIL_PCT[name])
        scale, unit = (1e3, "ms") if name in ("session", "freshness") \
            else (US, "us")
        named[f"{name}_p50_{unit}"] = stats["p50"] * scale
        named[f"{name}_p{int(TAIL_PCT[name])}_{unit}"] = \
            stats["tail"] * scale
        counts[name] = {"n": stats["n"],
                        "tail_supported": stats["tail_supported"]}
    if samples.tcp_latency:
        named["tcp_stall_ratio"] = sum(
            1 for v in samples.tcp_latency if v > STALL_SECONDS
        ) / len(samples.tcp_latency)
    return named, counts


def run(spec: dict, started: float) -> dict:
    tracer = None
    if spec["trace"]:
        from perf import trace
        tracer = trace.Tracer()
        trace.install(tracer)

    name = spec["workload"]
    workload = make_workload(name, spec["seed"], spec["smoke"],
                             Path(spec["tmp"]),
                             tracer.span if tracer else None)
    out = {"workload": name, "seed": spec["seed"],
           "seconds": spec["seconds"], "smoke": spec["smoke"],
           "traced": bool(tracer)}
    try:
        workload.setup()
        extra_s, extra_cpu = workload.extra_setup
        raw = time.perf_counter() - started - extra_s
        # set-up time at the reference host speed: its CPU seconds
        # shrink or stretch with the host, its waiting does not
        cpu = min(raw, time.process_time() - extra_cpu)
        slow = median(
            workload.setup_slowness + [workload.speed.slowness()])
        out["setup_raw_s"] = raw
        out["setup_s"] = raw - cpu + cpu / slow
        if spec.get("setup_only"):
            return out
        before = {}
        if tracer:
            from perf import layers

        def before_window() -> None:
            if tracer:
                before.update(layers.counters(workload))
                before["at"] = time.perf_counter()

        samples = workload.window(
            spec["seconds"] * workload.window_share, before_window)
        if tracer:
            tracer.mark("window", before["at"], time.perf_counter())
            after = layers.counters(workload)
        correct = workload.finish() and samples.failed == 0 \
            and samples.completed > 0
        primary = samples.latency.get(workload.primary_class, [])
        # throughput and cpu cost are medians over the window's slices:
        # a multi-second excursion (see README, TCP stall regimes) then
        # moves one slice, not the run
        busy = [s for s in samples.slices if s[0] > 0 and s[1] > 0]
        ok_ratio = samples.completed / max(1, samples.attempted)
        named, counts = _named(samples, workload)
        named.update(
            setup_raw_s=out["setup_raw_s"],
            ops_per_s=ok_ratio * median(
                done / t for t, done, _cpu, _ref in busy),
            lat_p90_us=percentile(primary, 90.0) * US if primary else 0.0,
            fail_ratio=1.0 - ok_ratio,
            cpu_raw_us_per_op=US * median(
                cpu / done for _t, done, cpu, _ref in busy))
        out.update(
            correct=bool(correct), attempted=samples.attempted,
            failed=samples.failed, plan_sha=workload.plan_sha(),
            oracle=workload.oracle, named=named, counts=counts,
            # how slowly the host ran the speed probe over the window,
            # relative to the speed cpu_us_per_op is quoted at
            cpu_slowness=ratio(sum(s[2] for s in busy),
                                sum(s[3] for s in busy)),
            e2e={
                "setup_s": out["setup_s"],
                "cpu_us_per_op": US * median(
                    ref / done for _t, done, _cpu, ref in busy),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            })
        if tracer:
            out["layers"] = layers.derive(
                workload, tracer, samples, before, after,
                layers.probes(workload))
            out["spans"] = len(tracer.spans)
            if spec.get("trace_out"):
                with open(spec["trace_out"], "w", encoding="utf-8") as fh:
                    json.dump({"workload": name, "seed": spec["seed"],
                               "marks": tracer.marks,
                               "spans": [s.as_dict()
                                         for s in tracer.spans]}, fh)
        return out
    finally:
        workload.teardown()


def main(argv: list) -> int:
    print(json.dumps(run(json.loads(argv[1]), STARTED)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
