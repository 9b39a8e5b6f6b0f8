"""perf — the measurement spine (see perf/README.md).

One harness, five sleep-free workloads at the paper's 10k design point,
end-to-end metrics with regression bounds (BENCHMARK.json), and a
per-layer budget taken from a separate traced run.  Nothing in here is
imported by ``src/repro``; the harness drives the system only through
its public entry points.
"""
