"""perf.run — run the benchmark and print every metric by name.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m perf.run [--workload NAME ...] [--smoke]

Each (workload, run) executes in a fresh child interpreter
(``perf/child.py``).  ``--trace 0`` reports the end-to-end metrics,
taken with no instrumentation loaded; ``--trace 1`` reports the
per-layer metrics from a traced child plus an untraced twin that gives
the tracing overhead.  With neither, both are run for every selected
workload.  The full document is printed first; the **last line** is the
driver's one-line object ``{"correct", "attempted", "failed",
"metrics"}`` for the last run made.  Exit status is non-zero if any
correctness oracle failed.

Scratch files (WAL, checkpoint, dumps) go under ``.perf_tmp/`` next to
this package and are removed before exit; no result file is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):       # run as a file: make imports resolve
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf.metrics import (  # noqa: E402
    END_TO_END, NAMED, PER_LAYER, RUN_SECONDS, WORKLOADS)

CHILD = Path(__file__).resolve().parent / "child.py"
SCRATCH = ROOT / ".perf_tmp"
SETUP_REPEATS = 3           # setup_s is the median of this many set-ups
CHILD_TIMEOUT_S = 150
SMOKE_SECONDS = 1
UNITS = {name: unit for name, unit, *_rest in END_TO_END + PER_LAYER}


class ChildFailed(RuntimeError):
    pass


def run_child(spec: dict) -> dict:
    """One fresh interpreter; returns the JSON object it printed."""
    tmp = SCRATCH / str(os.getpid()) / spec["workload"]
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        done = subprocess.run(
            [sys.executable, str(CHILD), json.dumps({**spec,
                                                     "tmp": str(tmp)})],
            cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(
            f"{spec['workload']}: child exited {done.returncode}\n"
            f"{done.stderr[-4000:]}")
    return json.loads(lines[-1])


def cleanup_scratch() -> None:
    shutil.rmtree(SCRATCH / str(os.getpid()), ignore_errors=True)
    try:
        SCRATCH.rmdir()     # only if no other run is using it
    except OSError:
        pass


def measure_untraced(spec: dict, setup_repeats: int) -> dict:
    """The end-to-end run; setup_s becomes the median of several
    set-ups, each in its own interpreter."""
    children = [run_child({**spec, "trace": False, "setup_only": True})
                for _ in range(setup_repeats - 1)]
    result = run_child({**spec, "trace": False})
    children.append(result)
    result["setup_samples_s"] = [c["setup_s"] for c in children]
    result["e2e"]["setup_s"] = statistics.median(
        result["setup_samples_s"])
    result["named"]["setup_raw_s"] = statistics.median(
        c["setup_raw_s"] for c in children)
    return result


def measure_traced(spec: dict, untraced: dict) -> dict:
    """The traced run, completed with what only its untraced twin
    knows: the tracing overhead and the client-observed numbers."""
    result = run_child({**spec, "trace": True})
    layers = result["layers"]
    base = untraced["named"]["ops_per_s"]   # 0 only if its oracle failed
    layers["perf.trace_overhead_ratio"] = \
        1.0 - result["named"]["ops_per_s"] / base if base else 0.0
    for name, _unit, _better in NAMED:
        if name in untraced["named"]:
            layers["client." + name] = untraced["named"][name]
    layers["protocol.tcp_stall_ratio"] = \
        untraced["named"].get("tcp_stall_ratio", 0.0)
    layers["host.cpu_slowness"] = untraced["cpu_slowness"]
    result["correct"] = result["correct"] and untraced["correct"]
    return result


def contract_line(result: dict, metrics: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    })


def _wal_filesystem() -> str:
    """Filesystem type under the scratch directory (Linux)."""
    best, fs_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                _dev, mount, kind = line.split()[:3]
                if str(ROOT).startswith(mount) and len(mount) > len(best):
                    best, fs_type = mount, kind
    except OSError:
        pass
    return fs_type


def host_block() -> dict:
    try:
        # the ceiling keeps git from looking for a repository above ROOT
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "wal_filesystem": _wal_filesystem()}


def parse_args(argv: list) -> argparse.Namespace:
    names = [name for name, _why in WORKLOADS]
    parser = argparse.ArgumentParser(prog="perf.run",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"window length (default {RUN_SECONDS}; "
                             f"{SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 = end-to-end only, 1 = per-layer only; "
                             "default both")
    parser.add_argument("--trace-out", metavar="DIR", default=None,
                        help="write each traced run's spans to "
                             "DIR/<workload>.json")
    parser.add_argument("--smoke", action="store_true",
                        help="500-user world, 1 s windows, one set-up; "
                             "output stamped smoke")
    return parser.parse_args(argv)


def main(argv: list) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf.run: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else \
        (SMOKE_SECONDS if args.smoke else RUN_SECONDS)
    document = {"smoke": args.smoke, "seed": args.seed,
                "window_seconds": seconds, "host": host_block(),
                "units": UNITS, "workloads": {}}
    last_line = ""
    all_correct = True
    try:
        for name in args.workload:
            spec = {"workload": name, "seed": args.seed,
                    "seconds": seconds, "smoke": args.smoke}
            entry = document["workloads"][name] = {}
            untraced = None
            if args.trace in (None, 0):
                untraced = measure_untraced(
                    spec, 1 if args.smoke else SETUP_REPEATS)
                entry["end_to_end"] = untraced
                last_line = contract_line(untraced, untraced["e2e"])
                all_correct &= untraced["correct"]
            if args.trace in (None, 1):
                if untraced is None:
                    # the driver's --trace 1: split the window between
                    # the traced child and its untraced twin
                    spec = {**spec, "seconds": seconds / 2}
                    untraced = run_child({**spec, "trace": False})
                if args.trace_out:
                    Path(args.trace_out).mkdir(parents=True,
                                               exist_ok=True)
                    spec = {**spec, "trace_out": str(
                        Path(args.trace_out).resolve() / f"{name}.json")}
                traced = measure_traced(spec, untraced)
                entry["per_layer"] = traced
                last_line = contract_line(traced, traced["layers"])
                all_correct &= traced["correct"]
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perf.run: {exc}", file=sys.stderr)
        return 3
    finally:
        cleanup_scratch()
    print(json.dumps(document, indent=1, sort_keys=True))
    print(last_line)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
