"""perf.repeat — how steady is the benchmark on this host?

    PYTHONPATH=src python -m perf.repeat --sets 2 --runs 10

Runs independent sets of untraced runs (a fresh seed per run) and
prints, per (metric, workload): each set's median and quartiles, the
spread (Q3 - Q1) / median the driver computes, the relative difference
of the two medians in the direction that counts as worse, the bound
from ``perf.metrics`` and a verdict.  This is the source of the bounds
recorded in BENCHMARK.json.  Nothing is written to disk.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):       # run as a file: make imports resolve
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from perf import run as perf_run  # noqa: E402
from perf.metrics import END_TO_END, NAMED, RUN_SECONDS, WORKLOADS  # noqa: E402
from perf.stats import quartile_spread  # noqa: E402


def collect(workloads: list, sets: int, runs: int, seconds: float,
            seed: int, smoke: bool) -> dict:
    """values[workload][metric][set] -> list of per-run values."""
    values: dict = {}
    for index in range(sets):
        for name in workloads:
            for run in range(runs):
                spec = {"workload": name, "smoke": smoke,
                        "seconds": seconds,
                        "seed": seed + index * runs + run}
                result = perf_run.measure_untraced(
                    spec, 1 if smoke else perf_run.SETUP_REPEATS)
                if not result["correct"]:
                    raise SystemExit(f"{name}: oracle failed, seed "
                                     f"{spec['seed']}")
                for metric, value in {**result["e2e"],
                                      **result["named"]}.items():
                    values.setdefault(name, {}).setdefault(
                        metric, [[] for _ in range(sets)]
                    )[index].append(value)
                print(f"set {index + 1} {name} run {run + 1}/{runs}",
                      file=sys.stderr, flush=True)
    return values


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def table(values: dict) -> list:
    bounds = {name: (better, bound)
              for name, _unit, better, bound in END_TO_END}
    directions = {name: better for name, _unit, better in NAMED}
    rows = []
    for workload, metrics in values.items():
        for metric, sets in metrics.items():
            better, bound = bounds.get(
                metric, (directions.get(metric, "lower"), None))
            row = {"workload": workload, "metric": metric,
                   "bound": bound, "sets": []}
            for samples in sets:
                q1, q2, q3 = statistics.quantiles(samples, n=4) \
                    if len(samples) > 1 else (samples[0],) * 3
                row["sets"].append({
                    "median": statistics.median(samples), "q1": q1,
                    "q3": q3, "spread": quartile_spread(samples)})
            if len(sets) > 1:
                row["worse_by"] = worse_by(row["sets"][0]["median"],
                                           row["sets"][1]["median"],
                                           better)
            if bound is None:
                row["verdict"] = "reported"
            else:
                spreads = [s["spread"] or 0.0 for s in row["sets"]]
                steady = metric == "setup_s" or max(spreads) <= bound
                agree = row.get("worse_by", 0.0) <= bound
                row["verdict"] = "ok" if steady and agree else "OVER"
            rows.append(row)
    return rows


def render(rows: list) -> str:
    out = [f"{'workload':26} {'metric':22} {'median':>12} {'q1':>12} "
           f"{'q3':>12} {'spread':>7} | second set ... | worse_by bound "
           f"verdict"]
    for row in rows:
        cells = []
        for stats in row["sets"]:
            cells.append(f"{stats['median']:12.4g} {stats['q1']:12.4g} "
                         f"{stats['q3']:12.4g} "
                         f"{(stats['spread'] or 0.0):7.3f}")
        bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
        out.append(f"{row['workload']:26} {row['metric']:22} "
                   + " | ".join(cells)
                   + f" | {row.get('worse_by', 0.0):+7.3f} {bound:>5} "
                   f"{row['verdict']}")
    return "\n".join(out)


def main(argv: list) -> int:
    names = [name for name, _why in WORKLOADS]
    parser = argparse.ArgumentParser(prog="perf.repeat",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--workload", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json", action="store_true",
                        help="print the table as JSON instead of text")
    args = parser.parse_args(argv)
    try:
        rows = table(collect(args.workload, args.sets, args.runs,
                             args.seconds, args.seed, args.smoke))
    finally:
        perf_run.cleanup_scratch()
    print(json.dumps(rows, indent=1) if args.json else render(rows))
    return 0 if all(row["verdict"] != "OVER" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
