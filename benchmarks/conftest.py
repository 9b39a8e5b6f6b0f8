"""Shared benchmark fixtures and the one result writer.

``paper_deployment`` is the paper-scale world (10,000 active users, 20
NFS servers, one Hesiod server, one mail hub, three Zephyr servers) —
built once per benchmark session.  Every experiment emits through
:func:`record`, one JSON file per experiment with one schema
(``tests/test_bench_records.py`` checks it); EXPERIMENTS.md records
the paper-vs-measured comparison.
"""

from __future__ import annotations

import gc
import json
import os
import re
import subprocess
from pathlib import Path
from typing import Sequence

import pytest

from repro.core import AthenaDeployment, DeploymentConfig
from repro.workload import PopulationSpec

RESULTS_DIR = Path(__file__).parent / "results"

# every size / gate knob an experiment reads: E11_USERS, E18_STORM, ...
_KNOB = re.compile(r"^(E\d+|F1|T1)_[A-Z0-9_]+$")


def overrides() -> dict[str, str]:
    """The experiment knobs set in the environment (``{}`` = every
    experiment runs at its default, committed-baseline size)."""
    return {k: v for k, v in sorted(os.environ.items()) if _KNOB.match(k)}


def results_dir() -> Path:
    """Where this run's records land.  Only a run at default sizes may
    write a committed baseline; any knob override diverts the run to
    the git-ignored ``results/smoke/``."""
    return RESULTS_DIR / "smoke" if overrides() else RESULTS_DIR


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=RESULTS_DIR.parent,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record(experiment: str, values: dict,
           table: Sequence[str] = ()) -> Path:
    """Write one experiment's record: its numbers (*values*), the
    human-readable *table* (also printed, so ``pytest -s`` shows it),
    and where they came from — the commit and the knob overrides."""
    path = results_dir() / f"{experiment}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "experiment": experiment,
        "commit": _commit(),
        "overrides": overrides(),
        "values": values,
        "table": list(table),
    }, indent=2, sort_keys=True) + "\n")
    print("\n" + "\n".join(table))
    return path


@pytest.fixture(scope="module", autouse=True)
def _collect_between_experiments():
    """Start every experiment module from a fully collected heap.

    CPython runs a full (generation-2) collection once ten generation-1
    collections have passed since the last one (and enough objects have
    been promoted since), and a full collection walks every live
    object: ~0.3-0.5 s over the paper-scale world.
    Where that pause lands depends on what earlier modules allocated —
    after E12's dropped worlds it fell inside E3's 200-round timed loop
    and read as +1.3 ms per query (48 µs alone).  The garbage is not the
    cost; the schedule is, so reset it here rather than in ``src/``."""
    gc.collect()


@pytest.fixture(scope="session")
def paper_deployment():
    """The production shape from §5.1 of the paper."""
    return AthenaDeployment(DeploymentConfig(
        population=PopulationSpec()))  # defaults = the paper's numbers


@pytest.fixture()
def small_deployment():
    """A quick deployment for control-flow-heavy experiments."""
    return AthenaDeployment(DeploymentConfig(
        population=PopulationSpec(users=150, unregistered_users=20,
                                  nfs_servers=4, maillists=20,
                                  clusters=4, machines_per_cluster=3,
                                  printers=8, network_services=20)))
