"""Every experiment under ``benchmarks/`` emits through one writer,
``benchmarks.conftest.record``: one JSON file per experiment, one
schema.  Committed baselines come from default-size runs only; a run
with any size knob set lands under the git-ignored ``results/smoke/``
(CI's ``experiments`` job re-runs this file after its smoke run)."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"
RESULTS = BENCHMARKS / "results"
SMOKE = RESULTS / "smoke"

# the ids the surviving experiments record under, read off their source
EXPERIMENTS = sorted({
    experiment
    for source in BENCHMARKS.glob("test_*.py")
    for experiment in re.findall(r'\brecord\(\s*"([^"]+)"',
                                 source.read_text())})


def check(path: Path, *, smoke: bool) -> None:
    data = json.loads(path.read_text())
    assert set(data) == {"experiment", "commit", "overrides", "values",
                         "table"}
    assert data["experiment"] == path.stem
    assert isinstance(data["commit"], str) and data["commit"]
    assert isinstance(data["values"], dict) and data["values"]
    assert data["table"] and all(isinstance(line, str)
                                 for line in data["table"])
    assert all(isinstance(v, str) for v in data["overrides"].values())
    # a size override and a committed baseline never share a file
    assert bool(data["overrides"]) == smoke


def test_the_experiments_were_found():
    assert {"E11", "E18", "t1_file_organization"} <= set(EXPERIMENTS)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_committed_baseline(experiment):
    check(RESULTS / f"{experiment}.json", smoke=False)


def test_nothing_else_is_committed_beside_the_records():
    assert sorted(p.name for p in RESULTS.iterdir() if p != SMOKE) == \
        sorted(f"{experiment}.json" for experiment in EXPERIMENTS)


@pytest.mark.parametrize("path", sorted(SMOKE.glob("*.json")),
                         ids=lambda path: path.stem)
def test_smoke_record(path):
    check(path, smoke=True)
