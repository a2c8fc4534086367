"""The committed tenancy scenarios replay on the simulator's virtual
clock, so their metrics are bit-stable: a refactor of the slot table
must reproduce ``tenancy_record.json`` exactly.  A PR that changes
admission behaviour on purpose commits a new record with the change.

The three scenarios of ``benchmarks/bench_tenancy.py`` run once, in a
subprocess (they leave their apps deployed), and each is its own test
here, so a changed admission rule names the scenario that moved."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RECORD = json.loads((Path(__file__).with_name("tenancy_record.json")).read_text())

#: scenario -> the metrics it records
SCENARIOS = {
    "test_light_load_tail_latency": ["tenancy_p99_light"],
    "test_overload_fairness_and_tail": ["tenancy_p99_overload"],
    "test_overload_shedding_and_no_starvation": [
        "tenancy_shed_overload",
        "tenancy_offered_overload",
    ],
}

#: runs each scenario named on the command line, then prints the
#: metrics and the traceback of every scenario that failed as JSON
RUNNER = """
import json, sys, traceback
sys.path.insert(0, "benchmarks")
import bench_tenancy
failed = {}
for name in sys.argv[1:]:
    try:
        getattr(bench_tenancy, name)()
    except Exception:
        failed[name] = traceback.format_exc()
print(json.dumps({"metrics": bench_tenancy.METRICS, "failed": failed}))
"""


@pytest.fixture(scope="module")
def replayed():
    done = subprocess.run(
        [sys.executable, "-c", RUNNER, *SCENARIOS],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_every_recorded_metric_is_pinned(replayed):
    assert sorted(replayed["metrics"]) == sorted(RECORD["metrics"])


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_equals_the_committed_record(replayed, scenario):
    assert scenario not in replayed["failed"], replayed["failed"][scenario]
    names = SCENARIOS[scenario]
    assert {name: replayed["metrics"][name] for name in names} == {
        name: RECORD["metrics"][name] for name in names
    }
