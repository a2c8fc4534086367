"""The committed tenancy scenarios replay on the simulator's virtual
clock, so their metrics are bit-stable: a refactor of the slot table
must reproduce the last committed record of ``BENCH_dispatch.json``
exactly (``make bench-check`` only bounds the pair *ratios* at 15 %).
A PR that changes admission behaviour on purpose commits a new record
(``make bench-smoke``) with the change."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def tenancy_metrics(run: dict) -> dict:
    return {
        name: entry["mean"]
        for name, entry in run["benchmarks"].items()
        if name.startswith("tenancy_")
    }


def test_tenancy_metrics_equal_the_committed_record(tmp_path):
    committed = json.loads((ROOT / "benchmarks" / "BENCH_dispatch.json").read_text())
    expected = next(
        metrics
        for metrics in map(tenancy_metrics, reversed(committed["runs"]))
        if metrics
    )
    record = tmp_path / "tenancy.json"
    env = dict(
        os.environ, REPRO_BENCH_JSON=str(record), PYTHONPATH=str(ROOT / "src")
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "benchmarks/bench_tenancy.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    measured = tenancy_metrics(json.loads(record.read_text())["runs"][-1])
    assert len(expected) == 4
    assert measured == expected
