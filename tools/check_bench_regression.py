#!/usr/bin/env python3
"""CI gate over EVERY committed benchmark pair.

Reads ``benchmarks/BENCH_dispatch.json`` (after ``make bench-smoke``
appended the current run) and, for each pair declared in
``tools/bench_gates.json``, compares the **within-run mean ratio**

    mean(numerator bench) / mean(denominator bench)

of the latest run against the committed trajectory (the median ratio of
all earlier runs that contain the pair).  Using within-run ratios — not
absolute means — keeps the gate meaningful across machines of different
speeds: a regression means the optimised side lost ground *relative to
its baseline on the same box*.

A pair fails when its current ratio exceeds ``baseline * (1 +
max_regression)`` (per-pair threshold from the config;
``BENCH_REGRESSION_THRESHOLD`` overrides ALL thresholds when set).  A
pair may additionally declare an **absolute** ``max_ratio``: the
current within-run ratio must stay at or below it regardless of the
trajectory — this is how a landed optimisation is *locked in* (e.g. the
five-aspect stack must stay under ``max_ratio`` × a plain call even if
the committed baseline still carries slow pre-optimisation runs).  A
pair whose benches are missing from the latest run fails too — a gate
that silently stops measuring is worse than a red one.  Pairs with no
earlier baseline are skipped with a notice (first run after the pair
lands) unless they carry a ``max_ratio``, which needs no baseline.  A
pair re-based after a change that moved its *denominator* (the ratio
now measures something else) declares ``baseline_since``: runs stamped
before it are not that pair's baseline.

Every failing pair is reported as a GitHub Actions ``::error``
annotation naming the pair (so the regression is visible on the PR
without opening the log) in addition to the human-readable verdict and
the non-zero exit code.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from datetime import datetime
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent
DEFAULT_CONFIG = TOOLS_DIR / "bench_gates.json"


def results_path() -> Path:
    override = os.environ.get("REPRO_BENCH_JSON")
    if override:
        return Path(override)
    return TOOLS_DIR.parent / "benchmarks" / "BENCH_dispatch.json"


def config_path() -> Path:
    override = os.environ.get("REPRO_BENCH_GATES")
    if override:
        return Path(override)
    return DEFAULT_CONFIG


def pair_ratio(run: dict, numerator: str, denominator: str) -> float | None:
    """The numerator/denominator mean ratio of one run, or None."""
    benches = run.get("benchmarks", {})
    num = benches.get(numerator, {}).get("mean")
    den = benches.get(denominator, {}).get("mean")
    if not num or not den:
        return None
    return num / den


def _stamp(timestamp: str) -> datetime:
    """A run's ``%Y-%m-%dT%H:%M:%S%z`` stamp as a comparable instant."""
    return datetime.strptime(timestamp, "%Y-%m-%dT%H:%M:%S%z")


def annotate_error(title: str, message: str) -> None:
    """Emit a GitHub Actions error annotation (a harmless plain line
    anywhere else)."""
    print(f"::error title={title}::{message}")


def check_pair(pair: dict, runs: list[dict], override: float | None) -> str:
    """Gate one pair; returns 'ok', 'skip', or 'fail' (already printed)."""
    name = pair["name"]
    numerator, denominator = pair["numerator"], pair["denominator"]
    threshold = override if override is not None else float(
        pair.get("max_regression", 0.25)
    )
    current = pair_ratio(runs[-1], numerator, denominator)
    if current is None:
        print(
            f"bench-check[{name}]: latest run lacks the "
            f"{numerator}/{denominator} pair — did bench-smoke run "
            f"bench_aop_dispatch.py?"
        )
        annotate_error(
            f"bench pair missing: {name}",
            f"the latest bench run did not record {numerator} / "
            f"{denominator}; the gate cannot measure this pair",
        )
        return "fail"
    max_ratio = pair.get("max_ratio")
    if max_ratio is not None and current > float(max_ratio):
        meaning = pair.get("meaning", "the optimised side lost ground")
        print(
            f"bench-check[{name}]: ratio {current:.3f} exceeded the "
            f"absolute cap {float(max_ratio):.3f} -> REGRESSION"
        )
        annotate_error(
            f"bench regression: {name}",
            f"pair ratio {current:.3f} exceeded the absolute cap "
            f"{float(max_ratio):.3f} — {meaning}",
        )
        return "fail"
    since = pair.get("baseline_since")
    prior = [
        r
        for r in (
            pair_ratio(run, numerator, denominator)
            for run in runs[:-1]
            if since is None or _stamp(run["timestamp"]) >= _stamp(since)
        )
        if r is not None
    ]
    if not prior:
        if max_ratio is not None:
            print(
                f"bench-check[{name}]: ratio {current:.3f} within the "
                f"absolute cap {float(max_ratio):.3f} "
                f"(no trajectory baseline yet) -> OK"
            )
            return "ok"
        print(
            f"bench-check[{name}]: no committed baseline yet "
            f"(current ratio {current:.3f}) — skipping"
        )
        return "skip"
    baseline = statistics.median(prior)
    limit = baseline * (1.0 + threshold)
    verdict = "OK" if current <= limit else "REGRESSION"
    print(
        f"bench-check[{name}]: ratio {current:.3f} vs baseline "
        f"{baseline:.3f} (median of {len(prior)} runs), limit "
        f"{limit:.3f} [+{threshold:.0%}] -> {verdict}"
    )
    if current > limit:
        meaning = pair.get("meaning", "the optimised side lost ground")
        print(f"bench-check[{name}]: {meaning}")
        annotate_error(
            f"bench regression: {name}",
            f"pair ratio {current:.3f} exceeded limit {limit:.3f} "
            f"(baseline {baseline:.3f} +{threshold:.0%}) — {meaning}",
        )
        return "fail"
    return "ok"


def main() -> int:
    override_env = os.environ.get("BENCH_REGRESSION_THRESHOLD")
    override = float(override_env) if override_env else None
    config_file = config_path()
    if not config_file.exists():
        annotate_error(
            "bench gate config missing",
            f"{config_file} not found — the regression gate has no pairs",
        )
        return 1
    pairs = json.loads(config_file.read_text()).get("pairs", [])
    if not pairs:
        annotate_error(
            "bench gate config empty",
            f"{config_file} declares no pairs — the gate gates nothing",
        )
        return 1
    path = results_path()
    if not path.exists():
        print(f"bench-check: {path} not found (no bench run?) — skipping")
        return 0
    runs = json.loads(path.read_text()).get("runs", [])
    if not runs:
        print("bench-check: trajectory has no runs — skipping")
        return 0
    verdicts = [check_pair(pair, runs, override) for pair in pairs]
    failed = verdicts.count("fail")
    print(
        f"bench-check: {len(pairs)} pairs gated — "
        f"{verdicts.count('ok')} ok, {verdicts.count('skip')} skipped, "
        f"{failed} failed"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
