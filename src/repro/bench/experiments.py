"""Experiment generators for every table and figure of the paper.

Each ``figNN``/``tableN`` function sweeps the corresponding
configurations, returns the raw series, renders the paper-format table,
and evaluates the *shape checks* ``make reproduce`` asserts
(``benchmarks/README.md``, "Running"):

* **Figure 16** — hand-coded RMI vs woven AspectJ-analogue sieve;
  check: overhead < 5 % at every filter count (compute-bound scale).
* **Table 1** — the five module combinations (regenerated from the
  composition metadata, not hard-coded strings).
* **Figure 17** — execution time vs filters for the five combinations;
  checks: farm beats pipeline, threads flatten past one machine's
  cores, MPP below RMI, dynamic ≈ static farm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.apps.primes import TABLE1_COMBINATIONS, SieveWorkload, sieve_app
from repro.bench.costmodel import HANDCODED_COST_MODEL, PAPER_COST_MODEL, CostModel
from repro.bench.harness import RunResult, run_handcoded, run_sieve
from repro.bench.report import render_checks, render_series, render_table1
from repro.parallel.concern import Concern

__all__ = ["ExperimentResult", "FILTER_COUNTS", "fig16", "fig17", "table1"]

#: the x-axis of Figures 16 and 17
FILTER_COUNTS: tuple[int, ...] = (1, 4, 7, 10, 13, 16)


@dataclass
class ExperimentResult:
    """Series + rendered report + shape-check outcomes."""

    name: str
    xs: Sequence[int]
    series: dict[str, list[float]]
    checks: list[tuple[str, bool]] = field(default_factory=list)
    report: str = ""
    runs: list[RunResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def fig16(
    filters: Sequence[int] = FILTER_COUNTS,
    maximum: int = 10_000_000,
    packs: int = 50,
    woven_cost: CostModel = PAPER_COST_MODEL,
    hand_cost: CostModel = HANDCODED_COST_MODEL,
) -> ExperimentResult:
    """Figure 16 — performance of Java (hand-coded) versus AspectJ."""
    series: dict[str, list[float]] = {"AspectJ": [], "Java": []}
    runs: list[RunResult] = []
    for n in filters:
        woven = run_sieve("PipeRMI", n, maximum, packs, cost_model=woven_cost)
        hand = run_handcoded("pipeline", n, maximum, packs, cost_model=hand_cost)
        assert woven.correct and hand.correct
        series["AspectJ"].append(woven.sim_time)
        series["Java"].append(hand.sim_time)
        runs += [woven, hand]
    overhead = [
        (aj - java) / java
        for aj, java in zip(series["AspectJ"], series["Java"])
    ]
    checks = [
        (
            f"AOP overhead < 5% at every filter count "
            f"(max {max(overhead):.1%})",
            max(overhead) < 0.05,
        ),
        (
            "AspectJ version is never faster than hand-coded",
            min(overhead) >= -0.01,
        ),
        (
            "both curves decrease from 1 to 16 filters",
            series["AspectJ"][-1] < series["AspectJ"][0]
            and series["Java"][-1] < series["Java"][0],
        ),
    ]
    report = (
        render_series(
            "Figure 16 - Performance of Java versus AspectJ (prime sieve, "
            f"max={maximum:,}, {packs} packs)",
            "filters",
            list(filters),
            series,
            bar_for="AspectJ",
        )
        + "\n"
        + render_checks("shape checks", checks)
    )
    return ExperimentResult("fig16", list(filters), series, checks, report, runs)


def table1() -> ExperimentResult:
    """Table 1 — regenerated from the composition metadata itself."""
    from repro.cluster import paper_testbed
    from repro.sim import Simulator

    workload = SieveWorkload(10_000, 2)
    rows = []
    for combo in TABLE1_COMBINATIONS:
        app = sieve_app(combo, workload, 2, cluster=paper_testbed(Simulator()))
        partition_modules = app.composition.by_concern(Concern.PARTITION)
        partition = partition_modules[0].name if partition_modules else "-"
        concurrency = (
            "merged"
            if app.partition is not None and app.partition.provides_concurrency
            else ("yes" if app.composition.by_concern(Concern.CONCURRENCY) else "no")
        )
        dist_modules = app.composition.by_concern(Concern.DISTRIBUTION)
        distribution = (
            dist_modules[0].name.replace("distribution-", "").upper()
            if dist_modules
            else "no"
        )
        rows.append(
            {
                "name": combo,
                "partition": partition,
                "concurrency": concurrency,
                "distribution": distribution,
            }
        )
        app.shutdown()
    expected = {
        "FarmThreads": ("farm", "no"),
        "PipeRMI": ("pipeline", "RMI"),
        "FarmRMI": ("farm", "RMI"),
        "FarmDRMI": ("dynamic-farm", "RMI"),
        "FarmMPP": ("farm", "MPP"),
    }
    checks = [
        (
            f"{row['name']}: partition={row['partition']} "
            f"distribution={row['distribution']}",
            (row["partition"], row["distribution"]) == expected[row["name"]],
        )
        for row in rows
    ]
    report = render_table1(rows) + "\n" + render_checks("row checks", checks)
    result = ExperimentResult("table1", [], {}, checks, report)
    result.rows = rows  # type: ignore[attr-defined]
    return result


def fig17(
    filters: Sequence[int] = FILTER_COUNTS,
    maximum: int = 10_000_000,
    packs: int = 50,
    combos: Sequence[str] = TABLE1_COMBINATIONS,
    cost_model: CostModel = PAPER_COST_MODEL,
) -> ExperimentResult:
    """Figure 17 — execution times of the module combinations."""
    series: dict[str, list[float]] = {combo: [] for combo in combos}
    runs: list[RunResult] = []
    for combo in combos:
        for n in filters:
            result = run_sieve(combo, n, maximum, packs, cost_model=cost_model)
            assert result.correct, f"{combo}@{n} incorrect"
            series[combo].append(result.sim_time)
            runs.append(result)
    xs = list(filters)
    checks = _fig17_checks(xs, series)
    report = (
        render_series(
            f"Figure 17 - Performance of AspectJ versions (max={maximum:,}, "
            f"{packs} packs, 7-node testbed)",
            "filters",
            xs,
            series,
        )
        + "\n"
        + render_checks("shape checks", checks)
    )
    return ExperimentResult("fig17", xs, series, checks, report, runs)


def _fig17_checks(
    xs: Sequence[int], series: dict[str, list[float]]
) -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []

    def have(*names: str) -> bool:
        return all(n in series for n in names)

    if have("FarmThreads"):
        threads = series["FarmThreads"]
        beyond = [t for x, t in zip(xs, threads) if x >= 7]
        if beyond and len(threads) >= 2:
            flat = max(beyond) > 0 and (
                max(beyond) - min(beyond)
            ) / max(beyond) < 0.15
            checks.append(
                ("FarmThreads flattens beyond one machine's cores", flat)
            )
    if have("FarmRMI", "PipeRMI"):
        farm_wins = all(
            f <= p * 1.02
            for x, f, p in zip(xs, series["FarmRMI"], series["PipeRMI"])
            if x >= 4
        )
        checks.append(("farm beats pipeline at every point >= 4 filters", farm_wins))
    if have("FarmMPP", "FarmRMI"):
        mpp_wins = all(
            m < r
            for x, m, r in zip(xs, series["FarmMPP"], series["FarmRMI"])
            if x >= 4
        )
        checks.append(("FarmMPP below FarmRMI at every point >= 4 filters", mpp_wins))
    if have("FarmDRMI", "FarmRMI"):
        close = all(
            abs(d - s) / s < 0.25
            for d, s in zip(series["FarmDRMI"], series["FarmRMI"])
        )
        checks.append(
            ("dynamic farm within 25% of static farm (no load imbalance)", close)
        )
    if have("FarmRMI"):
        farm = series["FarmRMI"]
        through_13 = [t for x, t in zip(xs, farm) if x <= 13]
        decreasing = all(
            later <= earlier * 1.02
            for earlier, later in zip(through_13, through_13[1:])
        )
        checks.append(("FarmRMI decreases monotonically through 13 filters", decreasing))
        # At 16 filters, 7 nodes host the 16 static workers unevenly
        # (2 nodes carry 3); stragglers may lift the static farm slightly
        # off its minimum — it must still stay near it.
        checks.append(
            (
                "FarmRMI at 16 filters stays within 25% of its best point",
                farm[-1] <= min(farm) * 1.25,
            )
        )
        if have("FarmDRMI") and xs and xs[-1] == 16:
            checks.append(
                (
                    "demand-driven farm absorbs the 16-filter imbalance "
                    "(FarmDRMI <= FarmRMI at 16)",
                    series["FarmDRMI"][-1] <= farm[-1] * 1.02,
                )
            )
    if have("FarmThreads", "FarmRMI") and xs and xs[0] == 1:
        checks.append(
            (
                "without distribution overhead FarmThreads wins at 1 filter",
                series["FarmThreads"][0] <= series["FarmRMI"][0],
            )
        )
    return checks
