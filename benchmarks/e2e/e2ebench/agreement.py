"""Do two sets of runs of the same code agree within the benchmark's own
bounds?  The driver asks the same question before it accepts a benchmark:
a metric whose run-to-run spread is wider than its bound cannot resolve a
regression of that size.
"""

from __future__ import annotations

import statistics
from typing import Callable

from .stats import spread_share

__all__ = ["check_agreement", "compare_sets"]


def _worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def compare_sets(metric: dict, first: list, second: list) -> dict:
    """One end-to-end metric, two sets of values of the same code.

    The sets disagree when the interquartile spread of all their runs
    together exceeds the bound (``setup_s`` excepted: it is the median of
    fresh interpreters already, and only its medians are compared), or
    when the second median is worse than the first by more than the
    bound.  The spread is taken over both sets because the driver takes
    it over ten runs, and a quartile of five is one run's accident.
    """
    bound = metric["bound"]
    medians = [statistics.median(first), statistics.median(second)]
    spread = spread_share(list(first) + list(second))
    widest = max(
        abs(value - median) / median
        for values, median in zip((first, second), medians)
        for value in values
    )
    drift = _worse_by(medians[0], medians[1], metric["better"])
    steady = metric["name"] == "setup_s" or spread <= bound
    return {
        "medians": medians,
        "spread": spread,
        "widest_deviation": widest,
        "second_worse_by": drift,
        "bound": bound,
        "agree": steady and drift <= bound,
    }


def check_agreement(
    bench: dict,
    one_run: Callable[[str, int], dict],
    repeat: int,
    only: str | None = None,
) -> dict:
    """Two sets of ``repeat`` runs per workload, alternating between the
    sets so both see the same moods of the box, every run on a seed of
    its own."""
    report: dict = {"repeat": repeat, "agree": True, "workloads": {}, "runs": []}
    for workload in (w["name"] for w in bench["workloads"]):
        if only and workload != only:
            continue
        sets: tuple = ({}, {})
        for index in range(repeat):
            for which in (0, 1):
                seed = 100 * (which + 1) + index
                result = one_run(workload, seed)
                report["runs"].append(
                    {
                        "workload": workload,
                        "set": which,
                        "seed": seed,
                        "values": {
                            name: entry["value"]
                            for name, entry in result["metrics"].items()
                        },
                        "record": result["record"],
                    }
                )
                for name, entry in result["metrics"].items():
                    sets[which].setdefault(name, []).append(entry["value"])
        verdicts = {
            metric["name"]: compare_sets(
                metric, sets[0][metric["name"]], sets[1][metric["name"]]
            )
            for metric in bench["end_to_end"]
        }
        report["workloads"][workload] = verdicts
        if not all(verdict["agree"] for verdict in verdicts.values()):
            report["agree"] = False
    return report
