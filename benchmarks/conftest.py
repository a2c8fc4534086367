"""Benchmark-suite plumbing.

The paper-reproduction benches produce ASCII tables (the regenerated
figures).  pytest captures stdout, so benches register their reports
here and a terminal-summary hook prints them after the run — they appear
in ``bench_output.txt`` alongside pytest-benchmark's own tables.

Environment knobs:

* ``REPRO_BENCH_MAXIMUM`` — sieve scale (default 10_000_000, the paper's);
* ``REPRO_BENCH_PACKS``   — number of messages (default 50, the paper's).
"""

from __future__ import annotations

import os

_REPORTS: list[str] = []


def register_report(text: str) -> None:
    _REPORTS.append(text)


def bench_maximum() -> int:
    return int(os.environ.get("REPRO_BENCH_MAXIMUM", 10_000_000))


def bench_packs() -> int:
    return int(os.environ.get("REPRO_BENCH_PACKS", 50))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "paper reproduction reports")
    for report in _REPORTS:
        for line in report.splitlines():
            terminalreporter.write_line(line)
        terminalreporter.write_line("")
