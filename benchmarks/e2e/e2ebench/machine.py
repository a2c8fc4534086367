"""Facts about the box and the process tree, read from outside ``repro``."""

from __future__ import annotations

import multiprocessing
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

__all__ = [
    "affinity",
    "pin_lowest_cpu",
    "spin_ms",
    "KeepAwake",
    "worker_pids",
    "cpu_seconds",
    "peak_rss_mb",
    "live_threads",
    "wait_for_baseline",
    "environment",
]

_TICK = os.sysconf("SC_CLK_TCK")
#: the asyncio backend keeps one process-wide loop thread alive by design
_RESIDENT_THREADS = ("repro.asyncio-loop",)


def affinity() -> list:
    """The CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))


def pin_lowest_cpu() -> list:
    """Pin this process (and every worker it forks later) to the lowest
    CPU it may use.  Two busy processes on this box slow each other by
    1.0x to 2.0x from one second to the next, so wall-clock multi-core
    scaling is not measurable here; on one CPU the numbers repeat."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return affinity()


def spin_ms(loops: int = 400_000) -> float:
    """Wall milliseconds of a fixed pure-Python loop, best of three: the
    speed the box gives this process right now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(loops):
            total += value
        best = min(best, time.perf_counter() - start)
    return best * 1e3


_KEEP_AWAKE = """
import os, sys
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = int(sys.argv[1])
while os.getppid() == parent:
    for _ in range(200000):
        pass
"""


class KeepAwake:
    """A child on this CPU that spins at idle priority, so the virtual
    CPU never halts.  A halted vCPU takes 0.1 to 0.7 ms to wake on this
    box, and a paced thread farm blocks and wakes a dozen times per op:
    without this its p50 reads 3.3 ms, with it 1.3 ms, and only the
    second number is the program's.  Idle priority gives way to every
    normal thread at once, so the child takes nothing from the load; it
    leaves by itself if this process dies."""

    def __enter__(self) -> "KeepAwake":
        self._child = subprocess.Popen(
            [sys.executable, "-c", _KEEP_AWAKE, str(os.getpid())]
        )
        return self

    def __exit__(self, *exc: object) -> None:
        self._child.kill()
        self._child.wait()

    @property
    def running(self) -> bool:
        """False where the kernel refused idle priority to the child."""
        return self._child.poll() is None


def worker_pids() -> list:
    """Pids of live child processes started through ``multiprocessing``
    (which is how the process backend forks its workers)."""
    return [child.pid for child in multiprocessing.active_children()]


def _worker_cpu_seconds(pid: int) -> float:
    """CPU seconds of one single-threaded worker: the scheduler's own
    nanosecond account where the kernel shows it, else clock ticks."""
    try:
        for line in Path(f"/proc/{pid}/sched").read_text().splitlines():
            if line.startswith("se.sum_exec_runtime"):
                return float(line.rsplit(":", 1)[1]) / 1e3
    except (OSError, ValueError):
        pass
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def cpu_seconds(pids: list) -> float:
    """utime+stime of this process plus the given live workers."""
    return time.process_time() + sum(_worker_cpu_seconds(pid) for pid in pids)


def _status_kb(pid: object, field: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def peak_rss_mb(pids: list) -> float:
    """Peak resident set of this process plus the given live workers."""
    total = _status_kb("self", "VmHWM") + sum(
        _status_kb(pid, "VmHWM") for pid in pids
    )
    return total / 1024.0


def live_threads() -> int:
    """Threads alive now, not counting the ones resident by design."""
    return sum(
        1
        for thread in threading.enumerate()
        if thread.name not in _RESIDENT_THREADS
    )


def wait_for_baseline(threads: int, processes: int, patience_s: float = 2.0):
    """After teardown, wait briefly for activities to exit; returns
    ``(leaked_threads, leaked_processes)`` against the baseline."""
    deadline = time.monotonic() + patience_s
    while True:
        leaked = (
            max(0, live_threads() - threads),
            max(0, len(worker_pids()) - processes),
        )
        if leaked == (0, 0) or time.monotonic() >= deadline:
            return leaked
        time.sleep(0.01)


def _git_sha(root: Path) -> str:
    """HEAD of the checkout this file sits in, read without running git
    (the driver's checkout is not a repository: 'unknown' there)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """The facts every run record carries."""
    root = Path(__file__).resolve().parents[3]
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
    }
