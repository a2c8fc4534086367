"""CPU resources with processor-sharing and a hyper-threading model.

The paper's nodes are dual Xeon 3.2 GHz with Hyper-Threading.  We model a
node's CPU complex as a single *processor-sharing* resource:

* with ``n <= cores`` runnable jobs, each runs at full speed
  (total service rate ``n``);
* with ``cores < n`` runnable jobs, SMT adds a bounded throughput bonus:
  total rate ramps from ``cores`` to ``cores * ht_factor`` as the extra
  hardware threads fill, then saturates — beyond that, jobs time-share.

``ht_factor = 1.3`` reproduces the classic "HT buys ~30 %" rule of thumb
and, in Figure 17 terms, is what makes the threads-only sieve flatten
just past 4 filters on one dual-CPU node.

The implementation is the standard event-driven PS scheme: on every
change of the job set, elapsed virtual work is settled against each job's
remaining demand, and the next completion event is (re)scheduled.  A
version counter discards stale completion timers.
"""

from __future__ import annotations

from repro.errors import SimulationError, SimTimeError
from repro.sim.kernel import SimProcess, Simulator, current_process
from repro.sim.sync import SimEvent

__all__ = ["ProcessorSharingCPU", "total_rate"]


def total_rate(n_jobs: int, cores: int, ht_factor: float) -> float:
    """Aggregate service rate (in job-seconds per second) of the complex.

    Pure function so tests and the docs can table it::

        cores=2, ht=1.3:  n=1 -> 1.0, n=2 -> 2.0, n=3 -> 2.3, n>=4 -> 2.6
    """
    if n_jobs <= 0:
        return 0.0
    if n_jobs <= cores:
        return float(n_jobs)
    logical = 2 * cores  # two hardware threads per core
    bonus_total = cores * (ht_factor - 1.0)
    extra = min(n_jobs, logical) - cores
    return cores + bonus_total * (extra / cores)


class _Job:
    __slots__ = ("proc", "remaining", "done")

    def __init__(self, proc: SimProcess | None, remaining: float, done: SimEvent):
        self.proc = proc
        self.remaining = remaining
        self.done = done


class ProcessorSharingCPU:
    """One node's CPU complex as a processor-sharing server."""

    def __init__(
        self,
        sim: Simulator,
        cores: int = 2,
        ht_factor: float = 1.3,
        speed: float = 1.0,
        name: str = "cpu",
    ):
        if cores < 1:
            raise SimulationError("cpu needs >= 1 core")
        if ht_factor < 1.0:
            raise SimulationError("ht_factor must be >= 1.0")
        if speed <= 0:
            raise SimulationError("speed must be positive")
        self.sim = sim
        self.cores = cores
        self.ht_factor = ht_factor
        self.speed = speed
        self.name = name
        self._jobs: list[_Job] = []
        self._last_settle = 0.0
        self._timer_version = 0
        #: integral of busy rate over time (for utilisation reports)
        self.busy_time = 0.0
        self.jobs_completed = 0

    # -- PS accounting -----------------------------------------------------

    def _per_job_rate(self, n: int) -> float:
        if n == 0:
            return 0.0
        return self.speed * total_rate(n, self.cores, self.ht_factor) / n

    def _settle(self) -> None:
        """Charge elapsed time against every active job's demand."""
        now = self.sim.now
        elapsed = now - self._last_settle
        if elapsed > 0 and self._jobs:
            rate = self._per_job_rate(len(self._jobs))
            for job in self._jobs:
                job.remaining -= elapsed * rate
            self.busy_time += elapsed * self.speed * total_rate(
                len(self._jobs), self.cores, self.ht_factor
            )
        self._last_settle = now

    def _reschedule(self) -> None:
        """Schedule the completion of the job(s) finishing soonest."""
        self._timer_version += 1
        if not self._jobs:
            return
        version = self._timer_version
        rate = self._per_job_rate(len(self._jobs))
        soonest = min(job.remaining for job in self._jobs)
        delay = max(soonest, 0.0) / rate

        def on_complete() -> None:
            if version != self._timer_version:
                return  # job set changed since this was armed
            self._settle()
            eps = 1e-9
            finished = [job for job in self._jobs if job.remaining <= eps]
            for job in finished:
                self._jobs.remove(job)
                self.jobs_completed += 1
                job.done.set()
            self._reschedule()

        self.sim.call_later(delay, on_complete)

    # -- public API ----------------------------------------------------------

    def execute(self, work: float) -> None:
        """Consume ``work`` seconds-at-full-speed of CPU; blocks the
        calling process for the processor-shared duration."""
        proc = current_process()
        if proc is None or proc.sim is not self.sim:
            raise SimulationError("execute() must run inside a simulated process")
        if work < 0:
            raise SimTimeError(f"negative work {work}")
        if work == 0:
            return
        done = SimEvent(self.sim, name=f"{self.name}.job")
        self._settle()
        self._jobs.append(_Job(proc, work, done))
        self._reschedule()
        done.wait()

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    def utilisation(self, horizon: float | None = None) -> float:
        """Average busy fraction of the *physical cores* over ``horizon``
        (defaults to current sim time)."""
        horizon = self.sim.now if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        return self.busy_time / (horizon * self.cores * self.speed)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ProcessorSharingCPU {self.name} cores={self.cores} "
            f"jobs={len(self._jobs)}>"
        )
