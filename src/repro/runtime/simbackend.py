"""Simulation execution backend.

Maps the backend API onto the discrete-event kernel: ``spawn`` creates a
simulated process, locks/events/queues are the kernel's primitives.  The
spawned activity inherits the *current backend* (itself), so nested
spawns from aspect code land back in the simulation.

Activities carry no CPU cost by themselves — computation is charged
explicitly on node CPUs by the cost-model aspect and the middleware
(serialisation), mirroring where time is actually spent on hardware.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.api.registry import register_backend
from repro.errors import BackendError
from repro.runtime.backend import ExecutionBackend, TaskHandle, use_backend
from repro.sim import SimEvent, SimLock, SimProcess, SimQueue, Simulator, current_process

__all__ = ["SimBackend", "SimTask"]


class SimTask(TaskHandle):
    """Handle over a simulated process."""

    def __init__(self, proc: SimProcess):
        self._proc = proc

    def join(self) -> Any:
        """Wait (in virtual time) for the simulated process; return its
        result or re-raise its exception."""
        return self._proc.join()

    @property
    def done(self) -> bool:
        """Has the simulated process finished?"""
        return self._proc.finished

    @property
    def process(self) -> SimProcess:
        """The underlying :class:`SimProcess`."""
        return self._proc


@register_backend("sim")
class SimBackend(ExecutionBackend):
    """Concurrency primitives on simulated time."""

    name = "sim"

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.spawned = 0

    @classmethod
    def for_cluster(cls, cluster: Any) -> "SimBackend":
        """Runs on the spec's cluster's simulator, or a fresh kernel."""
        return cls(cluster.sim if cluster is not None else Simulator())

    def _spawn(
        self, fn: Callable[[], Any], name: str | None = None, daemon: bool = False
    ) -> SimTask:
        caller = current_process()
        if caller is not None and caller.sim is not self.sim:
            raise BackendError("SimBackend.spawn from a foreign simulator's process")
        self.spawned += 1
        # Spawned activities inherit the spawner's node placement: work a
        # concurrency aspect forks off still burns CPU where the caller
        # lives (FarmThreads runs everything on the head node).  The
        # dispatch ticket was already bound by the ExecutionBackend.spawn
        # template, node placement is captured here.
        from repro.middleware.context import current_node, use_node

        node = current_node()

        def body() -> Any:
            with use_backend(self), use_node(node):
                return fn()

        proc = self.sim.spawn(
            body, name=name or f"task-{self.spawned}", daemon=daemon
        )
        return SimTask(proc)

    def make_lock(self, name: str = "lock") -> SimLock:
        """A lock whose contention occupies virtual time."""
        return SimLock(self.sim, name=name)

    def make_event(self, name: str = "event") -> SimEvent:
        """An event parked on by simulated activities."""
        return SimEvent(self.sim, name=name)

    def make_queue(self, name: str = "queue") -> SimQueue:
        """A FIFO whose blocking ``get`` waits in virtual time."""
        return SimQueue(self.sim, name=name)

    def now(self) -> float:
        """The simulator's **virtual** clock: deadlines on this backend
        interact with the cost model, not the wall clock."""
        return self.sim.now

    def sleep(self, seconds: float) -> None:
        """Hold the calling simulated process for ``seconds`` of virtual
        time (no wall time passes)."""
        self.sim.hold(seconds)
