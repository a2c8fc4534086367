"""Deterministic discrete-event simulation kernel.

The substrate that replaces the paper's physical testbed.  Design goals:

* **Plain code runs inside the simulation.**  Simulated processes are
  real Python threads lock-stepped on virtual time: exactly one entity
  (the kernel or a single process) runs at any instant, handing control
  over explicitly.  Woven application code therefore needs no rewriting
  into coroutines — the same aspects run under the thread backend and the
  simulation backend.
* **Determinism.**  The event queue is ordered by ``(time, sequence)``;
  thread handoffs are strictly serialized, so a given program produces
  the same event order, the same simulated timings, and the same results
  on every run.  (The GIL is irrelevant: simulated time, not wall time,
  is what experiments measure.)
* **Fail fast.**  An uncaught exception inside a process aborts
  :meth:`Simulator.run` with the original traceback; a drained queue with
  still-blocked processes raises :class:`~repro.errors.SimDeadlockError`
  naming them.

Example::

    sim = Simulator()

    def worker():
        sim.hold(2.0)
        print(sim.now)          # 2.0

    sim.spawn(worker)
    sim.run()
"""

from __future__ import annotations

import heapq
import threading
from typing import Any, Callable

from repro.errors import ProcessKilled, SimDeadlockError, SimTimeError, SimulationError

__all__ = ["Simulator", "SimProcess", "current_process", "current_simulator"]

_LOCAL = threading.local()


def current_process() -> "SimProcess | None":
    """The :class:`SimProcess` running on this thread, if any."""
    return getattr(_LOCAL, "process", None)


def current_simulator() -> "Simulator | None":
    """The :class:`Simulator` owning the current thread, if any."""
    proc = current_process()
    return proc.sim if proc is not None else None


class SimProcess:
    """A simulated process: a real thread scheduled on virtual time."""

    _ids = 0

    def __init__(
        self,
        sim: "Simulator",
        fn: Callable[[], Any],
        name: str | None,
        daemon: bool = False,
    ):
        SimProcess._ids += 1
        self.sim = sim
        self.fn = fn
        self.name = name or f"process-{SimProcess._ids}"
        #: daemon processes (server accept loops) may stay blocked when
        #: the queue drains without tripping deadlock detection
        self.daemon = daemon
        self.finished = False
        self.killed = False
        self.result: Any = None
        self.exception: BaseException | None = None
        #: What the process is blocked on (human-readable, for deadlock
        #: reports); ``None`` while runnable/running.
        self.blocked_on: str | None = None
        self._resume_evt = threading.Event()
        self._started = False
        self._thread = threading.Thread(
            target=self._bootstrap, name=f"sim:{self.name}", daemon=True
        )
        # processes waiting in join()
        self._joiners: list[SimProcess] = []

    # -- thread body --------------------------------------------------------

    def _bootstrap(self) -> None:
        self._resume_evt.wait()
        self._resume_evt.clear()
        _LOCAL.process = self
        try:
            if not self.killed:
                self.result = self.fn()
        except ProcessKilled:
            pass
        except BaseException as exc:  # noqa: BLE001 - forwarded to run()
            self.exception = exc
            self.sim._failure = exc
        finally:
            self.finished = True
            _LOCAL.process = None
            self.sim._on_process_finished(self)

    # -- kernel-side control --------------------------------------------------

    def _resume(self) -> None:
        if not self._started:
            self._started = True
            self._thread.start()
        self._resume_evt.set()

    # -- process-side API -------------------------------------------------------

    def join(self) -> Any:
        """Block the *calling* process until this one finishes; returns
        its result (or raises its exception).

        Callable from outside the simulation only once the process has
        finished (collecting results after ``run()``).
        """
        caller = current_process()
        if caller is None:
            if self.finished:
                if self.exception is not None:
                    raise self.exception
                return self.result
            raise SimulationError(
                "join() on an unfinished process must be called from inside a process"
            )
        if caller is self:
            raise SimulationError("a process cannot join itself")
        if not self.finished:
            self._joiners.append(caller)
            self.sim._block(f"join({self.name})")
        if self.exception is not None:
            raise self.exception
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "finished"
            if self.finished
            else (f"blocked:{self.blocked_on}" if self.blocked_on else "ready")
        )
        return f"<SimProcess {self.name} {state}>"


class Simulator:
    """The event loop and virtual clock."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        # heap entries: (time, seq, kind, payload); kinds:
        #   "resume"  payload=SimProcess
        #   "timer"   payload=callable run in kernel context
        self._queue: list[tuple[float, int, str, Any]] = []
        self._processes: list[SimProcess] = []
        self._kernel_evt = threading.Event()
        self._running = False
        self._failure: BaseException | None = None
        self._finished_hooks: list[Callable[[SimProcess], None]] = []

    # -- clock -----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    # -- scheduling ---------------------------------------------------------------

    def _push(self, at: float, kind: str, payload: Any) -> int:
        if at < self._now - 1e-12:
            raise SimTimeError(
                f"cannot schedule at {at} (now={self._now}): time is monotonic"
            )
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, kind, payload))
        return self._seq

    def schedule_resume(self, proc: SimProcess, delay: float = 0.0) -> None:
        """Make ``proc`` runnable after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimTimeError(f"negative delay {delay}")
        proc.blocked_on = None
        self._push(self._now + delay, "resume", proc)

    def call_at(self, at: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` in kernel context at absolute time ``at`` (used by
        resources to model completions without a dedicated process)."""
        self._push(at, "timer", fn)

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise SimTimeError(f"negative delay {delay}")
        self.call_at(self._now + delay, fn)

    # -- process management -----------------------------------------------------

    def spawn(
        self,
        fn: Callable[[], Any],
        name: str | None = None,
        delay: float = 0.0,
        daemon: bool = False,
    ) -> SimProcess:
        """Create a process running ``fn`` after ``delay`` sim-seconds."""
        proc = SimProcess(self, fn, name, daemon=daemon)
        self._processes.append(proc)
        self._push(self._now + delay, "resume", proc)
        return proc

    @property
    def processes(self) -> tuple[SimProcess, ...]:
        return tuple(self._processes)

    def add_finished_hook(self, hook: Callable[[SimProcess], None]) -> None:
        """Kernel-context callback run whenever a process finishes."""
        self._finished_hooks.append(hook)

    # -- blocking protocol (called from process threads) ----------------------------

    def hold(self, duration: float) -> None:
        """Advance this process ``duration`` simulated seconds."""
        proc = self._require_process()
        if duration < 0:
            raise SimTimeError(f"negative hold {duration}")
        self._push(self._now + duration, "resume", proc)
        self._yield(proc, f"hold({duration:g})")

    def _block(self, reason: str) -> None:
        """Block the calling process indefinitely; something else must
        ``schedule_resume`` it."""
        proc = self._require_process()
        self._yield(proc, reason)

    def _require_process(self) -> SimProcess:
        proc = current_process()
        if proc is None or proc.sim is not self:
            raise SimulationError(
                "this operation must be called from inside a process of this simulator"
            )
        return proc

    def _yield(self, proc: SimProcess, reason: str) -> None:
        """Hand control back to the kernel; returns when resumed."""
        proc.blocked_on = reason
        self._kernel_evt.set()
        proc._resume_evt.wait()
        proc._resume_evt.clear()
        if proc.killed:
            raise ProcessKilled(f"{proc.name} killed at t={self._now}")
        proc.blocked_on = None

    def _on_process_finished(self, proc: SimProcess) -> None:
        """Called on the process thread as it exits; wakes joiners then
        returns control to the kernel."""
        for joiner in proc._joiners:
            self.schedule_resume(joiner)
        proc._joiners.clear()
        for hook in self._finished_hooks:
            hook(proc)
        self._kernel_evt.set()

    # -- main loop ---------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Run until the event queue drains (or simulated ``until``).

        Returns the final simulated time.  Raises the first uncaught
        process exception, or :class:`SimDeadlockError` if processes
        remain blocked with nothing scheduled.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            while self._queue:
                at, _seq, kind, payload = heapq.heappop(self._queue)
                if until is not None and at > until:
                    heapq.heappush(self._queue, (at, _seq, kind, payload))
                    self._now = until
                    break
                self._now = at
                if kind == "timer":
                    payload()
                    continue
                proc: SimProcess = payload
                if proc.finished or proc.killed:
                    continue
                self._kernel_evt.clear()
                proc._resume()
                self._kernel_evt.wait()
                if self._failure is not None:
                    failure, self._failure = self._failure, None
                    raise failure
            blocked = [
                p
                for p in self._processes
                if not p.finished
                and not p.killed
                and not p.daemon
                and p.blocked_on
                and p._started
            ]
            if blocked and until is None:
                names = ", ".join(f"{p.name}[{p.blocked_on}]" for p in blocked)
                raise SimDeadlockError(
                    f"event queue drained at t={self._now} with blocked "
                    f"processes: {names}"
                )
            return self._now
        finally:
            self._running = False

    # -- shutdown -----------------------------------------------------------------

    def shutdown(self) -> None:
        """Kill all unfinished processes and reap their threads (used by
        tests and the benchmark harness for hygiene)."""
        for proc in self._processes:
            if not proc.finished:
                proc.killed = True
                if proc._started:
                    self._kernel_evt.clear()
                    proc._resume_evt.set()
                    # The thread either finishes or re-blocks killed; wait
                    # for it to reach _on_process_finished.
                    proc._thread.join(timeout=5.0)

    def __enter__(self) -> "Simulator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Simulator t={self._now:g} queued={len(self._queue)}>"
