"""Synchronisation primitives on simulated time.

All primitives follow one rule that keeps the kernel deterministic: a
blocked process is resumed **exactly once**.  Every wait registers a
:class:`_Waiter` token; both the granting path and the timeout path must
win a check-and-set on that token before scheduling the resume.

Provided: :class:`SimEvent`, :class:`SimLock` (FIFO) and
:class:`SimQueue` (unbounded FIFO used by channels and mailboxes).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import SimulationError
from repro.sim.kernel import SimProcess, Simulator, current_process

__all__ = ["SimEvent", "SimLock", "SimQueue"]


class _Waiter:
    """One blocked process; ``claim()`` may succeed exactly once."""

    __slots__ = ("proc", "woken", "timed_out")

    def __init__(self, proc: SimProcess):
        self.proc = proc
        self.woken = False
        self.timed_out = False

    def claim(self) -> bool:
        if self.woken:
            return False
        self.woken = True
        return True


def _wait_here(sim: Simulator, waiter: _Waiter, reason: str, timeout: float | None) -> bool:
    """Common blocking tail: optionally arm a timeout, then block.

    Returns ``True`` if woken normally, ``False`` on timeout.
    """
    if timeout is not None:

        def on_timeout() -> None:
            if waiter.claim():
                waiter.timed_out = True
                sim.schedule_resume(waiter.proc)

        sim.call_later(timeout, on_timeout)
    sim._block(reason)
    return not waiter.timed_out


def _require(sim_owner: Simulator) -> SimProcess:
    proc = current_process()
    if proc is None or proc.sim is not sim_owner:
        raise SimulationError(
            "primitive used outside a process of its owning simulator"
        )
    return proc


class SimEvent:
    """Level-triggered event: once set, waits return immediately."""

    def __init__(self, sim: Simulator, name: str = "event"):
        self.sim = sim
        self.name = name
        self._set = False
        self._value: Any = None
        self._waiters: deque[_Waiter] = deque()

    @property
    def is_set(self) -> bool:
        return self._set

    @property
    def value(self) -> Any:
        return self._value

    def set(self, value: Any = None) -> None:
        """Set the event and wake all current waiters.

        Callable from process context or kernel context (timers).
        """
        if self._set:
            return
        self._set = True
        self._value = value
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.claim():
                self.sim.schedule_resume(waiter.proc)

    def clear(self) -> None:
        self._set = False
        self._value = None

    def wait(self, timeout: float | None = None) -> bool:
        """Block until set; ``True`` if set, ``False`` on timeout."""
        proc = _require(self.sim)
        if self._set:
            return True
        waiter = _Waiter(proc)
        self._waiters.append(waiter)
        return _wait_here(self.sim, waiter, f"event:{self.name}", timeout)


class SimLock:
    """FIFO mutual-exclusion lock (the paper's ``synchronized`` blocks)."""

    def __init__(self, sim: Simulator, name: str = "lock"):
        self.sim = sim
        self.name = name
        self._owner: SimProcess | None = None
        self._waiters: deque[_Waiter] = deque()
        #: total number of acquisitions that had to wait (contention stat)
        self.contended = 0

    @property
    def locked(self) -> bool:
        return self._owner is not None

    @property
    def owner(self) -> SimProcess | None:
        return self._owner

    def acquire(self) -> None:
        proc = _require(self.sim)
        if self._owner is None:
            self._owner = proc
            return
        if self._owner is proc:
            raise SimulationError(f"lock {self.name} is not reentrant")
        self.contended += 1
        waiter = _Waiter(proc)
        self._waiters.append(waiter)
        self.sim._block(f"lock:{self.name}")
        # ownership transferred by release()

    def release(self) -> None:
        proc = _require(self.sim)
        if self._owner is not proc:
            raise SimulationError(
                f"lock {self.name} released by {proc.name}, "
                f"owned by {self._owner.name if self._owner else 'nobody'}"
            )
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.claim():
                self._owner = waiter.proc
                self.sim.schedule_resume(waiter.proc)
                return
        self._owner = None

    def __enter__(self) -> "SimLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


class SimQueue:
    """Unbounded FIFO queue with blocking ``get`` (mailbox building block)."""

    def __init__(self, sim: Simulator, name: str = "queue"):
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[_Waiter] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue; callable from process or kernel (timer) context."""
        self._items.append(item)
        while self._getters and self._items:
            waiter = self._getters.popleft()
            if waiter.claim():
                self.sim.schedule_resume(waiter.proc)
                break

    def get(self, timeout: float | None = None) -> Any:
        """Dequeue, blocking while empty.

        Raises :class:`TimeoutError` on timeout (distinct from a ``None``
        item).
        """
        proc = _require(self.sim)
        while not self._items:
            waiter = _Waiter(proc)
            self._getters.append(waiter)
            if not _wait_here(self.sim, waiter, f"queue:{self.name}", timeout):
                raise TimeoutError(f"queue {self.name} get() timed out")
        return self._items.popleft()

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking dequeue: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None
