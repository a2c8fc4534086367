"""Real-thread execution backend (functional mode).

Every ``spawn`` gives the activity a thread of its own, at once — the
paper's concurrency aspect (``new Thread() { run() { proceed; } }``) —
but the OS thread under it is recycled: a finished activity's *carrier*
parks, the next ``spawn`` hands its activity to the most recently parked
one, and each carrier lives :data:`CARRIER_LIFETIME` seconds
(``Thread.start`` was 46 µs of a 0.72 ms farm submit, five times per
submit).  A new OS thread starts only when no carrier is parked, so
nothing queues behind a blocked activity and there is no pool size to
deadlock on.  To the activity a carrier is a fresh thread: its own name,
an empty ``contextvars`` context and — every ambient ``threading.local``
in ``repro`` restores its state in a ``finally`` — clean thread-local
state.

Because of the GIL this buys no CPU-bound speed-up in CPython; it gives
the correct *semantics* (overlap, synchronisation, futures) for tests and
examples, while the performance experiments run on the simulation
backend (see DESIGN.md).
"""

from __future__ import annotations

import _thread
import contextvars
import os
import queue as _queue
import threading
import time
from typing import Any, Callable

from repro.api.registry import register_backend
from repro.runtime.backend import ExecutionBackend, TaskHandle

__all__ = ["ThreadBackend", "ThreadTask"]

#: Seconds a carrier thread lives: it exits at the first park after this
#: age, or when it reaches it parked.  Bridges the gaps inside a burst
#: (sub-ms) and between paced arrivals (a few ms) at one ``Thread.start``
#: per carrier per lifetime, and puts a torn-down deployment back at its
#: thread baseline well inside the 2 s the leak checks allow, so there is
#: no ``close()``.  Age, not idleness, because a thread keeps its malloc
#: arena for life: free space left in the arena of a carrier that split
#: 130 KB payloads is of no use to it once it carries small pieces, and
#: immortal carriers cost the process farm 20 MB of peak RSS (+16 %).
CARRIER_LIFETIME = 0.1

# Parked carriers, most recently parked last (LIFO keeps the live set at
# the concurrency high-water mark).  Process-wide, like the OS thread
# table it caches: every backend instance shares it.
_idle: list["_Carrier"] = []
_idle_lock = _thread.allocate_lock()
# Guards every _ThreadEvent's list of parked waiters (never held in a wait)
_face_lock = _thread.allocate_lock()


def _forget_carriers() -> None:
    # a forked child inherits the list but none of the threads on it (a
    # hand-off to one would never run), and possibly held locks
    global _idle_lock, _face_lock
    _idle.clear()
    _idle_lock = _thread.allocate_lock()
    _face_lock = _thread.allocate_lock()


os.register_at_fork(after_in_child=_forget_carriers)


class ThreadTask(TaskHandle):
    """Handle on one activity running on a thread of its own."""

    def __init__(self, fn: Callable[[], Any], name: str):
        self.name = name
        self._fn: Callable[[], Any] | None = fn
        self._result: Any = None
        self._exception: BaseException | None = None
        self._started = _thread.allocate_lock()  # held until the body starts
        self._started.acquire()
        self._done = _thread.allocate_lock()  # held until the body ends
        self._done.acquire()

    def _run(self) -> None:
        fn, self._fn = self._fn, None
        self._started.release()
        try:
            self._result = fn()  # type: ignore[misc]
        except BaseException as exc:  # noqa: BLE001 - re-raised in join
            self._exception = exc
        finally:
            self._done.release()

    def join(self) -> Any:
        """Wait for the activity; return its result or re-raise its
        exception."""
        self._done.acquire()
        self._done.release()
        if self._exception is not None:
            raise self._exception
        return self._result

    @property
    def done(self) -> bool:
        """Has the activity's body finished (successfully or not)?"""
        return not self._done.locked()


class _Carrier:
    """One OS thread running the activities handed to it, one at a time."""

    __slots__ = ("task", "wake", "retire_at")

    def __init__(self, task: ThreadTask):
        self.task: ThreadTask | None = task
        self.retire_at = time.monotonic() + CARRIER_LIFETIME
        self.wake = _thread.allocate_lock()  # released to hand a task over
        self.wake.acquire()
        threading.Thread(target=self._carry, name=task.name, daemon=True).start()

    def _carry(self) -> None:
        thread = threading.current_thread()
        while True:
            task, self.task = self.task, None
            thread.name = task.name  # type: ignore[union-attr]
            contextvars.Context().run(task._run)  # type: ignore[union-attr]
            # park holding nothing of the activity: its thunk and result
            # belong to the handle, not to an idle thread
            del task
            remaining = self.retire_at - time.monotonic()
            if remaining <= 0:
                return
            thread.name = "carrier.idle"
            with _idle_lock:
                _idle.append(self)
            if not self.wake.acquire(timeout=remaining):
                with _idle_lock:
                    if self in _idle:
                        _idle.remove(self)
                        return
                # a spawn popped this carrier as its time ran out; the
                # hand-off is on the way
                self.wake.acquire()


class _ThreadEvent:
    """An event with a value slot, matching SimEvent's surface.

    The flag is the truth.  A waiter that finds it down parks on a held
    ``_thread`` lock of its own, published in ``_parked``; ``set()``
    releases them all, ``clear()`` leaves them parked.
    """

    __slots__ = ("name", "value", "_flag", "_parked")

    def __init__(self, name: str = "event"):
        self.name = name
        self.value: Any = None
        self._flag = False
        self._parked: list = []

    @property
    def is_set(self) -> bool:
        return self._flag

    def set(self, value: Any = None) -> None:
        if self._flag:
            return
        self.value = value
        # flag first, THEN look for waiters: wait() publishes its lock
        # and then reads the flag, so one of the two sees the other
        self._flag = True
        if self._parked:
            with _face_lock:
                parked, self._parked = self._parked, []
            for lock in parked:
                lock.release()

    def clear(self) -> None:
        self._flag = False
        self.value = None

    def wait(self, timeout: float | None = None) -> bool:
        if self._flag:
            return True
        lock = _thread.allocate_lock()
        lock.acquire()
        with _face_lock:
            self._parked.append(lock)
        seen = self._flag  # re-read AFTER publishing: see set() above
        if not seen and lock.acquire(True, -1 if timeout is None else max(timeout, 0)):
            return True  # released by a set(), which unpublished it
        with _face_lock:
            if lock not in self._parked:
                return True  # a set() took it: the wakeup is on its way
            self._parked.remove(lock)
        return seen


class _ThreadQueue:
    """queue.Queue adapter matching SimQueue's surface."""

    def __init__(self, name: str = "queue"):
        self.name = name
        self._q: _queue.Queue = _queue.Queue()

    def put(self, item: Any) -> None:
        self._q.put(item)

    def get(self, timeout: float | None = None) -> Any:
        try:
            return self._q.get(timeout=timeout)
        except _queue.Empty:
            raise TimeoutError(f"queue {self.name} get() timed out") from None

    def try_get(self) -> tuple[bool, Any]:
        try:
            return True, self._q.get_nowait()
        except _queue.Empty:
            return False, None

    def __len__(self) -> int:
        return self._q.qsize()


@register_backend("thread")
class ThreadBackend(ExecutionBackend):
    """Thread-per-activity real threading on recycled carrier threads."""

    name = "threads"

    def __init__(self) -> None:
        #: activities spawned / OS threads started for them; the
        #: difference is the hand-offs that reused a parked carrier
        self.spawned = 0
        self.threads_started = 0

    def _spawn(
        self, fn: Callable[[], Any], name: str | None = None, daemon: bool = True
    ) -> ThreadTask:
        # all carrier threads are OS daemons already; the flag only
        # matters for the simulation backend's deadlock detection.  The
        # ExecutionBackend.spawn template has already bound fn to the
        # spawning call's dispatch ticket.
        with _idle_lock:  # also what makes the two counters exact
            self.spawned += 1
            number = self.spawned
            carrier = _idle.pop() if _idle else None
            if carrier is None:
                self.threads_started += 1
        task = ThreadTask(fn, name or f"task-{number}")
        if carrier is None:
            _Carrier(task)
        else:
            carrier.task = task
            carrier.wake.release()
            # return once the activity runs, as Thread.start does: with
            # spawner and woken carriers all contending for the GIL, one
            # activity in a hundred started a switch interval (5 ms)
            # late (thread-farm paced p99 5.3 ms; 2.6 with this wait,
            # for 6 % of the throughput)
            task._started.acquire()
        return task

    def make_lock(self, name: str = "lock") -> threading.Lock:
        """A plain (non-reentrant) ``threading.Lock``."""
        return threading.Lock()

    def make_event(self, name: str = "event") -> _ThreadEvent:
        """An event carrying a value slot (SimEvent's surface)."""
        return _ThreadEvent(name)

    def make_queue(self, name: str = "queue") -> _ThreadQueue:
        """A ``queue.Queue`` adapter matching SimQueue's surface."""
        return _ThreadQueue(name)
