"""Asynchronous method invocation (paper Section 4.2, Figure 12 top).

"Concurrency is based on asynchronous method calls.  In Java these calls
can be implemented by spawning a new thread to perform the requested
method call."

The around advice captures the rest of the chain (synchronisation →
forwarding → distribution → the method itself) and hands it to a spawned
activity; the caller immediately receives a
:class:`~repro.runtime.futures.Future` (the ABCL-style future the paper's
related work describes — touching it blocks until the value arrives).

The *spawn strategy* is replaceable at runtime: the thread-pool
optimisation aspect swaps :class:`SpawnPerCall` for a pooled spawner
without touching this module.
"""

from __future__ import annotations

import itertools
import threading
from functools import partial
from typing import Any, Callable

from repro.aop import abstract_pointcut, around, pointcut
from repro.faults.schedule import fire_fault
from repro.parallel.concern import LAYER, Concern, ParallelAspect
from repro.runtime.backend import ExecutionBackend, current_backend
from repro.runtime.dispatch import bind_dispatch, ride, shield_dispatch, take_tail
from repro.runtime.futures import Future

__all__ = ["SpawnPerCall", "PooledSpawner", "AsyncInvocationAspect"]


class SpawnPerCall:
    """The paper's literal strategy: one new activity per call."""

    def spawn(self, backend: ExecutionBackend, task: Callable[[], None]) -> None:
        backend.spawn(task, name="async-call")

    def stop(self) -> None:
        """Nothing to tear down."""


class PooledSpawner:
    """Fixed pool of worker activities fed by task queues.

    Workers are started lazily on the first spawn (so the pool binds to
    the right backend).  Two feeding modes:

    * shared (default) — one queue, any idle worker takes the next task
      (the thread-pool optimisation aspect's shape);
    * ``pinned=True`` — one queue *per worker*, and ``spawn(...,
      index=i)`` routes the task to worker ``i``.  This is the resident
      worker-pool shape the dynamic farm uses: resident activity ``i``
      always drives deployed worker instance ``i``, so per-call work
      reaches a long-lived activity instead of paying a fresh spawn —
      while every task still runs under the dispatch ticket of the call
      that enqueued it (``bind_dispatch``).

    A task that raises does NOT kill its resident worker: the exception
    is recorded (``task_failures``) and the loop serves the next task —
    errors belong to the enqueueing call, which observes them through
    its own ticket/collector, never to the pool.

    Fault axis: each pulled task first consults its call's
    :class:`~repro.faults.FaultSchedule` at site ``"pool"`` (index = the
    resident's position).  A ``kill_worker`` event — or an explicit
    :meth:`kill` — terminates the resident *before* the task runs; the
    pulled task is re-enqueued (no piece is lost) and a replacement
    resident is spawned on the same queue (``killed`` / ``replacements``
    counters), so an in-flight split completes on the refilled pool.
    """

    _STOP = object()
    _KILL = object()

    def __init__(self, size: int, pinned: bool = False):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.pinned = pinned
        self._queues: list[Any] | None = None
        self._backend: ExecutionBackend | None = None
        #: guards the lazy start: overlapped first-submissions race into
        #: spawn(), and a double start would orphan a whole resident set
        self._start_lock = threading.Lock()
        #: round-robin cursor for pinned spawns that name no worker
        self._cursor = itertools.count()
        self.executed = 0
        self.task_failures = 0
        #: residents terminated by a fault event or an explicit kill()
        self.killed = 0
        #: replacement residents spawned after kills
        self.replacements = 0

    @property
    def started(self) -> bool:
        """Have the resident worker activities been spawned yet?"""
        return self._queues is not None

    def spawn(
        self,
        backend: ExecutionBackend,
        task: Callable[[], None],
        index: int | None = None,
    ) -> None:
        """Enqueue ``task``; with ``pinned`` pools, ``index`` names the
        resident worker that must run it (round-robin otherwise)."""
        with self._start_lock:
            if self._queues is None:
                self._backend = backend
                count = self.size if self.pinned else 1
                queues = [
                    backend.make_queue(name=f"pool.tasks{i}")
                    for i in range(count)
                ]
                for i in range(self.size):
                    queue = queues[i if self.pinned else 0]
                    # workers idle on the queue between bursts; daemon=True
                    # keeps the sim's deadlock detector quiet about them.
                    # shield_dispatch: the pool may be created from inside a
                    # call's dispatch, and a worker must not pin (or leak to
                    # later tasks) that call's ticket for its whole lifetime
                    backend.spawn(
                        shield_dispatch(
                            lambda q=queue, i=i: self._worker(q, i)
                        ),
                        name=f"pool.worker{i}",
                        daemon=True,
                    )
                self._queues = queues
        if self.pinned:
            if index is None:
                index = next(self._cursor)
            queue = self._queues[index % self.size]
        else:
            queue = self._queues[0]
        # pool workers are long-lived, so the spawn-time ticket capture
        # the backends do would pin the *worker's* creation context; bind
        # each task to the ticket of the call that enqueued it instead
        queue.put(bind_dispatch(task))

    def _worker(self, queue: Any, index: int) -> None:
        while True:
            task = queue.get()
            if task is self._STOP:
                return
            if task is self._KILL:
                self._die(queue, index, requeue=None)
                return
            # asked on behalf of the call whose task this is
            event = fire_fault("pool", index, getattr(task, "ticket", None))
            if event is not None and event.kind == "kill_worker":
                # the resident dies BEFORE running the task; the pulled
                # task goes back on the queue so no piece is lost — the
                # replacement resident (or a shared-queue sibling) runs it
                self._die(queue, index, requeue=task)
                return
            if event is not None and event.kind == "delay_reply":
                current_backend().sleep(event.delay)
            try:
                task()
            except Exception:  # noqa: BLE001 - the call observes its own error
                self.task_failures += 1
            self.executed += 1

    def _die(self, queue: Any, index: int, requeue: Any) -> None:
        """Terminate resident ``index``: count the kill, put back the
        task it pulled (if any), and spawn a replacement on its queue."""
        self.killed += 1
        if requeue is not None:
            queue.put(requeue)
        self._respawn(queue, index)

    def _respawn(self, queue: Any, index: int) -> None:
        backend = self._backend
        if backend is None:  # pool already torn down
            return
        self.replacements += 1
        backend.spawn(
            shield_dispatch(lambda q=queue, i=index: self._worker(q, i)),
            name=f"pool.worker{index}.respawn",
            daemon=True,
        )

    def kill(self, index: int = 0) -> None:
        """Deliver a kill token to resident ``index`` (any resident on
        the shared queue when not pinned).  The resident terminates at
        its next pull and is immediately replaced — the test face of the
        ``kill_worker`` fault event."""
        if self._queues is None:
            raise RuntimeError("pool not started")
        queue = self._queues[index % self.size if self.pinned else 0]
        queue.put(self._KILL)

    def stop(self) -> None:
        if self._queues is not None:
            if self.pinned:
                for queue in self._queues:
                    queue.put(self._STOP)
            else:
                for _ in range(self.size):
                    self._queues[0].put(self._STOP)


class AsyncInvocationAspect(ParallelAspect):
    """Spawn-per-call with transparent futures."""

    concern = Concern.CONCURRENCY
    precedence = LAYER["concurrency"]

    async_calls = abstract_pointcut("calls to execute asynchronously")

    def __init__(self, async_calls: str | None = None, spawner: Any = None):
        if async_calls is not None:
            self.async_calls = pointcut(async_calls)
        self.spawner = spawner if spawner is not None else SpawnPerCall()
        self.spawned_calls = 0

    @around("async_calls")
    def make_asynchronous(self, jp):
        backend = current_backend()
        # read (and so clear) the mark whatever path answers the call
        carried = take_tail(jp.target)
        if backend.servant_host == "loop" and isinstance(self.spawner, SpawnPerCall):
            # asyncio backend: the call's activity is an event-loop
            # task, not a thread.  Proceed inline — an ``async def``
            # method hands back its coroutine without running (cheap),
            # a plain method completes right here — and let the backend
            # bridge the outcome to a Future (already-resolved for
            # plain values, a supervised loop task for coroutines).
            self.spawned_calls += 1
            try:
                outcome = jp.proceed()
            except Exception as exc:  # noqa: BLE001 - delivered via future
                failed = Future(name=f"async.{jp.signature}", backend=backend)
                failed.set_exception(exc)
                return failed
            return backend.bridge(outcome, name=f"async.{jp.signature}")
        future = Future(name=f"async.{jp.signature}", backend=backend)
        continuation = jp.proceed if carried else jp.capture_proceed()

        def call() -> None:
            try:
                future.set_result(continuation())
            except Exception as exc:  # noqa: BLE001 - delivered via future
                future.set_exception(exc)

        # the body of the piece's activity either way (ride): the call,
        # then the hops a pipeline forwarder left
        if carried:
            # this activity's tail — a pipeline hop (Figure 11, "inside
            # the per-call thread") or the last piece of a split, which
            # the splitting activity carries: run here.  Answered as a
            # spawned call is, failure included, so no stage upstream
            # reports a downstream failure again and a retry sees it.
            ride(call)
        else:
            self.spawned_calls += 1
            self.spawner.spawn(backend, partial(ride, call))
        return future
