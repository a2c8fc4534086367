"""Asyncio-native execution backend (I/O-bound servants).

The paper's claim is that the execution platform is a pluggable concern.
PR 6 proved it for multi-core (``backend="process"``); this module
proves it for event-loop concurrency: ``backend="asyncio"`` gives
``async def`` servant methods a native home, overlapping thousands of
in-flight awaits on ONE event loop instead of burning a thread (or a
resident process) per in-flight call.

Shape
-----

:class:`AsyncioBackend` subclasses
:class:`~repro.runtime.threads.ThreadBackend` for the same reason
:class:`~repro.runtime.procbackend.ProcessBackend` does: the
*coordination* surface — ``ParallelApp.submit()/map()`` activities,
admission waits, collectors, resident pool dispatchers, futures — is
synchronous and blocking, so it keeps real-thread semantics.  What moves
onto the event loop is the *servant dispatch*: a woven call whose target
method is ``async def`` hands back a coroutine, and the backend bridges
it onto its loop as an :class:`asyncio.Task` (the call's activity)
whose done-callback resolves a plain
:class:`~repro.runtime.futures.Future`.  Plain (sync) methods run
inline — exactly the split the paper's aspect decomposition suggests:
concurrency shape is the backend's business, not the servant's.

A thread touches the loop only when a coroutine needs it: bridging one
outcome is ONE ``loop.call_soon_threadsafe`` (the task is created and
settled on the loop side), and resolving a future or setting an event
that no coroutine awaits is none.

* ``now()`` is the **loop clock** (``loop.time()``), so per-ticket
  :class:`~repro.runtime.admission.Deadline` budgets translate directly
  into ``asyncio.wait_for`` timeouts: an expired deadline cancels the
  task *mid-await*, not at the next cooperative boundary.
* A shed or cancelled :class:`~repro.runtime.ticket.DispatchContext`
  cancels its in-flight loop tasks through the ticket's cancel hooks.
* :meth:`make_event` returns an :class:`AsyncioEvent` — waitable from
  submitter threads (admission ``block`` parks on it) *and* awaitable
  from loop tasks (``await event.wait_async()``), the dual-face gate the
  backend's tests hold servants open with.  The loop face is made by
  the event's first awaiter; an event nobody awaits never calls into
  the loop.
* The ``"loop"`` fault site fires once per bridged task with awaitable
  semantics: ``delay_reply`` is an ``await asyncio.sleep`` (the loop
  stays free), ``drop_reply`` discards an outcome that was actually
  computed.

One loop, owned by the backend, runs in a dedicated daemon thread
(started lazily, shared process-wide) so the synchronous submission API
keeps working unchanged.
"""

from __future__ import annotations

import asyncio
import atexit
import inspect
import threading
from concurrent.futures import CancelledError
from typing import Any, Awaitable

from repro.api.registry import register_backend
from repro.errors import (
    DeadlineExceeded,
    InjectedFault,
    ReplyDropped,
    WorkerKilled,
)
from repro.faults.schedule import fire_fault
from repro.runtime.backend import _carries_awaitables, _close_awaitables
from repro.runtime.dispatch import current_dispatch
from repro.runtime.futures import Future
from repro.runtime.threads import ThreadBackend, _ThreadEvent

__all__ = ["AsyncioBackend", "AsyncioEvent"]


class _LoopHost:
    """One long-lived event loop in a daemon thread, shared by every
    :class:`AsyncioBackend` instance (apps are cheap to build; loop
    threads are not — a singleton keeps "construct an app per test"
    from leaking a thread per construction)."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        atexit.register(self.stop)

    def ensure(self) -> None:
        """Start the loop thread unless it runs (safe to race); once it
        runs, one attribute test: only :meth:`stop` takes it away."""
        if self._thread is not None:
            return
        with self._lock:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="repro.asyncio-loop", daemon=True
                )
                self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def stop(self) -> None:
        """Stop the loop thread (interpreter-exit hook; restartable via
        :meth:`ensure`)."""
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is not None and thread.is_alive() and self.loop.is_running():
            self.loop.call_soon_threadsafe(self.loop.stop)
            thread.join(timeout=1.0)


#: the process-wide loop host every AsyncioBackend shares
_HOST = _LoopHost()


class AsyncioEvent(_ThreadEvent):
    """Dual-face event: the thread backend's event (the sync surface
    every backend event exposes) plus an awaitable face
    (:meth:`wait_async`) for coroutines on the backend's loop.

    The flag is the truth, and each face is built by its first waiter:
    the ``threading.Event`` by a thread that finds the flag down, the
    :class:`asyncio.Event` by the first :meth:`wait_async`, kept in step
    by a callback run *on* the loop.  An event set before anybody waits
    builds neither face and calls into no loop.
    """

    __slots__ = ("_host", "_async_event")

    def __init__(self, host: _LoopHost, name: str = "event"):
        super().__init__(name)
        self._host = host
        self._async_event: asyncio.Event | None = None

    def set(self, value: Any = None) -> None:
        """Set the event (first value wins), waking sync waiters and
        loop-side awaiters alike."""
        super().set(value)
        # flag first, THEN look for the face: wait_async publishes the
        # face and then reads the flag, so one of the two sees the other
        if self._async_event is not None:
            self._host.loop.call_soon_threadsafe(self._mirror)

    def clear(self) -> None:
        """Reset both faces of the event."""
        super().clear()
        if self._async_event is not None:
            self._host.loop.call_soon_threadsafe(self._mirror)

    async def wait_async(self) -> bool:
        """Await the event from a coroutine on the backend's loop —
        the loop stays free to run every other task meanwhile."""
        if self._async_event is None:
            self._async_event = asyncio.Event()
        # re-read the flag AFTER the face is published: a set() that
        # looked for the face too early to find it is seen here
        self._mirror()
        await self._async_event.wait()
        return True

    def _mirror(self) -> None:
        """Copy the flag onto the loop face (loop thread only).
        Copying the flag, not a set/clear order, means racing callers
        cannot leave the face disagreeing with the flag: whichever
        mirror runs last reads the final flag."""
        if self._flag:
            self._async_event.set()
        else:
            self._async_event.clear()


@register_backend("asyncio")
class AsyncioBackend(ThreadBackend):
    """Event-loop execution backend for ``async def`` servants.

    Coordination activities (submissions, pool dispatchers, admission
    waits) stay real threads — subclassing
    :class:`~repro.runtime.threads.ThreadBackend` is the point, exactly
    as with the process backend.  Servant coroutines are bridged onto
    the backend's loop with :meth:`bridge`; the dispatch plumbing calls
    :meth:`finish` wherever an outcome may be awaitable.
    """

    name = "asyncio"
    #: servants run on the loop: the concurrency aspect dispatches inline
    #: and bridges the outcome instead of spawning a thread per call
    servant_host = "loop"

    def __init__(self) -> None:
        super().__init__()
        self._host = _HOST
        # the loop holds tasks weakly: this set keeps each bridged task
        # alive until it settles.  It and the task counters are only
        # ever touched on the loop thread, so they need no lock
        self._tasks: set[asyncio.Task] = set()
        self.tasks_started = 0
        self.tasks_finished = 0
        self.tasks_cancelled = 0
        #: tasks whose ticket deadline cancelled their await mid-flight
        self.tasks_expired = 0
        self.live_tasks = 0
        #: most loop tasks ever in flight at once (the overlap
        #: high-water mark the tests and benches assert on)
        self.peak_tasks = 0

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The backend's event loop (shared, running in its own daemon
        thread once any coroutine has been bridged)."""
        return self._host.loop

    def now(self) -> float:
        """The loop clock — ticket deadlines measured here translate
        exactly into ``asyncio.wait_for`` timeouts, which is what lets
        an expiry cancel a task mid-await."""
        return self._host.loop.time()

    def make_event(self, name: str = "event") -> AsyncioEvent:
        """A dual-face :class:`AsyncioEvent` (sync wait + loop await)."""
        return AsyncioEvent(self._host, name=name)

    # -- coroutine bridging -------------------------------------------------

    def bridge(self, outcome: Any, name: str = "asyncio.task") -> Future:
        """Adopt one dispatch outcome as this backend's activity.

        A coroutine (or a batched-entry list containing coroutines)
        is scheduled on the loop as one :class:`asyncio.Task` — carrying
        the ambient dispatch ticket's deadline and cancel hooks — and a
        :class:`~repro.runtime.futures.Future` resolving with it is
        returned.  The calling thread crosses into the loop once
        (``call_soon_threadsafe``); the task is created, and later
        settles the future, on the loop side.  A plain value comes back
        as an already-resolved future, so sync methods cost no loop
        round-trip.
        """
        future = Future(name=name, backend=self)
        if not _carries_awaitables(outcome):
            future.set_result(outcome)
            return future
        ticket = current_dispatch()
        self._host.ensure()
        loop = self._host.loop

        def start() -> None:
            body = self._supervise(outcome, ticket)
            try:
                task = loop.create_task(body)
            except Exception as exc:  # noqa: BLE001 - via the future
                # nothing will ever await them: close both so the
                # failure does not also warn "never awaited"
                body.close()
                _close_awaitables(outcome)
                future.set_exception(exc)
                return
            self._tasks.add(task)
            task.add_done_callback(settle)

        def settle(task: asyncio.Task) -> None:
            self._tasks.discard(task)
            if task.cancelled():
                # cancelled with no ticket cause (a ticket's cause comes
                # out of _supervise as the task's exception).  The
                # waiter gets an Exception: asyncio's CancelledError is
                # a BaseException and would escape the submit path
                future.set_exception(CancelledError())
                return
            exc = task.exception()
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(task.result())

        loop.call_soon_threadsafe(start)
        return future

    def finish(self, outcome: Any) -> Any:
        """Resolve a dispatch outcome: awaitables run to completion on
        the loop (the calling thread blocks, the loop does not); plain
        values pass through untouched."""
        if not _carries_awaitables(outcome):
            return outcome
        return self.bridge(outcome, name="asyncio.finish").result()

    def detach(self, outcome: Any) -> None:
        """Fire-and-forget (native oneway): make sure any awaitables are
        scheduled on the loop, then drop the handle — the work runs to
        completion, nobody waits for the reply."""
        if isinstance(outcome, Future):
            return  # already bridged: its task runs regardless of waiters
        if _carries_awaitables(outcome):
            self.bridge(outcome, name="asyncio.oneway")

    # -- the loop-side task wrapper -----------------------------------------

    async def _supervise(self, outcome: Any, ticket: Any) -> Any:
        """The bridged task's body: fault site, ticket cancel hook,
        deadline-bounded await, and the task census."""
        task = asyncio.current_task()
        hook = None
        if ticket is not None and task is not None:
            loop = self._host.loop
            hook = ticket.add_cancel_hook(
                lambda exc, t=task: loop.call_soon_threadsafe(t.cancel)
            )
        self.tasks_started += 1
        self.live_tasks += 1
        self.peak_tasks = max(self.peak_tasks, self.live_tasks)
        try:
            event = fire_fault("loop", None, ticket)
            if event is not None:
                if event.kind in ("raise_in_piece", "kill_worker"):
                    # failing before the await: close the unconsumed
                    # coroutine so the injection does not also trip
                    # "never awaited" warnings
                    _close_awaitables(outcome)
                if event.kind == "raise_in_piece":
                    raise InjectedFault(
                        "injected failure in a loop task (site 'loop')"
                    )
                if event.kind == "kill_worker":
                    raise WorkerKilled(
                        "injected loop-task death (site 'loop')"
                    )
                if event.kind == "delay_reply":
                    # awaitable delay: this task stalls, the loop serves
                    # every other in-flight await meanwhile
                    await asyncio.sleep(event.delay)
            value = await self._bounded(outcome, ticket)
            if event is not None and event.kind == "drop_reply":
                raise ReplyDropped(
                    "injected reply drop after a completed loop task"
                )
            return value
        except asyncio.CancelledError:
            # cancelled before (or while) consuming the outcome: close
            # any not-yet-awaited coroutine (no-op when already closed)
            _close_awaitables(outcome)
            cause = ticket.cancel_cause if ticket is not None else None
            # a thread-side waiter on the same deadline may notice the
            # expiry just before the wait_for below: expired either way
            if isinstance(cause, DeadlineExceeded):
                self.tasks_expired += 1
            else:
                self.tasks_cancelled += 1
            if cause is not None:
                # a shed/expired ticket cancelled this task: surface the
                # ticket's cause (CallShed, DeadlineExceeded + trace),
                # not a bare CancelledError
                raise cause from None
            raise
        finally:
            if ticket is not None and hook is not None:
                ticket.remove_cancel_hook(hook)
            self.live_tasks -= 1
            self.tasks_finished += 1

    async def _bounded(self, outcome: Any, ticket: Any) -> Any:
        """Await the outcome, bounded by the ticket's deadline: since
        ``now()`` IS the loop clock, ``deadline.remaining()`` is an
        exact ``wait_for`` budget, and expiry cancels the await mid-
        flight — the ticket expires with its trace."""
        deadline = ticket.deadline if ticket is not None else None
        if deadline is None:
            return await self._gathered(outcome)
        try:
            return await asyncio.wait_for(
                self._gathered(outcome), timeout=deadline.remaining()
            )
        except (asyncio.TimeoutError, TimeoutError):
            self.tasks_expired += 1
            raise ticket.expire("awaiting an async servant") from None

    @staticmethod
    async def _gathered(outcome: Any) -> Any:
        """Await a coroutine outcome; for a batched-entry list, run the
        awaitable items concurrently (one pack = many overlapped awaits)
        and keep plain items in place."""
        if inspect.isawaitable(outcome):
            return await outcome

        async def keep(value: Any) -> Any:
            return value

        parts: list[Awaitable[Any]] = [
            item if inspect.isawaitable(item) else keep(item)
            for item in outcome
        ]
        return list(await asyncio.gather(*parts))

