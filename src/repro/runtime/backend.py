"""Execution-backend abstraction.

The paper's concurrency aspect spawns Java threads.  Ours spawns through
an :class:`ExecutionBackend`, which is what lets the *same aspect code*
run both functionally (real threads) and on the simulated cluster
(simulated processes on virtual time).  This is itself an instance of the
paper's argument: the platform choice is a pluggable concern.

A backend provides:

* ``spawn(fn)``  → a :class:`TaskHandle` with ``join()``;
* lock / event / queue factories with uniform semantics;
* an optional notion of *where* work runs (the sim backend can pin the
  spawned activity's CPU charges to a node — used by the cost model).

The *current* backend is tracked per thread (simulated processes are
threads, so this is correct in both modes) with a global default of
:class:`~repro.runtime.threads.ThreadBackend`.
"""

from __future__ import annotations

import abc
import inspect
import threading
import time
from typing import Any, Callable

from repro.errors import BackendError
from repro.runtime.dispatch import Ambient, bind_dispatch

__all__ = [
    "TaskHandle",
    "ExecutionBackend",
    "current_backend",
    "use_backend",
    "set_default_backend",
    "resolve",
]


class TaskHandle(abc.ABC):
    """Handle on a spawned activity."""

    @abc.abstractmethod
    def join(self) -> Any:
        """Wait for completion; return the activity's result or raise its
        exception."""

    @property
    @abc.abstractmethod
    def done(self) -> bool:
        """Has the activity finished (successfully or not)?"""


class ExecutionBackend(abc.ABC):
    """Factory for concurrency primitives in one execution mode."""

    name: str = "backend"
    #: where this backend runs servants, the one fact every per-backend
    #: rule reads: ``None`` — wherever the spec's middleware places them
    #: (in this interpreter, or on a simulated cluster's nodes);
    #: ``"loop"`` — on the backend's event loop; ``"process"`` — in its
    #: resident worker processes.  A backend that hosts servants itself
    #: takes no middleware, cluster or placement.
    servant_host: str | None = None

    @classmethod
    def for_cluster(cls, cluster: Any) -> "ExecutionBackend":
        """The backend a spec naming this class in ``backend=`` runs on;
        ``cluster`` is the spec's (only the simulator runs on it)."""
        return cls()

    def spawn(
        self, fn: Callable[[], Any], name: str | None = None, **kwargs: Any
    ) -> TaskHandle:
        """Run ``fn`` concurrently; returns a joinable handle.

        Template method: the caller's ambient dispatch ticket
        (:mod:`repro.runtime.dispatch`) is captured HERE, once, so every
        backend — including third-party ones registered via
        ``register_backend`` — propagates per-call collector routing
        into the spawned activity by construction.  Backends implement
        :meth:`_spawn`; thunks marked with
        :func:`~repro.runtime.dispatch.shield_dispatch` (long-lived
        workers) pass through uncaptured.

        The spawned activity also runs with THIS backend as its ambient
        one (:func:`use_backend`): work a backend spawns belongs to that
        backend, so resolution points deep inside worker activities
        (e.g. awaiting an async servant's coroutine) reach the backend
        that owns the loop instead of the process-wide default.
        """
        bound = bind_dispatch(fn)

        def run() -> Any:
            stack = _STATE.stack  # use_backend(self), inline
            stack.append(self)
            try:
                return bound()
            finally:
                stack.pop()

        return self._spawn(run, name=name, **kwargs)

    @abc.abstractmethod
    def _spawn(
        self, fn: Callable[[], Any], name: str | None = None, **kwargs: Any
    ) -> TaskHandle:
        """Backend-specific activity creation (``fn`` is pre-bound)."""

    @abc.abstractmethod
    def make_lock(self, name: str = "lock") -> Any:
        """A (non-reentrant) context-manager lock."""

    @abc.abstractmethod
    def make_event(self, name: str = "event") -> Any:
        """An event with ``wait()`` / ``set(value=None)`` / ``is_set``."""

    @abc.abstractmethod
    def make_queue(self, name: str = "queue") -> Any:
        """A FIFO with blocking ``get()`` and ``put(item)``."""

    def now(self) -> float:
        """This backend's monotonic clock, in seconds.

        Deadlines and tracing spans are measured against the clock of
        the backend the call runs on: wall time for real threads, the
        simulator's virtual time for simulated processes — so a
        ``timeout=`` means the same thing in both execution modes.
        """
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        """Pause the calling activity for ``seconds`` on :meth:`now`'s
        clock — what retry back-off and injected ``delay_reply`` faults
        wait with, so on the simulator they cost virtual time, not wall
        time."""
        time.sleep(seconds)

    def finish(self, outcome: Any) -> Any:
        """Resolve a dispatch outcome that may be backend-deferred.

        The asyncio backend overrides this to run awaitables to
        completion on its loop.  Everywhere else an awaitable outcome
        means an ``async def`` servant was dispatched on a backend with
        nowhere to run it — a configuration error, reported as such
        rather than leaking a raw coroutine into result merging.
        """
        if _carries_awaitables(outcome):
            _close_awaitables(outcome)
            raise BackendError(
                f"backend {self.name!r} cannot await an async servant "
                "result: async def servant methods need backend='asyncio' "
                "(every other backend runs plain methods only)"
            )
        return outcome

    def detach(self, outcome: Any) -> None:
        """Fire-and-forget a dispatch outcome (native oneway).

        Default backends have nothing deferred to keep alive, so this
        only validates the outcome the way :meth:`finish` does.
        """
        self.finish(outcome)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


#: exact types that are never awaitable: what piece results are made of
_PLAIN = frozenset(
    (type(None), bool, int, float, complex, str, bytes, bytearray,
     tuple, list, dict, set, frozenset)
)


def _carries_awaitables(outcome: Any) -> bool:
    """Does the outcome hold coroutines only an event loop could run —
    one from an ``async def`` servant, or a pack result list containing
    some?  The one such test: every resolution site imports it, so the
    result of every piece of every call passes through.  Plain builtin
    values, and lists of them, are told by their exact type; only what
    is left is asked ``inspect.isawaitable`` (three ABC checks a value)."""
    kind = type(outcome)
    if kind in _PLAIN:
        if kind is not list or _PLAIN.issuperset(map(type, outcome)):
            return False
    elif inspect.isawaitable(outcome):
        return True
    return isinstance(outcome, list) and any(
        inspect.isawaitable(item) for item in outcome
    )


def resolve(outcome: Any) -> Any:
    """The result boundary: the value behind one dispatch outcome.  A
    :class:`~repro.runtime.futures.Future` (a concurrency aspect
    answered the call) is awaited; an awaitable (an ``async def``
    servant did, directly or through that future) goes to the current
    backend's :meth:`~ExecutionBackend.finish`; a plain value is
    itself.  Skeletons, the retry envelope, the pipeline forwarder and
    the servant side of every transport resolve here, so no raw
    coroutine reaches result merging or the wire."""
    if isinstance(outcome, Future):
        outcome = outcome.result()
    if _carries_awaitables(outcome):
        outcome = current_backend().finish(outcome)
    return outcome


def _close_awaitables(outcome: Any) -> None:
    """Close orphaned coroutines so rejecting them does not also emit
    'coroutine was never awaited' warnings."""
    items = outcome if isinstance(outcome, list) else [outcome]
    for item in items:
        close = getattr(item, "close", None)
        if close is None:
            continue
        try:
            close()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass


class _BackendState(threading.local):
    def __init__(self) -> None:
        self.stack: list[ExecutionBackend] = []


_STATE = _BackendState()
_DEFAULT: list[ExecutionBackend | None] = [None]


def set_default_backend(backend: ExecutionBackend | None) -> None:
    """Set the process-wide fallback backend (``None`` restores the
    lazily created ThreadBackend)."""
    _DEFAULT[0] = backend


def current_backend() -> ExecutionBackend:
    """The innermost active backend for this thread.

    Falls back to the process-wide default; creating the default
    ThreadBackend lazily avoids import cycles.
    """
    if _STATE.stack:
        return _STATE.stack[-1]
    if _DEFAULT[0] is None:
        from repro.runtime.threads import ThreadBackend

        _DEFAULT[0] = ThreadBackend()
    return _DEFAULT[0]


def use_backend(backend: ExecutionBackend) -> Ambient:
    """Make ``backend`` current for this thread within the block."""
    if not isinstance(backend, ExecutionBackend):
        raise BackendError(f"not an ExecutionBackend: {backend!r}")
    return Ambient(_STATE.stack, backend)


# down here: futures.py imports current_backend from this module
from repro.runtime.futures import Future  # noqa: E402
