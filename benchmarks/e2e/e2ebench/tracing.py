"""Spans recorded from outside the program, around its public entry points.

A span has a name, start, end, the span that caused it and the id of the
operation it belongs to.  The wrappers live here and are installed on one
deployed app as instance attributes, so nothing under ``src/`` knows it
is being traced; spans inside ``src/`` are a later issue (the telemetry
plane).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple

__all__ = ["Tracer", "Span", "install", "traced_servant", "self_times"]

#: (op id, id of the innermost open span) of the running activity
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "e2ebench_span", default=(None, None)
)


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent_id: int | None
    op_id: int | None


class Tracer:
    """Collects spans and exact counts from the wrappers it hands out."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        #: name -> sum of ``measure(result)`` over wrapped calls
        self.counts: dict = defaultdict(int)
        self._ids = itertools.count(1)

    def begin_op(self, op_id: int) -> None:
        """Mark the calling activity as working on operation ``op_id``."""
        _CURRENT.set((op_id, None))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        op_id, parent_id = _CURRENT.get()
        span_id = next(self._ids)
        token = _CURRENT.set((op_id, span_id))
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            _CURRENT.reset(token)
            self.spans.append(Span(span_id, name, start, end, parent_id, op_id))

    def wrap(
        self, name: str, fn: Callable, measure: Callable[[Any], int] | None = None
    ) -> Callable:
        """``fn`` with a span around every call; ``measure(result)`` is
        added to ``counts[name]`` (pieces of a split, for instance)."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            if measure is not None:
                self.counts[name] += measure(result)
            return result

        return traced

    def carry(self, fn: Callable[[], Any]) -> Callable[[], Any]:
        """``fn`` bound to the caller's span context, for activities that
        start in another thread (threads do not inherit context)."""
        context = contextvars.copy_context()
        return lambda: context.run(fn)

    def wrap_spawn(self, name: str, spawn: Callable, thunk_at: int) -> Callable:
        """A spawn entry point whose thunk (positional ``thunk_at``)
        keeps the spawning call's op id and parent span."""

        @functools.wraps(spawn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                carried = list(args)
                carried[thunk_at] = self.carry(carried[thunk_at])
                return spawn(*carried, **kwargs)

        return traced


def traced_servant(tracer: Tracer, cls: type, method: str) -> Callable[[], None]:
    """Put a ``servant`` span around ``cls.method`` before the class is
    woven; returns the function that puts the plain method back."""
    plain = cls.__dict__[method]
    if asyncio.iscoroutinefunction(plain):

        @functools.wraps(plain)
        async def servant(self: Any, *args: Any, **kwargs: Any) -> Any:
            with tracer.span("servant"):
                return await plain(self, *args, **kwargs)

    else:

        @functools.wraps(plain)
        def servant(self: Any, *args: Any, **kwargs: Any) -> Any:
            with tracer.span("servant"):
                return plain(self, *args, **kwargs)

    setattr(cls, method, servant)
    return lambda: setattr(cls, method, plain)


def install(tracer: Tracer, app: Any) -> None:
    """Wrap the public entry points of one deployed app, layer by layer.
    Instance attributes shadow the methods, so other apps are untouched."""
    app.submit = tracer.wrap("api.submit", app.submit)
    app.admission.admit = tracer.wrap("runtime.admission.admit", app.admission.admit)
    backend = app.backend
    backend.spawn = tracer.wrap_spawn("runtime.threads.spawn", backend.spawn, 0)
    splitter = app.spec.splitter
    splitter.split = tracer.wrap("parallel.partition.split", splitter.split, len)
    splitter.combine = tracer.wrap("parallel.partition.combine", splitter.combine)
    if app.async_aspect is not None:
        spawner = app.async_aspect.spawner
        spawner.spawn = tracer.wrap_spawn(
            "parallel.concurrency.spawn", spawner.spawn, 1
        )
    if app.middleware is not None:
        for entry in ("invoke", "invoke_batch"):
            setattr(
                app.middleware,
                entry,
                tracer.wrap(f"middleware.{entry}", getattr(app.middleware, entry)),
            )
    if hasattr(backend, "bridge"):
        backend.bridge = tracer.wrap("runtime.asyncbackend.bridge", backend.bridge)


def self_times(spans: list) -> dict:
    """Per span name, the summed self time: duration minus the part of
    the span's interval that its child spans cover."""
    children: dict = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    totals: dict = defaultdict(float)
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[span.name] += (span.end - span.start) - covered
    return dict(totals)
