"""In-process middleware.

The null object of the middleware family: it offers no hosts, so
``export`` only registers the object, and ``invoke`` is a direct method
call with no communication cost.  Two uses:

* the "distribution unplugged" configuration (FarmThreads) still runs
  through a uniform code path in tests;
* the functional (real-thread) mode, where there is no simulated cluster.
"""

from __future__ import annotations

from typing import Any

from repro.aop.plan import MethodTable
from repro.errors import MiddlewareError, RemoteError
from repro.middleware.base import Middleware, RemoteRef
from repro.middleware.context import server_dispatch
from repro.runtime.dispatch import current_dispatch

__all__ = ["LocalMiddleware"]


class LocalMiddleware(Middleware):
    """Direct dispatch; no placement."""

    name = "local"

    def __init__(self) -> None:
        self._objects: dict[int, tuple[Any, MethodTable]] = {}
        self.calls = 0

    def export(self, obj: Any, host: Any = None) -> RemoteRef:
        ref = RemoteRef(-1, self.name, type(obj).__name__)
        self._objects[ref.object_id] = (obj, MethodTable(type(obj)))
        return ref

    def invoke(
        self,
        ref: RemoteRef,
        method: str,
        args: tuple = (),
        kwargs: dict | None = None,
        oneway: bool = False,
    ) -> Any:
        return self._round_trip(ref, method, args, kwargs or {})

    def invoke_batch(
        self, ref: RemoteRef, method: str, pieces: Any, oneway: bool = False
    ) -> list:
        """Serve a pack through the servant's compiled batch plan: one
        advice pass (one BatchJoinPoint) for the whole pack.  A
        ``oneway`` pack still executes (there is no wire to race) but
        reports ``None`` placeholders, matching the remote contract."""
        results = self._round_trip(ref, method, pieces, batch=True)
        return [None] * len(results) if oneway else results

    def _round_trip(
        self,
        ref: RemoteRef,
        method: str,
        args: Any,
        kwargs: dict | None = None,
        batch: bool = False,
    ) -> Any:
        """The direct call both faces make (for a ``batch``, ``args``
        holds the pack's pieces): counted, attributed to the ambient
        ticket, and failing as a :class:`RemoteError`."""
        entry = self._objects.get(ref.object_id)
        if entry is None:
            raise MiddlewareError(f"unknown ref {ref!r}")
        obj, table = entry
        self.calls += 1
        # executed on the caller's activity, so the originating ticket
        # is already ambient — no wire id needed
        context = current_dispatch()
        if context is not None:
            context.attribute_remote()
        try:
            with server_dispatch():
                if batch:
                    return table.invoke_batch(obj, method, args)
                return table.invoke(obj, method, args, kwargs)
        except Exception as exc:  # noqa: BLE001 - uniform error surface
            kind = "local batched invocation" if batch else "local invocation"
            raise RemoteError(
                f"{kind} {ref.type_name}.{method} failed: {exc}", cause=exc
            ) from exc

    def servant_of(self, ref: RemoteRef) -> Any:
        entry = self._objects.get(ref.object_id)
        if entry is None:
            raise MiddlewareError(f"unknown ref {ref!r}")
        return entry[0]

    def shutdown(self) -> None:
        self._objects.clear()
