"""Middleware interface and shared machinery.

A *middleware* exports objects to cluster nodes and carries invocations
to them.  Both concrete middlewares (RMI and MPP) share:

* a :class:`RemoteRef` — opaque handle naming an exported servant;
* a :class:`MiddlewareCosts` profile — the per-call and per-byte costs
  that distinguish them (this is where "MPP introduces lower
  communication overhead than Java RMI" lives);
* the server-side dispatch pattern: requests arrive on a channel owned by
  the servant's node; each request is served by a fresh activity (RMI
  semantics — concurrent calls overlap unless a synchronisation aspect
  serialises them).  Method resolution goes through a per-servant-class
  :class:`~repro.aop.plan.MethodTable` built at export time: the table's
  entries are the weaver's compiled dispatch plans, refreshed only when
  the weaver's version moves, so the skeleton stops resolving methods
  per request.

Cost charging uses the *caller's* CPU for marshalling and the *servant's*
CPU for unmarshalling + dispatch, with wire time from the cluster network
model.

Every request carries the **originating dispatch ticket**, the
caller's ambient :class:`~repro.runtime.ticket.DispatchContext`: a
simulated request never leaves the process, so it holds the ticket
itself.  The server-side activity re-installs it around the servant
execution, so work done — and replies produced — on behalf of a call
stay attributed to that call however many calls are in flight on one
servant.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Any, Sequence

from repro.aop.plan import MethodTable, piece_view
from repro.cluster.machine import Node
from repro.cluster.topology import Cluster
from repro.errors import MiddlewareError, RemoteError
from repro.middleware.context import current_node, server_dispatch, use_node
from repro.middleware.serialize import Serializer
from repro.runtime.backend import resolve
from repro.runtime.dispatch import (
    current_dispatch,
    shield_dispatch,
    use_dispatch,
)
from repro.runtime.simbackend import SimBackend
from repro.sim import Channel, Simulator

__all__ = [
    "MiddlewareCosts",
    "RemoteRef",
    "Middleware",
    "SimMiddleware",
    "perform_request",
]


def perform_request(
    table: MethodTable,
    obj: Any,
    method: str,
    args: Any,
    kwargs: Any,
    batch: bool = False,
) -> tuple[str, Any]:
    """Execute one servant request; returns ``("ok", result)`` or
    ``("error", exc)``.

    The shared server-side dispatch step of every transport — the
    simulated middlewares' per-request activities and the process
    backend's resident workers both call it: execution runs under the
    ``server_dispatch`` marker, so every woven call runs its serving
    plan, without the parallelisation advice (crucial in a forked
    worker, which inherits the parent's woven classes and deployed
    aspects), and method resolution goes through the servant's compiled
    :class:`~repro.aop.plan.MethodTable`.  For
    batched requests ``args`` holds the pack's piece views.

    An ``async def`` servant method hands back a coroutine here; the
    outcome is resolved (:func:`~repro.runtime.backend.resolve`)
    before it is shipped, so a middleware stack either runs it on a
    loop-owning backend or ships the backend's targeted configuration
    error — never a raw, unmarshalable coroutine object.
    """
    try:
        with server_dispatch():
            if batch:
                result = table.invoke_batch(obj, method, args)
            else:
                result = table.invoke(obj, method, args, kwargs or {})
            result = resolve(result)
        return ("ok", result)
    except Exception as exc:  # noqa: BLE001 - shipped to the client
        return ("error", exc)


@dataclass(frozen=True)
class MiddlewareCosts:
    """Per-invocation cost profile (seconds / seconds-per-byte).

    ``client_overhead``: stub + protocol work on the caller per call;
    ``server_overhead``: skeleton + dispatch work on the servant per call;
    ``serialize_per_byte`` / ``deserialize_per_byte``: marshalling rates.
    """

    client_overhead: float = 0.0
    server_overhead: float = 0.0
    serialize_per_byte: float = 0.0
    deserialize_per_byte: float = 0.0

    def marshal_time(self, size_bytes: int) -> float:
        return self.client_overhead + size_bytes * self.serialize_per_byte

    def unmarshal_time(self, size_bytes: int) -> float:
        return self.server_overhead + size_bytes * self.deserialize_per_byte


class RemoteRef:
    """Handle to an exported servant."""

    _ids = itertools.count(1)

    __slots__ = ("object_id", "node_id", "middleware_name", "type_name")

    def __init__(self, node_id: int, middleware_name: str, type_name: str):
        self.object_id = next(RemoteRef._ids)
        self.node_id = node_id
        self.middleware_name = middleware_name
        self.type_name = type_name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RemoteRef #{self.object_id} {self.type_name}@node{self.node_id} "
            f"via {self.middleware_name}>"
        )


class Middleware(abc.ABC):
    """Export / invoke interface implemented by all middlewares."""

    name: str = "middleware"

    @abc.abstractmethod
    def hosts(self, count: int) -> Sequence:
        """The host group ``count`` servants of one construction are
        placed on: the distribution aspect's policy chooses out of it,
        one host per export."""

    @abc.abstractmethod
    def export(self, obj: Any, host: Any) -> RemoteRef:
        """Install ``obj`` as a servant on ``host``; returns its ref."""

    @abc.abstractmethod
    def invoke(
        self,
        ref: RemoteRef,
        method: str,
        args: tuple = (),
        kwargs: dict | None = None,
        oneway: bool = False,
    ) -> Any:
        """Call ``method`` on the servant behind ``ref``.

        ``oneway=True`` returns immediately after the send (no reply,
        result is ``None``) where the middleware supports it.
        """

    @abc.abstractmethod
    def invoke_batch(
        self, ref: RemoteRef, method: str, pieces: Any, oneway: bool = False
    ) -> list:
        """Call ``method`` once per piece in a single *batched* request.

        ``pieces`` are ``CallPiece``-shaped objects or ``(args, kwargs)``
        pairs; the reply is the list of per-item results in piece order.
        With ``oneway=True`` the pack is fire-and-forget where the
        middleware supports it: the call returns (a list of ``None``
        placeholders) as soon as the send completes, and no reply is
        ever produced or waited for.
        """

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Stop server activities (end of run)."""


class _Servant:
    """Server-side record for one exported object."""

    __slots__ = ("obj", "node", "channel", "ref", "table")

    def __init__(self, obj: Any, node: Node, channel: Channel, ref: RemoteRef):
        self.obj = obj
        self.node = node
        self.channel = channel
        self.ref = ref
        #: plan-backed dispatch table for the servant's class
        self.table = MethodTable(type(obj))


class _Request:
    __slots__ = (
        "method",
        "args",
        "kwargs",
        "reply_channel",
        "oneway",
        "size",
        "caller_node",
        "batch",
        "ticket",
    )

    def __init__(self, method, args, kwargs, reply_channel, oneway, size,
                 caller_node, batch=False, ticket=None):
        self.method = method
        #: for batched requests ``args`` holds the piece views and
        #: ``kwargs`` is unused
        self.args = args
        self.kwargs = kwargs
        self.reply_channel = reply_channel
        self.oneway = oneway
        self.size = size
        self.caller_node = caller_node
        self.batch = batch
        #: originating per-call dispatch ticket (None outside any): the
        #: servant side re-installs it so work performed on behalf of a
        #: call — and its reply — stays attributed to it
        self.ticket = ticket


_STOP = object()


class SimMiddleware(Middleware):
    """Common simulated middleware: channels + per-request activities.

    Concrete subclasses supply the cost profile and a name; RMI adds a
    name-server registry on top.
    """

    def __init__(
        self,
        cluster: Cluster,
        costs: MiddlewareCosts,
    ):
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.costs = costs
        self.serializer = Serializer()
        self.backend = SimBackend(self.sim)
        self._servants: dict[int, _Servant] = {}
        self._servers: list[Any] = []
        self.calls = 0
        self.oneway_calls = 0
        self.batched_calls = 0

    # -- export -----------------------------------------------------------

    def hosts(self, count: int) -> Sequence:
        """The cluster's nodes, whatever the construction's size."""
        return self.cluster.nodes

    def export(self, obj: Any, node: Node) -> RemoteRef:
        ref = RemoteRef(node.node_id, self.name, type(obj).__name__)
        channel = Channel(self.sim, name=f"{self.name}.srv{ref.object_id}")
        servant = _Servant(obj, node, channel, ref)
        self._servants[ref.object_id] = servant
        node.place(obj)
        # shield: the accept loop outlives any call that happens to be
        # exporting (it serves each request under its OWN ticket instead)
        handle = self.backend.spawn(
            shield_dispatch(lambda: self._serve(servant)),
            name=f"{self.name}.server.{ref.object_id}",
            daemon=True,
        )
        self._servers.append((servant, handle))
        return ref

    def servant_of(self, ref: RemoteRef) -> Any:
        """The actual object behind a ref (testing/metrics use)."""
        servant = self._servants.get(ref.object_id)
        if servant is None:
            raise MiddlewareError(f"unknown ref {ref!r}")
        return servant.obj

    # -- invoke -----------------------------------------------------------

    def invoke(
        self,
        ref: RemoteRef,
        method: str,
        args: tuple = (),
        kwargs: dict | None = None,
        oneway: bool = False,
    ) -> Any:
        return self._round_trip(ref, method, (args, kwargs or {}), oneway)

    def invoke_batch(
        self, ref: RemoteRef, method: str, pieces: Any, oneway: bool = False
    ) -> list:
        """Ship a whole pack as ONE request/reply pair.

        The pack's piece views are marshalled together (one marshalling
        pass, one wire transit, one skeleton dispatch through
        :meth:`~repro.aop.plan.MethodTable.invoke_batch`) — this is the
        wire-level face of communication packing: the per-message
        overheads are paid once per pack instead of once per item.

        With ``oneway=True`` the pack is fire-and-forget: no reply
        channel is created, the caller resumes as soon as the send (and
        its marshalling charge) completes, and the per-item results are
        ``None`` placeholders — one message on the wire, zero reply
        wait.
        """
        views = [
            (tuple(args), dict(kwargs))
            for args, kwargs in map(piece_view, pieces)
        ]
        self.batched_calls += 1
        results = self._round_trip(ref, method, views, oneway, batch=True)
        return [None] * len(views) if oneway else results

    def _round_trip(
        self,
        ref: RemoteRef,
        method: str,
        payload: Any,
        oneway: bool,
        batch: bool = False,
    ) -> Any:
        """One request (and, unless ``oneway``, its reply) over the
        simulated wire.  ``payload`` is the call's ``(args, kwargs)``
        or, for a ``batch``, the pack's piece views."""
        servant = self._servants.get(ref.object_id)
        if servant is None:
            raise MiddlewareError(f"unknown ref {ref!r}")
        self.calls += 1
        if oneway:
            self.oneway_calls += 1
        src = current_node()
        # 1. marshal on the caller's CPU
        wire, size = self.serializer.pack(payload)
        if src is not None:
            src.execute(self.costs.marshal_time(size))
        # 2. wire transit
        delay = self.cluster.transit_delay(size, src, servant.node)
        reply_channel = (
            None if oneway else Channel(self.sim, name=f"{self.name}.reply")
        )
        args, kwargs = (wire, None) if batch else wire
        servant.channel.send(
            _Request(
                method, args, kwargs, reply_channel, oneway, size, src,
                batch=batch, ticket=current_dispatch(),
            ),
            delay=delay,
            size_bytes=size,
            tag=method,
        )
        if oneway:
            return None
        # 3. synchronous wait for the reply
        reply = reply_channel.recv()
        outcome, result = reply.payload
        # 4. unmarshal the reply on the caller's CPU
        if src is not None:
            src.execute(self.costs.unmarshal_time(reply.size_bytes))
        if outcome == "error":
            kind = "remote batched invocation" if batch else "remote invocation"
            raise RemoteError(
                f"{kind} {ref.type_name}.{method} failed: {result}",
                cause=result,
            )
        return self.serializer.unpack(result)

    # -- server side -----------------------------------------------------------

    def _serve(self, servant: _Servant) -> None:
        """Accept loop: one activity per request (RMI thread-per-call)."""
        with use_node(servant.node):
            while True:
                message = servant.channel.recv()
                if message.payload is _STOP:
                    return
                request: _Request = message.payload
                self.backend.spawn(
                    lambda r=request: self._dispatch(servant, r),
                    name=f"{self.name}.dispatch.{servant.ref.object_id}",
                )

    def _dispatch(self, servant: _Servant, request: _Request) -> None:
        # execute the servant work under the originating per-call ticket
        # — the request's reply therefore resolves against the call that
        # sent it, however many calls are in flight on this servant
        context = request.ticket
        if context is not None and context.cancelled:
            # the originating call is gone (shed, or its deadline
            # expired): don't burn servant CPU on work nobody will
            # collect — reply with the cancellation cause (the caller
            # side is unwinding anyway) and keep serving other calls
            if not request.oneway:
                request.reply_channel.send(
                    ("error", context.cancel_cause),
                    delay=self.cluster.transit_delay(
                        0, servant.node, request.caller_node
                    ),
                    size_bytes=0,
                    tag="reply",
                )
            return
        if context is not None:
            context.attribute_remote()
        with use_node(servant.node):
            # unmarshal on the servant's CPU
            servant.node.execute(self.costs.unmarshal_time(request.size))
            with use_dispatch(context):
                outcome = perform_request(
                    servant.table,
                    servant.obj,
                    request.method,
                    request.args,
                    request.kwargs,
                    batch=request.batch,
                )
            if request.oneway:
                return
            wire_result, size = self.serializer.pack(outcome[1])
            servant.node.execute(self.costs.marshal_time(size))
            delay = self.cluster.transit_delay(size, servant.node, request.caller_node)
            request.reply_channel.send(
                (outcome[0], wire_result if outcome[0] == "ok" else outcome[1]),
                delay=delay,
                size_bytes=size,
                tag="reply",
            )

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the accept loops and forget the servants: a later call
        raises ``unknown ref`` instead of waiting on a dead channel."""
        for servant, _handle in self._servers:
            servant.channel.send(_STOP)
        self._servers.clear()
        self._servants.clear()
