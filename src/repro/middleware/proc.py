"""Process middleware: real out-of-process invocation over pipes.

The third concrete middleware, and the first one that is not simulated:
``export`` ships a pickled servant into a resident worker process owned
by the :class:`~repro.runtime.procbackend.ProcessBackend` (one worker
per servant — the literal "each servant's MethodTable in a resident
worker process"), and ``invoke``/``invoke_batch`` carry
:class:`~repro.middleware.serialize.RequestEnvelope` frames across the
pipe.

Dispatch-ticket semantics match :class:`~repro.middleware.local.LocalMiddleware`
on the client side (the invoke runs on the caller's activity, so the
originating :class:`~repro.runtime.ticket.DispatchContext` is
ambient — ``attribute_remote`` and deadline checks need no wire round
trip) *and* :class:`~repro.middleware.base.SimMiddleware` on the wire
(``context_id`` travels in every envelope and echoes in the reply, so
frames stay attributable however many calls share a worker).

Deadlines and shedding are enforced **during** the reply wait: it is
bounded by the ambient ticket's remaining budget and calls the ticket's
``check_deadline`` whenever it wakes without a frame, so a call expires
at its deadline and a shed one unwinds within one poll interval.  Its
eventual reply is identified by ``call_id`` and discarded by the next
caller on that worker — an abandoned call never desynchronises the
pipe.  A worker found dead
raises :class:`~repro.errors.WorkerCrashed` (a
:class:`~repro.errors.RemoteError`), which the skeletons' failure paths
turn into a fail-fast ``ResultCollector.fail``.
"""

from __future__ import annotations

import itertools
import threading
from functools import partial
from typing import Any

from repro.aop.plan import piece_view
from repro.errors import MiddlewareError, RemoteError, ReplyDropped, WorkerCrashed
from repro.faults.schedule import fire_fault
from repro.middleware.base import Middleware, RemoteRef
from repro.middleware.serialize import ExportEnvelope, RequestEnvelope, Serializer
from repro.runtime.dispatch import current_dispatch
from repro.runtime.procbackend import ProcessBackend, ProcWorker

__all__ = ["ProcMiddleware"]


class _Export:
    """Parent-side record for one exported servant."""

    __slots__ = ("worker", "ref", "local")

    def __init__(self, worker: ProcWorker, ref: RemoteRef, local: Any):
        self.worker = worker
        self.ref = ref
        #: the parent-side twin the client code holds — its state does
        #: NOT track the remote copy (value semantics, like RMI)
        self.local = local


class ProcMiddleware(Middleware):
    """Export / invoke over resident worker processes."""

    name = "process"

    def __init__(
        self,
        backend: ProcessBackend | None = None,
        copy_payloads: bool = True,
        respawn: bool = True,
    ):
        if backend is not None and not isinstance(backend, ProcessBackend):
            raise MiddlewareError(
                f"ProcMiddleware needs a ProcessBackend to park its "
                f"workers on, got {type(backend).__name__}"
            )
        self.backend = backend if backend is not None else ProcessBackend()
        # copy mode is meaningless here (pickling IS the copy); the
        # serializer exists for its accounting: messages == marshalling
        # passes, the invariant the pack-amortisation bench asserts
        self.serializer = Serializer(copy=copy_payloads)
        self._servants: dict[int, _Export] = {}
        self._call_ids = itertools.count(1)
        self.calls = 0
        self.oneway_calls = 0
        self.batched_calls = 0
        self.worker_crashes = 0
        #: refill a crashed servant's worker from the parent-side twin so
        #: a retried piece finds a healthy process behind the same ref
        self.respawn = respawn
        self.worker_respawns = 0
        self._refill_lock = threading.Lock()

    # -- export -------------------------------------------------------------

    def export(self, obj: Any, node: Any = None) -> RemoteRef:
        """Ship ``obj`` into a fresh resident worker process.

        Waits for the worker's export acknowledgement: a servant that
        cannot materialise in the child (unpicklable state, a class a
        spawn-started child cannot import) fails HERE, at deploy time,
        not on the first invocation.
        """
        ref = RemoteRef(
            node.node_id if node is not None else -1,
            self.name,
            type(obj).__name__,
        )
        self._servants[ref.object_id] = _Export(self._host(ref, obj), ref, obj)
        if node is not None:
            node.place(obj)
        return ref

    def _host(self, ref: RemoteRef, obj: Any) -> ProcWorker:
        """A fresh worker process hosting ``obj`` behind ``ref``, its
        export acknowledged; a failed one leaves no process behind."""
        # encode BEFORE forking: an unpicklable servant fails with no
        # worker process to clean up (nothing to leak)
        frame = self.serializer.encode(
            ExportEnvelope(ref.object_id, obj, ref.type_name)
        )
        worker = self.backend.new_worker()
        try:
            with worker.lock:  # recv's poll object is not re-entrant
                worker.send(frame)
                reply = self.serializer.decode(worker.recv())
            if reply.outcome == "error":
                raise MiddlewareError(
                    f"exporting {ref.type_name} to worker process "
                    f"{worker.name} failed: {reply.payload}"
                )
        except BaseException:
            worker.stop()
            raise
        return worker

    def servant_of(self, ref: RemoteRef) -> Any:
        """The parent-side twin behind a ref (observability only: the
        authoritative state lives in the worker process)."""
        return self._require(ref).local

    def worker_of(self, ref: RemoteRef) -> ProcWorker:
        """The resident worker hosting a ref (fault-injection hook)."""
        return self._require(ref).worker

    # -- invoke -------------------------------------------------------------

    def invoke(
        self,
        ref: RemoteRef,
        method: str,
        args: tuple = (),
        kwargs: dict | None = None,
        oneway: bool = False,
    ) -> Any:
        return self._round_trip(ref, method, tuple(args), dict(kwargs or {}), oneway)

    def invoke_batch(
        self, ref: RemoteRef, method: str, pieces: Any, oneway: bool = False
    ) -> list:
        """Ship a whole pack as ONE envelope/reply pair: one marshalling
        pass, one pipe frame, one
        :meth:`~repro.aop.plan.MethodTable.invoke_batch` dispatch — the
        per-frame pickling overhead is paid once per pack, not per item
        (the process-backend face of communication packing)."""
        views = [
            (tuple(args), dict(kwargs))
            for args, kwargs in map(piece_view, pieces)
        ]
        self.batched_calls += 1
        results = self._round_trip(ref, method, views, None, oneway, batch=True)
        return [None] * len(views) if oneway else list(results)

    def _round_trip(
        self,
        ref: RemoteRef,
        method: str,
        args: Any,
        kwargs: dict | None,
        oneway: bool,
        batch: bool = False,
    ) -> Any:
        """What both faces share: count the call, frame it (for a
        ``batch``, ``args`` holds the pack's piece views), make one
        request/reply round trip over the servant's worker pipe and turn
        an error reply into the client-side raise.

        The ambient dispatch ticket (this invoke runs on the caller's
        activity) is consulted before the send and during the reply
        wait: a shed or deadline-expired call raises its cancellation
        cause mid-wait.  ``attribute_remote`` is bumped like the local
        middleware's — the servant-side execution happens on behalf of
        the ambient call.  Stale frames from calls that abandoned their
        wait are recognised by ``call_id`` and dropped.
        """
        export = self._servants.get(ref.object_id) or self._require(ref)  # raises
        self.calls += 1
        if oneway:
            self.oneway_calls += 1
        context = current_dispatch()
        call_id = next(self._call_ids)
        check = deadline = context_id = None
        if context is not None:
            context_id = context.context_id
            deadline = context.deadline
            check = partial(context.check_deadline, "awaiting a process-backend reply")
            context.attribute_remote()
            check()  # don't ship work for a call that is already cancelled
        frame = self.serializer.encode(  # names a culprit field
            RequestEnvelope(
                call_id, ref.object_id, method, args, kwargs, oneway, batch,
                context_id,
            )
        )
        worker = export.worker
        # the "proc" fault site: consulted once per round trip, indexed
        # by the resident worker.  kill_worker SIGKILLs the real process
        # and lets the send/recv below surface the genuine WorkerCrashed
        # (the full obituary path, not a synthetic error); delay_reply
        # stalls the round trip; drop_reply completes the call in the
        # worker but discards the matched reply on the way back.
        event = fire_fault("proc", worker.index)
        if event is not None:
            if event.kind == "kill_worker":
                worker.kill()
            elif event.kind == "delay_reply":
                self.backend.sleep(event.delay)
        try:
            # one round trip at a time per worker: the pipe is shared,
            # and the worker's poll object is not re-entrant
            with worker.lock:
                worker.send(frame)
                if oneway:
                    return None
                while True:
                    reply = self.serializer.decode(worker.recv(check, deadline))
                    if reply.call_id == call_id or reply.call_id == -1:
                        break
                    # a previous caller's abandoned reply: discard
        except WorkerCrashed:
            self.worker_crashes += 1
            if self.respawn:
                self._refill(export, worker)
            raise
        if event is not None and event.kind == "drop_reply":
            raise ReplyDropped(
                f"injected reply drop on worker {worker.name} (call {call_id})"
            )
        if reply.outcome == "error":
            raise self._remote_error(ref, method, reply.payload, batch=batch)
        return reply.payload

    def _require(self, ref: RemoteRef) -> _Export:
        export = self._servants.get(ref.object_id)
        if export is None:
            raise MiddlewareError(f"unknown ref {ref!r}")
        return export

    def _refill(self, export: _Export, dead: ProcWorker) -> None:
        """Replace a crashed servant worker: re-export the parent-side
        twin into a fresh process behind the SAME ref, so the retry that
        follows the :class:`~repro.errors.WorkerCrashed` finds a healthy
        resident.  The twin carries deploy-time state (value semantics) —
        mid-run servant mutations die with the process, which is the
        honest recovery contract for state that only lived remotely.

        Best-effort and idempotent: concurrent crashed calls on one
        worker race here, the identity check makes the first one refill
        and the rest keep the already-fresh worker.
        """
        with self._refill_lock:
            if export.worker is not dead:
                return  # another caller already refilled this servant
            try:
                export.worker = self._host(export.ref, export.local)
                self.worker_respawns += 1
            except Exception:  # noqa: BLE001 - best-effort: the export
                pass  # stays dead and its callers keep failing
            finally:
                dead.stop()  # reap the corpse (idempotent)

    def _remote_error(
        self, ref: RemoteRef, method: str, payload: Any, batch: bool = False
    ) -> RemoteError:
        kind = "remote batched invocation" if batch else "remote invocation"
        error = RemoteError(
            f"{kind} {ref.type_name}.{method} failed in worker process: "
            f"{payload}",
            cause=payload,
        )
        # keep the rendered worker-side traceback reachable on the
        # client-facing error, not only on the (possibly re-wrapped) cause
        remote_tb = getattr(payload, "remote_traceback", None)
        if remote_tb is not None:
            error.remote_traceback = remote_tb  # type: ignore[attr-defined]
        return error

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every resident worker this middleware exported to
        (idempotent; reached from ``on_undeploy``/``ParallelApp.__exit__``
        and backstopped by the backend's ``atexit`` hook)."""
        for export in self._servants.values():
            export.worker.stop()
        self._servants.clear()
