"""Process middleware: real out-of-process invocation over pipes.

The third concrete middleware, and the first one that is not simulated:
``export`` ships a pickled servant into a resident worker process this
middleware forks, refills and stops, and
``invoke``/``invoke_batch`` carry
:class:`~repro.middleware.serialize.RequestEnvelope` frames across the
pipe.

**Placement.**  The host group of one construction (:meth:`hosts`) is
``min(n, usable_cpus())`` fresh worker slots; the distribution aspect
chooses a slot for each servant and passes it to :meth:`export`, which
forks the slot's worker on its first servant.  A host-less export gets
a worker of its own.  A worker serves one request at a time, so a
servant that *blocks* stalls those hosted beside it (waits belong on
asyncio).

**Runs.**  :meth:`link` tells each worker which adjacent pipeline stages
it hosts both ends of.  A stage call the forwarder marked
(:func:`~repro.runtime.dispatch.run_ahead`) then ships the ticket's
remaining budget, the worker goes on through the linked stages itself —
the paper's stages forward to each other, distribution only decides
where one lives — and answers once, with its ``hops``.  Stages on
different workers keep the parent-mediated hop; a bare ``invoke`` is
always one stage.

Dispatch tickets: on the client side the invoke runs on the caller's
activity, so the originating
:class:`~repro.runtime.ticket.DispatchContext` is ambient
(``attribute_remote`` and deadline checks need no wire round trip); on
the wire it matches :class:`~repro.middleware.base.SimMiddleware`
(``context_id`` travels in every envelope and echoes in the reply, so
frames stay attributable however many calls share a worker).

Deadlines and shedding are enforced **during** the reply wait: it is
bounded by the ambient ticket's remaining budget and calls the ticket's
``check_deadline`` whenever it wakes without a frame, so a call expires
at its deadline and a shed one unwinds within one poll interval.  Its
eventual reply is identified by ``call_id`` and discarded by the next
caller on that worker — an abandoned call never desynchronises the
pipe.  A run is one round trip under the same rules: the worker ends it
at the stage boundary where the budget is spent, and a call shed while
one is under way wastes at most the rest of it.  A worker found dead
raises :class:`~repro.errors.WorkerCrashed` (a
:class:`~repro.errors.RemoteError`), which the skeletons' failure paths
turn into a fail-fast ``ResultCollector.fail``; it is refilled with
every servant it hosted, and their links, behind the same refs.
Placement, links and refills are logged on ``repro.middleware.proc``.
"""

from __future__ import annotations

import atexit
import itertools
import logging
import threading
from functools import partial
from math import inf
from typing import Any

from repro.aop.plan import piece_view
from repro.errors import (
    InjectedFault,
    MiddlewareError,
    RemoteError,
    ReplyDropped,
    SerializationError,
    WorkerCrashed,
)
from repro.faults.schedule import fire_fault
from repro.middleware.base import Middleware, RemoteRef
from repro.middleware.serialize import (
    ExportEnvelope,
    LinkEnvelope,
    RequestEnvelope,
    Serializer,
)
from repro.runtime import procbackend
from repro.runtime.backend import current_backend
from repro.runtime.dispatch import current_dispatch, leave_run, take_run
from repro.runtime.procbackend import ProcWorker

__all__ = ["ProcMiddleware"]

log = logging.getLogger("repro.middleware.proc")


class _Slot:
    """One resident worker (forked when the first servant is placed
    here) and the exports it hosts: what a crash takes down and a refill
    puts back."""

    __slots__ = ("worker", "exports")

    def __init__(self) -> None:
        self.worker: ProcWorker | None = None
        self.exports: list[_Export] = []


class _Export:
    """Parent-side record for one exported servant."""

    __slots__ = ("slot", "ref", "local", "next_id")

    def __init__(self, slot: _Slot, ref: RemoteRef, local: Any):
        self.slot = slot
        self.ref = ref
        #: the parent-side twin the client code holds — its state does
        #: NOT track the remote copy (value semantics, like RMI)
        self.local = local
        #: the stage this one hands on to inside the worker (a link)
        self.next_id: int | None = None


class ProcMiddleware(Middleware):
    """Export / invoke over resident worker processes."""

    name = "process"

    def __init__(self) -> None:
        #: every worker this middleware started, in start order (index ==
        #: position): crashed and stopped ones stay, for the record
        self.workers: list[ProcWorker] = []
        self._armed = False  # is shutdown registered with atexit?
        # pickling IS the copy; the serializer exists for its
        # accounting: messages == marshalling passes, the invariant the
        # pack-amortisation bench asserts
        self.serializer = Serializer()
        self._servants: dict[int, _Export] = {}
        #: forward_args of the linked pipeline, as its links carry it
        self._forward_args: Any = None
        self._call_ids = itertools.count(1)
        self.calls = 0
        self.oneway_calls = 0
        self.batched_calls = 0
        self.worker_crashes = 0
        #: crashed workers refilled from the parent-side twins, so a
        #: retried piece finds a healthy process behind the same refs
        self.worker_respawns = 0
        #: guards the worker list and refills (a refill starts a worker)
        self._lock = threading.RLock()

    # -- export -------------------------------------------------------------

    def hosts(self, count: int) -> list:
        """``min(count, usable_cpus())`` fresh worker slots: the host
        group of one construction of ``count`` servants."""
        return [_Slot() for _ in range(min(count, procbackend.usable_cpus()))]

    def export(self, obj: Any, host: _Slot | None = None) -> RemoteRef:
        """Ship ``obj`` into the resident worker of ``host`` (a slot of
        :meth:`hosts`, whose worker forks with its first servant), or
        into a worker of its own.

        Waits for the worker's export acknowledgement: a servant that
        cannot materialise in the child (unpicklable state, a class a
        spawn-started child cannot import) fails HERE, at deploy time,
        not on the first invocation.
        """
        ref = RemoteRef(-1, self.name, type(obj).__name__)
        slot = host if host is not None else _Slot()
        export = _Export(slot, ref, obj)
        # encode BEFORE forking: an unpicklable servant fails with no
        # worker process to clean up (nothing to leak)
        frames = self._frames([export])
        fresh = slot.worker is None
        if fresh:
            slot.worker = self._start_worker()
        try:
            self._ship(slot.worker, frames)
        except BaseException:
            if fresh:  # a failed export leaves no process behind
                slot.worker.stop()
                slot.worker = None
            raise
        slot.exports.append(export)
        self._servants[ref.object_id] = export
        return ref

    def _frames(self, exports: list, servants: bool = True) -> list:
        """What rebuilds ``exports`` in a worker: an export frame each
        (``servants``), then a link frame for each that hands on there."""
        envelopes: list = [
            ExportEnvelope(e.ref.object_id, e.local, e.ref.type_name)
            for e in exports
            if servants
        ]
        envelopes += [
            LinkEnvelope(e.ref.object_id, e.next_id, self._forward_args)
            for e in exports
            if e.next_id is not None
        ]
        return [self.serializer.encode(envelope) for envelope in envelopes]

    def _ship(self, worker: ProcWorker, frames: list) -> None:
        """Send deploy-time frames, each acknowledged by the worker."""
        for frame in frames:
            with worker.lock:  # recv's poll object is not re-entrant
                worker.send(frame)
                reply = self.serializer.decode(worker.recv())
            if reply.outcome == "error":
                raise MiddlewareError(
                    f"deploying to worker process {worker.name} failed: "
                    f"{reply.payload}"
                )

    def link(self, stages: Any = (), forward_args: Any = None) -> None:
        """Close a batched construction.  ``stages`` are the refs of a
        pipeline's stages in order (none for any other construction):
        each worker is told which adjacent pairs it hosts both ends of,
        so a run crosses them without coming back here.  A custom
        ``forward_args`` that cannot be pickled turns runs off for the
        deployment: every hop returns to the parent, results equal."""
        exports = [self._require(ref) for ref in stages]
        pairs = [(a, b) for a, b in zip(exports, exports[1:]) if a.slot is b.slot]
        self._forward_args = forward_args
        try:
            for a, b in pairs:
                a.next_id = b.ref.object_id
                self._ship(a.slot.worker, self._frames([a], servants=False))
        except SerializationError as exc:
            log.warning(
                "forward_args %r cannot be shipped to the workers: no stage "
                "runs ahead in this deployment, every hop returns to the "
                "parent (%s)", forward_args, exc,
            )
            for a, _ in pairs:
                a.next_id = None
            pairs = []
        hosted: dict[int, list[int]] = {}
        for export in self._servants.values():
            hosted.setdefault(export.slot.worker.index, []).append(export.ref.object_id)
        log.info(
            "deployed %d servants on %d workers (usable_cpus=%d): servants "
            "by worker %s, %d links",
            len(self._servants), len(hosted), procbackend.usable_cpus(),
            hosted, len(pairs),
        )

    def _start_worker(self) -> ProcWorker:
        """Fork one resident worker and keep it for teardown; the first
        arms the ``atexit`` backstop :meth:`shutdown` disarms."""
        with self._lock:
            worker = ProcWorker(len(self.workers))
            self.workers.append(worker)
            if not self._armed:
                atexit.register(self.shutdown)
                self._armed = True
        return worker

    @property
    def live_workers(self) -> int:
        """Worker processes currently alive (leak observability)."""
        return sum(worker.alive for worker in self.workers)

    def worker_of(self, ref: RemoteRef) -> ProcWorker:
        """The resident worker hosting a ref (fault-injection hook)."""
        return self._require(ref).slot.worker

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

        A call the pipeline forwarder marked, into a stage linked to the
        next, asks for a *run*: it carries what is left of the ticket's
        budget and the reply's ``hops`` goes back to the forwarder.
        Still one round trip: one ``"proc"`` fault consultation, one
        reply wait bounded by the budget.  Any other call is one stage.

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
        check = deadline = context_id = budget = None
        if context is not None:
            context_id = context.context_id
            deadline = context.deadline
            check = partial(context.check_deadline, "awaiting a process-backend reply")
            context.attribute_remote()
            check()  # don't ship work for a call that is already cancelled
        if export.next_id is not None and take_run():
            budget = inf if deadline is None else deadline.remaining()
        frame = self.serializer.encode(  # names a culprit field
            RequestEnvelope(
                call_id, ref.object_id, method, args, kwargs, oneway, batch,
                context_id, budget,
            )
        )
        slot = export.slot
        worker = slot.worker
        # the "proc" fault site: consulted once per round trip, indexed
        # by the resident worker.  kill_worker SIGKILLs the real process
        # and lets the send/recv below surface the genuine WorkerCrashed
        # (the full obituary path, not a synthetic error); raise_in_piece
        # fails the call before the send; delay_reply stalls the round
        # trip; drop_reply completes the call in the worker but discards
        # the matched reply on the way back.
        faults = context is not None and context.faults is not None
        event = fire_fault("proc", worker.index, context) if faults else None
        if event is not None:
            if event.kind == "kill_worker":
                worker.kill()
            elif event.kind == "raise_in_piece":
                raise InjectedFault(
                    f"injected failure before the send to worker {worker.name}"
                )
            elif event.kind == "delay_reply":
                current_backend().sleep(event.delay)
        try:
            # one round trip at a time per worker: the pipe is shared,
            # and the worker's poll object is not re-entrant
            with worker.lock:
                worker.send(frame, check, deadline)
                if oneway:
                    return None
                while True:
                    reply = self.serializer.decode(worker.recv(check, deadline))
                    if reply.call_id == call_id or reply.call_id == -1:
                        break
                    # a previous caller's abandoned reply: discard
        except WorkerCrashed:
            self.worker_crashes += 1
            self._refill(slot, worker)
            raise
        if event is not None and event.kind == "drop_reply":
            raise ReplyDropped(
                f"injected reply drop on worker {worker.name} (call {call_id})"
            )
        if reply.outcome == "error":
            raise self._remote_error(ref, method, reply.payload, batch=batch)
        if reply.hops:
            leave_run(reply.hops, reply.view)
        return reply.payload

    def _require(self, ref: RemoteRef) -> _Export:
        export = self._servants.get(ref.object_id)
        if export is None:
            raise MiddlewareError(f"unknown ref {ref!r}")
        return export

    def _refill(self, slot: _Slot, dead: ProcWorker) -> None:
        """Replace a crashed worker: re-export the parent-side twin of
        every servant it hosted into a fresh process, links included,
        behind the SAME refs, so the retry that follows the
        :class:`~repro.errors.WorkerCrashed` finds a healthy resident.
        The twins carry deploy-time state (value semantics) — mid-run
        servant mutations die with the process, which is the honest
        recovery contract for state that only lived remotely.

        Best-effort and idempotent: concurrent crashed calls on one
        worker race here, the identity check makes the first one refill
        and the rest keep the already-fresh worker.
        """
        with self._lock:
            if slot.worker is not dead:
                return  # another caller already refilled this worker
            hosted = [export.ref.object_id for export in slot.exports]
            fresh = None
            try:
                frames = self._frames(slot.exports)  # BEFORE forking
                fresh = self._start_worker()
                self._ship(fresh, frames)
                slot.worker = fresh
                self.worker_respawns += 1
                outcome = f"re-hosted on {fresh.name} (pid {fresh.pid})"
            except Exception as exc:  # noqa: BLE001 - best-effort: the slot
                # stays dead and its callers keep failing
                if fresh is not None:
                    fresh.stop()
                outcome = f"could not be re-hosted: {exc}"
            finally:
                dead.stop()  # reap the corpse (idempotent)
            log.warning(
                "worker %s (pid %s) died with exit code %s; its servants %s %s",
                dead.name, dead.pid, dead.exitcode, hosted, outcome,
            )

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
        """Stop every worker this middleware started (idempotent;
        reached from ``ParallelApp.shutdown``/``__exit__``) and disarm
        the ``atexit`` backstop, which would keep this middleware and its
        workers' pipes alive until the interpreter exits."""
        with self._lock:
            atexit.unregister(self.shutdown)
            self._armed = False
            workers = list(self.workers)
        for worker in workers:
            worker.stop()
        self._servants.clear()
